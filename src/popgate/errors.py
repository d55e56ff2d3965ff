"""Exception types shared across the package."""


class PopgateError(Exception):
    """Base class for all popgate errors."""


class ValidationError(PopgateError):
    """Input data violates a documented invariant."""


class ConfigError(PopgateError):
    """Bad or incomplete configuration."""


class TransportError(PopgateError):
    """HTTP request failed after bounded retries."""


class ProtocolError(PopgateError):
    """Endpoint answered, but the response body is not in the expected shape."""


class JoinError(PopgateError):
    """Prediction records and dataset do not line up by question id."""


class PolicyError(PopgateError):
    """Routing policy file is unreadable or malformed, or the policy is missing
    a relation required by the data."""


class AccountingError(PopgateError):
    """Records lack the token counts needed for cost computation."""


class IndexFormatError(PopgateError):
    """Persisted index file is not an index, has an unsupported version, or is
    truncated or internally inconsistent."""
