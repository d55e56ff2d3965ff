"""popgate: long-tail entity QA datasets, BM25 retrieval, LM evaluation, and
popularity-gated adaptive retrieval.

Import what you use from the submodules (`popgate.dataset`, `popgate.retriever`,
`popgate.lm`, ...): the package itself loads none of them.
"""

__version__ = "0.1.0"
