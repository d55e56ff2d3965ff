"""Scriptable localhost HTTP server for exercising the API clients."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockServer:
    """Serves responses from a callable (method, path, body) -> (status, payload)
    or (status, payload, extra headers); records every request it sees.

    By default it answers in HTTP/1.0 and closes each connection. With
    `keep_alive` it answers in HTTP/1.1 and keeps connections open; adding
    `drop_idle` closes each one right after its response without saying so,
    as a server does when it times out an idle keep-alive connection.
    """

    def __init__(self, respond, keep_alive: bool = False, drop_idle: bool = False):
        self.respond = respond
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def _serve(self, method: str):
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw) if raw else None
                with outer._lock:
                    outer.requests.append(
                        {
                            "method": method,
                            "path": self.path,
                            "body": body,
                            "headers": dict(self.headers),
                            "client": self.client_address,
                        }
                    )
                status, payload, *extra = outer.respond(method, self.path, body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in (extra[0] if extra else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                except OSError:
                    pass  # client gave up (timeout tests)
                if drop_idle:
                    self.close_connection = True

            def do_GET(self):
                self._serve("GET")

            def do_POST(self):
                self._serve("POST")

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for the serving loop's next poll; the default 0.5 s
        # poll cost each test that starts a server half a second.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


def completions_server(reply_fn, **server_kwargs):
    """MockServer emulating a /completions endpoint.

    reply_fn(prompt) -> completion text; usage is whitespace token counts.
    """

    def respond(method, path, body):
        if method != "POST" or not path.endswith("/completions"):
            return 404, {"error": "not found"}
        prompt = body["prompt"]
        text = reply_fn(prompt)
        return 200, {
            "choices": [{"text": text}],
            "usage": {
                "prompt_tokens": len(prompt.split()),
                "completion_tokens": len(text.split()),
            },
        }

    return MockServer(respond, **server_kwargs)


def pageviews_server(views_by_title, **server_kwargs):
    """MockServer emulating the per-article monthly pageviews API.

    The API names an article with "_" for each space, so the table is keyed by
    that wire form, and a title that holds a space gets a 404, as does an
    unknown one, mirroring the real endpoint.
    """
    from urllib.parse import unquote

    views_by_wire_title = {title.replace(" ", "_"): views
                           for title, views in views_by_title.items()}

    def respond(method, path, body):
        parts = path.split("/")
        # .../per-article/{project}/{access}/{agent}/{title}/monthly/{start}/{end}
        try:
            title = unquote(parts[-4])
        except IndexError:
            return 400, {"error": "bad path"}
        if title not in views_by_wire_title:
            return 404, {"type": "not_found"}
        return 200, {"items": [{"article": title, "views": views_by_wire_title[title]}]}

    return MockServer(respond, **server_kwargs)
