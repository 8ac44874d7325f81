"""Loopback HTTP stub: the stand-in model and mock embedder on the wire.

Serves ``POST /v1/chat/completions`` and ``POST /v1/embeddings`` in the
common wire shapes, and ``GET /stats`` with request, byte and connection
counts. It is single-threaded and speaks HTTP/1.0, closing every
connection: the program posts with ``requests.post`` and no session, so a
single-threaded keep-alive server would block on the next connection.

Run: ``python3 perfbench/stub.py --dim 256`` (with the repository's ``src``
on PYTHONPATH). It prints its port on the first line of stdout and serves
until terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

from ragroute.embedding import MockEmbedder

from model import respond


class StubServer(HTTPServer):
    def __init__(self, dim: int):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.embedder = MockEmbedder(dim)
        self.stats = {
            "connections": 0,
            "requests": {"chat": 0, "embed": 0, "stats": 0},
            "request_bytes": {"chat": 0, "embed": 0},
            "embed_inputs": 0,
        }

    def get_request(self):
        conn = super().get_request()
        self.stats["connections"] += 1
        return conn


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"
    server: StubServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            return self._send(404, {"error": "not found"})
        self.server.stats["requests"]["stats"] += 1
        return self._send(200, self.server.stats)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        stats = self.server.stats
        try:
            body = json.loads(raw)
            if self.path == "/v1/chat/completions":
                stats["requests"]["chat"] += 1
                stats["request_bytes"]["chat"] += len(raw)
                reply, prompt_tokens, completion_tokens = respond(
                    [(m["role"], m["content"]) for m in body["messages"]]
                )
                return self._send(
                    200,
                    {
                        "choices": [{"message": {"role": "assistant", "content": reply}}],
                        "usage": {"prompt_tokens": prompt_tokens,
                                  "completion_tokens": completion_tokens},
                    },
                )
            if self.path == "/v1/embeddings":
                stats["requests"]["embed"] += 1
                stats["request_bytes"]["embed"] += len(raw)
                stats["embed_inputs"] += len(body["input"])
                matrix = self.server.embedder.embed_batch(body["input"])
                data = [{"index": i, "embedding": row.tolist()} for i, row in enumerate(matrix)]
                return self._send(200, {"data": data})
        except (KeyError, TypeError, ValueError) as exc:
            return self._send(400, {"error": str(exc)})
        return self._send(404, {"error": "not found"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, required=True)
    args = parser.parse_args(argv)
    server = StubServer(args.dim)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
