"""Minimal HTTP/1.0 server (runs unmodified inside VMs).

Requests/responses are byte-counted with message markers for framing:
a request is ~200 B carrying the path; the response is headers (~250 B)
plus the file body. One request per connection (HTTP/1.0 semantics,
matching ApacheBench's default non-keepalive mode used for the
connection-time measurements of Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.stack import Host

__all__ = ["HttpRequest", "HttpResponse", "HttpServer", "response_size_for"]

HTTP_PORT = 80
REQUEST_BYTES = 200
HEADER_BYTES = 250
NOT_FOUND_BYTES = 128  # 404 body
# Server time per request; ApacheBench's fluid mode charges the same.
SERVICE_TIME = 50e-6


def file_size(path: str) -> int:
    """Body bytes of the synthetic file ``/file<N>k`` (N·1024), or -1
    for a path that does not name one."""
    if path.startswith("/file") and path.endswith("k"):
        try:
            return int(path[5:-1]) * 1024
        except ValueError:
            pass
    return -1


def response_size_for(path: str) -> int:
    """Wire size (headers + body) of the response :class:`HttpServer`
    would send for ``path`` — shared with ApacheBench's fluid mode,
    which sizes response flows without a server process."""
    size = file_size(path)
    return HEADER_BYTES + (size if size >= 0 else NOT_FOUND_BYTES)


@dataclass(frozen=True)
class HttpRequest:
    path: str

    @property
    def size(self) -> int:
        return REQUEST_BYTES


@dataclass(frozen=True)
class HttpResponse:
    path: str
    status: int
    body_bytes: int

    @property
    def size(self) -> int:
        return HEADER_BYTES + self.body_bytes


class HttpServer:
    """Serves synthetic files on ``HTTP_PORT``: ``/file<N>k`` yields
    N·1024 bytes."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.requests_served = 0
        self.listener = host.tcp.listen(HTTP_PORT, backlog=512)
        host.sim.process(self._accept_loop(), name=f"httpd:{host.name}")

    def _accept_loop(self):
        sim = self.host.sim
        while True:
            conn = yield self.listener.accept()
            sim.process(self._serve_one(conn), name=f"httpd-conn:{self.host.name}")

    def _serve_one(self, conn):
        sim = self.host.sim
        request = None
        while request is None:
            chunk = yield conn.recv()
            if chunk is None:
                conn.close()
                return
            conn.app_read(chunk.nbytes)
            for obj in chunk.objs:
                if isinstance(obj, HttpRequest):
                    request = obj
                    break
        yield sim.timeout(SERVICE_TIME)
        size = file_size(request.path)
        if size < 0:
            response = HttpResponse(request.path, 404, NOT_FOUND_BYTES)
        else:
            response = HttpResponse(request.path, 200, size)
        self.requests_served += 1
        yield conn.send(response.size, obj=response)
        conn.close()
