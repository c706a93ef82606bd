"""The campaign service's HTTP/1.1 front end, on the standard library.

:class:`ServiceServer` is an ``http.server.ThreadingHTTPServer``: each
request runs on its own thread, so the blocking
:class:`~repro.service.app.CampaignService` calls (store I/O, handle
locks) run where they are read.  One handler sends every method to the
route table, and every answer — the stdlib's own rejections included —
is one JSON object with ``Connection: close``.

Routes::

    GET  /healthz                  liveness (no store access)
    GET  /                         service overview
    POST /campaigns                submit a CampaignSpec JSON
    GET  /campaigns                list campaign index records
    GET  /campaigns/{id}           status + fleet health
    POST /campaigns/{id}/cancel    request cancellation
    GET  /campaigns/{id}/report    finished campaign's report

Admission rejections map straight from ``ServiceError.http_status``
(422 bad spec, 429 over quota, 423 quarantined, 503 saturated, 409 not
finished, 404 unknown); a malformed request is a 400.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.service.app import CampaignService, ServiceError

log = logging.getLogger("repro.service.http")

MAX_BODY_BYTES = 4 * 1024 * 1024  # campaign specs are small; cap abuse


class _Rejected(Exception):
    """A request the edge answers itself, with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Every method goes to :meth:`ServiceServer._route`."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body are two small writes
    server: "ServiceServer"

    def __getattr__(self, name: str) -> Any:
        # the stdlib looks up ``do_<METHOD>``; an unknown method gets the
        # route table's 404, not the stdlib's 501
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def parse_request(self) -> bool:
        # the stdlib would answer a request line without a version, or
        # with HTTP/0.9, with no status line; refuse it as malformed
        words = self.raw_requestline.split()
        if len(words) != 3 or words[2] == b"HTTP/0.9":
            self.command, self.request_version = "", self.protocol_version
            self.requestline = self.raw_requestline.decode("latin-1").rstrip("\r\n")
            self.send_error(400, f"malformed request line {self.requestline!r}")
            return False
        return super().parse_request()

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            raise _Rejected(400, "bad Content-Length")
        size = int(length)
        if size > MAX_BODY_BYTES:
            raise _Rejected(400, "body too large")
        if not size:
            return None
        raw = self.rfile.read(size)
        if len(raw) < size:
            raise _Rejected(400, "truncated body")
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise _Rejected(400, f"body is not JSON: {error}") from error
        if not isinstance(body, dict):
            raise _Rejected(400, "JSON body must be an object")
        return body

    def _dispatch(self) -> None:
        method, path = self.command.upper(), self.path.split("?", 1)[0]
        try:
            status, payload = self.server._route(method, path, self._read_body())
        except _Rejected as error:
            status, payload = error.status, {"error": str(error)}
        except ServiceError as error:
            status = error.http_status
            payload = {"error": str(error), "kind": type(error).__name__}
        except Exception as error:  # noqa: BLE001 - wire boundary
            log.exception("service: unhandled error on %s %s", method, path)
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        self._reply(status, payload)

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's own rejections, answered in JSON like the routes."""
        self._reply(code, {"error": message or HTTPStatus(code).phrase})

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("%s %s", self.address_string(), format % args)


class ServiceServer(ThreadingHTTPServer):
    """The threading HTTP server wrapping one :class:`CampaignService`.

    Binds on construction (``port=0`` picks a free port; the bound one is
    ``self.port``); :meth:`start` serves from a daemon thread and
    :meth:`stop` shuts that down and closes the socket.
    """

    request_queue_size = 128  # listen backlog; the stdlib default is 5

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self.host, self.port = self.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def server_bind(self) -> None:
        # HTTPServer.server_bind also resolves the host's FQDN, a name
        # lookup this server never uses
        socketserver.TCPServer.server_bind(self)

    # ---------------------------------------------------------- routing
    def _route(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Answer one request: (status, JSON payload)."""
        service = self.service
        segments = [s for s in path.split("/") if s]
        not_allowed = _Rejected(405, f"{method} not allowed on {path}")
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/" and method == "GET":
            return 200, service.overview()
        if segments[:1] == ["campaigns"]:
            if len(segments) == 1:
                if method == "POST":
                    if body is None:
                        raise _Rejected(400, "POST /campaigns needs a spec body")
                    return 202, service.submit(body)
                if method == "GET":
                    return 200, {"campaigns": service.list_campaigns()}
                raise not_allowed
            campaign_id = segments[1]
            if len(segments) == 2:
                if method == "GET":
                    return 200, service.status(campaign_id)
                raise not_allowed
            if len(segments) == 3 and segments[2] == "cancel":
                if method == "POST":
                    return 202, service.cancel(campaign_id)
                raise not_allowed
            if len(segments) == 3 and segments[2] == "report":
                if method == "GET":
                    return 200, service.report(campaign_id)
                raise not_allowed
        raise _Rejected(404, f"no route {method} {path}")

    # -------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Serve from a daemon thread until :meth:`stop`."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()
        log.info("service: listening on http://%s:%d", self.host, self.port)

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()


def serve(
    service: CampaignService, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Blocking entry point behind ``repro serve``."""
    try:
        server = ServiceServer(service, host=host, port=port)
        print(f"repro service listening on http://{server.host}:{server.port}",
              flush=True)
        with server:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


__all__ = ["MAX_BODY_BYTES", "ServiceServer", "serve"]
