"""Thin socket-style facade over the TCP engine.

Applications in :mod:`repro.apps` use these instead of poking the connection
object, mirroring how the paper's workloads (wget, Apache, iperf) sit on the
ordinary sockets API of the implementation under test.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tcpstack.connection import TcpConnection
from repro.tcpstack.endpoint import TcpEndpoint


class TcpSocket:
    """A connected (or connecting) TCP socket."""

    def __init__(self, conn: TcpConnection):
        self._conn = conn

    @classmethod
    def connect(
        cls, endpoint: TcpEndpoint, remote_addr: str, remote_port: int, app: object = None
    ) -> "TcpSocket":
        return cls(endpoint.connect(remote_addr, remote_port, app))

    # ------------------------------------------------------------------
    @property
    def connection(self) -> TcpConnection:
        return self._conn

    @property
    def state(self) -> str:
        return self._conn.state

    @property
    def bytes_delivered(self) -> int:
        return self._conn.bytes_delivered

    def send(self, nbytes: int) -> None:
        self._conn.app_send(nbytes)

    def close(self) -> None:
        self._conn.app_close()

    def abort(self) -> None:
        self._conn.app_abort()

    def exit(self) -> None:
        """Model the owning process exiting (half-close then RSTs)."""
        self._conn.app_exit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpSocket {self._conn!r}>"


class TcpListener:
    """A listening port that hands accepted connections to an app factory."""

    def __init__(
        self,
        endpoint: TcpEndpoint,
        port: int,
        app_factory: Callable[[TcpConnection], object],
    ):
        self.endpoint = endpoint
        self.port = port
        endpoint.listen(port, app_factory)

    def close(self) -> None:
        self.endpoint.stop_listening(self.port)
