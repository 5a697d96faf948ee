"""Small blocking clients for the query daemon.

:class:`SocketClient` speaks the NDJSON protocol over the unix socket;
:func:`http_query` posts request lines to the local HTTP listener.
Both are deliberately dependency-free (``socket`` / ``http.client``
from the standard library) — they exist for ``repro query``, the
service tests, and the CI smoke job, not as a public SDK.

Resilience errors (protocol v3) surface as *typed* exceptions: a reply
whose error carries a machine-readable ``code`` — ``overloaded``,
``deadline_exceeded``, ``circuit_open`` — re-raises client-side as the
matching :mod:`repro.errors` class with ``retry_after`` attached
(:func:`raise_for_code`), so a retry loop can branch on the exception
type instead of string-matching messages.  Plain engine errors keep
arriving as ordinary ``ok: false`` reply documents.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import time
from pathlib import Path

from repro.errors import (
    CircuitOpenError,
    DeadlineError,
    OverloadedError,
    ProtocolError,
    ServiceError,
)
from repro.service.protocol import encode

__all__ = ["SocketClient", "http_query", "raise_for_code"]

#: Wire ``code`` -> typed exception class (see :func:`raise_for_code`).
_CODE_ERRORS: dict[str, type[Exception]] = {
    "overloaded": OverloadedError,
    "circuit_open": CircuitOpenError,
    "deadline_exceeded": DeadlineError,
}


def raise_for_code(reply: dict) -> dict:
    """Re-raise a coded error reply as its typed exception; pass others.

    Only the resilience codes map; an uncoded error (engine errors,
    tenant refusals) returns unchanged so callers keep the v2-era
    "inspect the reply document" flow for them.  ``retry_after`` from
    the wire is attached to the raised exception.
    """
    error = reply.get("error")
    if not reply.get("ok", False) and isinstance(error, dict):
        cls = _CODE_ERRORS.get(error.get("code", ""))
        if cls is not None:
            message = error.get("message", error.get("code"))
            exc = (
                cls(message)
                if cls is DeadlineError
                else cls(message, retry_after=error.get("retry_after"))
            )
            if cls is DeadlineError:
                exc.retry_after = error.get("retry_after")
            raise exc
    return reply


class SocketClient:
    """A blocking unix-socket connection to a running daemon.

    Connecting retries with exponential backoff until
    ``connect_timeout`` expires — ``repro serve`` binding its socket
    and ``repro query`` racing it is the normal startup sequence in
    scripts and CI, not an error.  ``timeout`` bounds each blocking
    read, so a wedged server surfaces as a :class:`ServiceError`
    instead of hanging the client forever.

    >>> with SocketClient("/tmp/repro.sock") as client:   # doctest: +SKIP
    ...     client.call("ping")
    """

    def __init__(
        self,
        path: str | Path,
        *,
        timeout: float | None = 60.0,
        connect_timeout: float = 5.0,
    ) -> None:
        self.path = str(path)
        deadline = time.monotonic() + connect_timeout
        delay = 0.02
        while True:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            try:
                self._sock.connect(self.path)
                break
            except OSError as exc:
                self._sock.close()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"cannot connect to service socket {self.path} "
                        f"after {connect_timeout:.1f}s: {exc}"
                    ) from exc
                time.sleep(min(delay, remaining))
                delay = min(delay * 2, 0.5)
        self._rfile = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def send(self, doc: dict) -> None:
        """Ship one raw request document (no waiting)."""
        try:
            self._sock.sendall(encode(doc))
        except OSError as exc:
            raise ServiceError(f"cannot write to service: {exc}") from exc

    def recv(self) -> dict:
        """Read one response line (blocking, bounded by ``timeout``)."""
        try:
            line = self._rfile.readline()
        except socket.timeout as exc:
            raise ServiceError(
                f"timed out waiting for a response on {self.path}"
            ) from exc
        if not line:
            raise ServiceError("service closed the connection")
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"service sent invalid JSON: {exc}") from exc
        return doc

    def call(
        self,
        op: str,
        params: dict | None = None,
        *,
        tenant: str = "default",
        budget: dict | None = None,
        deadline_ms: int | None = None,
        check: bool = True,
    ) -> dict:
        """One request, one (matching) response.

        Responses can arrive out of order (shortest-job-first), so the
        reply is matched by id; other responses read while waiting are
        an error here — :meth:`call` is for one-at-a-time use, tests
        that pipeline use :meth:`send`/:meth:`recv` directly.

        With ``check`` (the default) coded resilience errors raise
        their typed exceptions (:func:`raise_for_code`); pass
        ``check=False`` to get the raw reply document regardless.
        """
        rid = f"c{next(self._ids)}"
        doc: dict = {"id": rid, "op": op, "params": params or {}, "tenant": tenant}
        if budget is not None:
            doc["budget"] = budget
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        self.send(doc)
        reply = self.recv()
        if reply.get("id") not in (rid, ""):
            raise ServiceError(
                f"out-of-order response {reply.get('id')!r} to {rid!r}; "
                "use send()/recv() for pipelined queries"
            )
        return raise_for_code(reply) if check else reply


def http_query(
    host: str,
    port: int,
    requests: list[dict],
    *,
    timeout: float = 60.0,
    check: bool = False,
) -> list[dict]:
    """POST request documents to ``/query``; returns response documents.

    ``check=True`` applies :func:`raise_for_code` to every response —
    the first coded resilience error in the batch raises; the default
    keeps batches inspectable document-by-document.
    """
    body = b"".join(encode(doc) for doc in requests)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/query",
            body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        raw = conn.getresponse().read()
    except OSError as exc:
        raise ServiceError(f"HTTP query to {host}:{port} failed: {exc}") from exc
    finally:
        conn.close()
    replies = [json.loads(line) for line in raw.splitlines() if line.strip()]
    if check:
        for reply in replies:
            raise_for_code(reply)
    return replies
