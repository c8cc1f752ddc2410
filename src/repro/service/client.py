"""A minimal stdlib client for the sweep service's HTTP API, and the
one kept-alive HTTP/1.1 channel every service caller talks through.

:class:`HttpChannel` is the exchange helper shared by
:class:`ServiceClient` (the ``repro service submit|status|result`` CLI
and the drills) and the shard workers' :class:`~repro.service.worker.
WorkerTransport`: one ``http.client`` connection per calling thread,
opened on first use and kept alive across requests, so a stream of seed
uploads pays one TCP connect instead of one per request.  A reused
connection the peer has closed (its idle timeout, a restart, a drain)
is retried once on a fresh connection; every other failure is the
caller's to handle.  Stdlib only, for the same reason the server is.

Every :class:`ServiceClient` call returns the decoded JSON document;
HTTP error statuses surface as :class:`ServiceError` with the server's
``error`` field as the message, so callers never parse HTML tracebacks
(the server never sends any).

Hardening: every exchange carries an explicit timeout, and
*connection-level* failures (refused, reset, socket timeouts —
anywhere the request may never have arrived) are retried a bounded
number of times with exponential backoff before surfacing as
:class:`ServiceError` with status 0.  HTTP error statuses are never
retried: the server answered, and re-asking would not change the
answer.  Retrying ``POST /jobs`` is safe because submission is
idempotent by construction (content-addressed job ids dedup).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ConfigurationError, ReproError

#: What a failed exchange raises when no HTTP status came back.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: The connection class of each URL scheme a channel accepts.
_CONNECTIONS = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}


class ServiceError(ReproError):
    """An HTTP-level failure talking to the sweep service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class HttpChannel:
    """Kept-alive HTTP/1.1 exchanges with one service.

    Each calling thread gets its own connection, opened on its first
    request and reused by every later one.  :meth:`exchange` returns
    the reply's status and body whatever the status; a failure with no
    reply raises one of :data:`TRANSPORT_ERRORS`.  The one retry it
    makes itself: a *reused* connection failing with a
    ``ConnectionError`` (the peer closed it, usually while it sat idle:
    an idle timeout, a restart, a drain) is replaced by a fresh one and
    the request sent once more.  Every endpoint tolerates the repeat:
    submissions and uploads dedup, and a lease nobody uses times out.

    ``base_url`` must be an ``http://`` or ``https://`` URL with a host;
    anything else raises :class:`~repro.errors.ConfigurationError`
    rather than being sent somewhere in cleartext.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        parts = urlsplit(base_url)
        connection = _CONNECTIONS.get(parts.scheme)
        if connection is None:
            raise ConfigurationError(
                f"service URL must start with http:// or https://, got {base_url!r}"
            )
        try:
            port = parts.port
        except ValueError as exc:
            raise ConfigurationError(f"bad service URL {base_url!r}: {exc}") from None
        if not parts.hostname:
            raise ConfigurationError(f"service URL {base_url!r} names no host")
        self._connection = connection
        self._host = parts.hostname
        self._port = port  # None: the scheme's default port
        self._prefix = parts.path.rstrip("/")
        self._timeout = timeout
        self._local = threading.local()

    def exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One request/reply; returns ``(status, body)``."""
        headers = headers or {}
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                return self._round_trip(conn, method, path, body, headers)
            except ConnectionError:
                pass  # closed by the peer while idle: once more, fresh
        conn = self._connection(self._host, self._port, timeout=self._timeout)
        self._local.conn = conn
        return self._round_trip(conn, method, path, body, headers)

    def _round_trip(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        try:
            conn.request(method, self._prefix + path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        """Close the calling thread's connection (the next request of
        this thread opens a fresh one)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()


def encode_request(
    payload: Optional[Dict], token: Optional[str]
) -> Tuple[str, Optional[bytes], Dict[str, str]]:
    """The method, body and headers of one JSON API call: ``POST`` with
    a JSON body when there is a payload, ``GET`` otherwise."""
    headers = {"Accept": "application/json"}
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    return ("GET" if data is None else "POST"), data, headers


def error_message(status: int, body: bytes) -> str:
    """The server's reason for an HTTP error status: the reply's
    ``error`` (or ``state``) field when the body is a JSON document."""
    try:
        document = json.loads(body.decode())
    except ValueError:
        document = None
    if isinstance(document, dict):
        reason = document.get("error") or document.get("state")
        if reason:
            return str(reason)
    return f"HTTP Error {status}"


def _call(
    channel: HttpChannel,
    url: str,
    path: str,
    payload: Optional[Dict],
    retries: int,
    backoff: float,
    sleep: Callable[[float], None],
    token: Optional[str],
) -> bytes:
    """One API call with the client's retry policy; returns the body.

    ``retries`` bounds the total attempts; attempt *n* failing at the
    connection level sleeps ``backoff * 2**(n-1)`` before the next.
    """
    method, data, headers = encode_request(payload, token)
    attempt = 0
    while True:
        attempt += 1
        try:
            status, body = channel.exchange(method, path, data, headers)
        except TRANSPORT_ERRORS as exc:
            if attempt >= max(retries, 1):
                raise ServiceError(0, f"cannot reach {url}: {exc}") from None
            sleep(backoff * (2 ** (attempt - 1)))
            continue
        if status >= 400:
            # The server answered: an HTTP status is a result, not an
            # outage — never retried.
            raise ServiceError(status, error_message(status, body))
        return body


class ServiceClient:
    """Talks to one running :class:`~repro.service.SweepService`.

    ``retries``/``backoff`` bound the per-call retry schedule on
    connection-level failures (see the module docstring); ``retries=1``
    restores fail-fast behaviour.  ``token`` is sent as a ``Bearer``
    header on every request when the service was started with
    ``--token`` (mutating endpoints answer 401 without it).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.2,
        token: Optional[str] = None,
    ) -> None:
        self._base = base_url.rstrip("/")
        self._retries = retries
        self._backoff = backoff
        self._token = token
        self._timeout = timeout
        self._channel = HttpChannel(self._base, timeout)

    def _raw(self, path: str, payload: Optional[Dict] = None) -> bytes:
        return _call(
            self._channel,
            f"{self._base}{path}",
            path,
            payload,
            self._retries,
            self._backoff,
            time.sleep,
            self._token,
        )

    def _get(self, path: str, payload: Optional[Dict] = None) -> Dict:
        return json.loads(self._raw(path, payload).decode())

    def health(self) -> Dict:
        """Liveness probe (``GET /healthz``)."""
        return self._get("/healthz")

    def workers(self) -> Dict:
        """The lease-board fleet summary (``GET /workers``)."""
        return self._get("/workers")

    def submit(self, payload: Dict) -> Dict:
        """Submit a job; returns ``{"job", "state", "created"}``.
        Safe under retry: duplicate submissions dedup server-side."""
        return self._get("/jobs", payload)

    def status(self, job_id: str) -> Dict:
        """One job's status document."""
        return self._get(f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        """One finished job's report (raises :class:`ServiceError` with
        status 409 while the job is still queued/running, 410 if the
        result blob was evicted by ``service gc``)."""
        return self._get(f"/jobs/{job_id}/result")

    def result_text(self, job_id: str) -> str:
        """The finished report's exact bytes, as text — for byte-level
        comparison against a direct run's ``to_json()``."""
        return self._raw(f"/jobs/{job_id}/result").decode()

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll: float = 0.2,
    ) -> Dict:
        """Wait until the job reaches a terminal state; returns the
        final status document.  Raises :class:`ServiceError` (status 0)
        on deadline.

        Each status read is held server-side (``?wait=``) for up to
        ``poll`` seconds until the job changes state.  An unchanged
        state after an early answer (a service that does not hold)
        sleeps out the rest of ``poll``, never past the deadline.
        """
        deadline = time.monotonic() + timeout
        previous = None
        while True:
            asked = time.monotonic()
            hold = max(0.0, min(poll, deadline - asked, self._timeout / 2))
            status = self._get(f"/jobs/{job_id}?wait={hold:.3f}")
            if status["state"] in ("done", "failed", "quarantined"):
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    0, f"job {job_id} still {status['state']} after {timeout}s"
                )
            if status["state"] == previous:
                time.sleep(max(0.0, min(asked + poll, deadline) - now))
            previous = status["state"]
