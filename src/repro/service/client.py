"""A minimal stdlib client for the sweep service's HTTP API.

Used by the ``repro service submit|status|result`` CLI and the smoke
drill; kept free of third-party dependencies (``urllib`` only) for the
same reason the server is.  Every call returns the decoded JSON
document; HTTP error statuses surface as :class:`ServiceError` with
the server's ``error`` field as the message, so callers never parse
HTML tracebacks (the server never sends any).

Hardening: every urllib call carries an explicit timeout, and
*connection-level* failures (``ConnectionError``/``URLError``/socket
timeouts — anywhere the request may never have arrived) are retried a
bounded number of times with exponential backoff before surfacing as
:class:`ServiceError` with status 0.  HTTP error statuses are never
retried: the server answered, and re-asking would not change the
answer.  Retrying ``POST /jobs`` is safe because submission is
idempotent by construction (content-addressed job ids dedup).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional

from ..errors import ReproError


class ServiceError(ReproError):
    """An HTTP-level failure talking to the sweep service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _request_raw(
    url: str,
    payload: Optional[Dict] = None,
    timeout: float = 30.0,
    retries: int = 3,
    backoff: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
    token: Optional[str] = None,
) -> bytes:
    """One HTTP exchange returning the raw response body.

    ``retries`` bounds the total attempts; attempt *n* failing at the
    connection level sleeps ``backoff * 2**(n-1)`` before the next.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    attempt = 0
    while True:
        attempt += 1
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            # The server answered: an HTTP status is a result, not an
            # outage — never retried.
            try:
                document = json.loads(exc.read().decode())
                message = (
                    document.get("error") or document.get("state") or str(exc)
                )
            except ValueError:
                message = str(exc)
            raise ServiceError(exc.code, message) from None
        except OSError as exc:
            # URLError (refused, unreachable, DNS), ConnectionError,
            # socket timeouts: the retryable family.
            if attempt >= max(retries, 1):
                reason = getattr(exc, "reason", exc)
                raise ServiceError(0, f"cannot reach {url}: {reason}") from None
            sleep(backoff * (2 ** (attempt - 1)))


def _request(
    url: str,
    payload: Optional[Dict] = None,
    timeout: float = 30.0,
    retries: int = 3,
    backoff: float = 0.2,
    token: Optional[str] = None,
) -> Dict:
    return json.loads(
        _request_raw(
            url,
            payload,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            token=token,
        ).decode()
    )


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
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        self._token = token

    def _get(self, path: str, payload: Optional[Dict] = None) -> Dict:
        return _request(
            f"{self._base}{path}",
            payload,
            timeout=self._timeout,
            retries=self._retries,
            backoff=self._backoff,
            token=self._token,
        )

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
        return _request_raw(
            f"{self._base}/jobs/{job_id}/result",
            timeout=self._timeout,
            retries=self._retries,
            backoff=self._backoff,
            token=self._token,
        ).decode()

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
