"""Minimal stdlib client for a running ``repro-serve`` instance.

Wraps the four endpoints in typed helpers::

    client = ServiceClient("http://127.0.0.1:8642")
    resp = client.plan("lognormal", {"mu": 3.0, "sigma": 0.5},
                       strategy="mean_by_mean")
    resp["cached"]                      # False first time, True after
    client.evaluate("lognormal", {"mu": 3.0, "sigma": 0.5}, n_samples=20000)
    client.metrics()["metrics"]["counters"]["plancache.hits"]

Resilience: requests are retried through a
:class:`repro.resilience.policies.RetryPolicy` (jittered exponential
backoff).  Retryable failures are connection errors (``URLError``) and the
transient statuses 429/500/502/503; for a 429 the server's ``Retry-After``
hint is honored (capped at ``max_retry_after`` seconds) instead of the
policy's own backoff — the server knows when capacity frees up better than
the client's jitter does.  Pass ``retry=None`` to restore the historical
fail-fast behavior.

Errors: non-2xx responses raise :class:`ServiceHTTPError` carrying the
status code, the server's ``error`` message, and (for a 429) the parsed
``retry_after``; connection failures raise the underlying ``URLError``.
Only ``urllib`` — no new dependencies.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Mapping, Optional

from repro.resilience.policies import RetryPolicy

__all__ = ["ServiceHTTPError", "ServiceClient", "RETRYABLE_STATUSES"]

#: Transient server statuses worth retrying (4xx other than 429 are the
#: caller's bug and fail immediately).
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503})


class ServiceHTTPError(RuntimeError):
    """The server answered with a non-2xx status."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header in seconds (``None`` when absent).
        self.retry_after = retry_after


def _default_retry_policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=2.0)


class ServiceClient:
    """HTTP client for the planner service."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = "default",  # type: ignore[assignment]
        max_retry_after: float = 5.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # The sentinel keeps ``retry=None`` available as the explicit
        # "never retry" opt-out while defaulting everyone else to backoff.
        self.retry = _default_retry_policy() if retry == "default" else retry
        self.max_retry_after = float(max_retry_after)

    # -- transport -----------------------------------------------------
    def _request_once(self, path: str, body: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError):
                message = exc.reason or ""
            retry_after = None
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = max(0.0, float(header))
                except ValueError:
                    retry_after = None
            raise ServiceHTTPError(exc.code, str(message), retry_after) from None

    def _retryable(self, exc: Exception) -> bool:
        if isinstance(exc, ServiceHTTPError):
            return exc.status in RETRYABLE_STATUSES
        return isinstance(exc, urllib.error.URLError)

    def _request(self, path: str, body: Optional[dict] = None) -> dict:
        policy = self.retry
        if policy is None:
            return self._request_once(path, body)
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(path, body)
            except Exception as exc:
                if not self._retryable(exc) or not policy.should_retry(attempt):
                    raise
                if (
                    isinstance(exc, ServiceHTTPError)
                    and exc.status == 429
                    and exc.retry_after is not None
                ):
                    # Honor the server's own load-shedding hint (capped so a
                    # hostile/buggy header can't park the client for hours).
                    policy.sleep_for(min(exc.retry_after, self.max_retry_after))
                else:
                    policy.backoff(attempt)

    # -- endpoints -----------------------------------------------------
    def plan(
        self,
        law: str,
        params: Mapping,
        cost_model: Optional[Mapping] = None,
        strategy="mean_by_mean",
        coverage: Optional[float] = None,
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> dict:
        return self._request("/plan", self._body(
            law, params, cost_model, strategy, coverage, n_samples, seed
        ))

    def evaluate(
        self,
        law: str,
        params: Mapping,
        cost_model: Optional[Mapping] = None,
        strategy="mean_by_mean",
        coverage: Optional[float] = None,
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> dict:
        return self._request("/evaluate", self._body(
            law, params, cost_model, strategy, coverage, n_samples, seed
        ))

    def healthz(self) -> dict:
        return self._request("/healthz")

    def metrics(self) -> dict:
        return self._request("/metrics")

    def shards(self) -> dict:
        """Per-shard fleet view from ``/healthz``.

        ``{shard_id: {"up", "host", "port", "pid", "size", ...}}`` when the
        server runs ``--workers N``; ``{}`` against a classic single-process
        server.  The chaos drill uses the ``pid`` fields to pick a victim.
        """
        cache = self.healthz().get("cache", {})
        if isinstance(cache, dict) and cache.get("sharded"):
            shards = cache.get("shards", {})
            if isinstance(shards, dict):
                return shards
        return {}

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _body(law, params, cost_model, strategy, coverage, n_samples, seed) -> dict:
        body: dict = {
            "distribution": {"law": law, "params": dict(params)},
            "strategy": strategy,
        }
        if cost_model is not None:
            body["cost_model"] = dict(cost_model)
        if coverage is not None:
            body["coverage"] = coverage
        if n_samples is not None:
            body["n_samples"] = n_samples
        if seed is not None:
            body["seed"] = seed
        return body
