"""How to call a rate-limited HTTP API, once for both upstreams: the live
adapter's chain API and the llm backend's chat-completions endpoint.

Requests leave min_interval_s apart across the threads sharing an
Upstream. A transport error, a 5xx or a rate limit (a 429, or a 200 that the
caller's parser reads as RateLimited) is retried after exponential backoff,
RETRY_ATTEMPTS attempts in all; a rate limit pauses every sharing thread for
its Retry-After seconds, or else the backoff before the next attempt. A
Retry-After beyond the retry budget (timeout_s * RETRY_ATTEMPTS), or any
other status but 200, fails at once. Attempts that end on a rate limit raise
RateLimited, other failures the caller's error class. `requests` is imported
only at the first send.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, TypeVar

from .errors import RateLimited

if TYPE_CHECKING:
    from requests import Response, Session

RETRY_ATTEMPTS = 3
T = TypeVar("T")


class Upstream:
    """One HTTP API under the policy above; `error` is the class its failures
    raise and `name` opens their messages."""

    def __init__(
        self,
        error: type[Exception],
        name: str,
        rate_limit_per_s: float,
        timeout_s: float,
        backoff_base_s: float,
        session: Session | None = None,
    ):
        self.error = error
        self.name = name
        self.min_interval_s = 1.0 / rate_limit_per_s if rate_limit_per_s > 0 else 0.0
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.session = session  # built at the first send unless injected
        self._lock = threading.Lock()
        self._last_slot = 0.0  # monotonic time of the latest reserved request slot
        self._last_departure = float("-inf")  # monotonic time the latest request left
        self._pause_until = 0.0  # monotonic end of the latest rate limit's pause

    def send(self, method: str, url: str, parse: Callable[[Response], T], **kwargs) -> T:
        """parse(resp) of the 200 response to the session's `method` (get, post) on url."""
        import requests  # deferred: a run that sends nothing never loads it

        with self._lock:  # threads that send together share one session
            if self.session is None:
                self.session = requests.Session()
        request = getattr(self.session, method.lower())
        last_err: Exception | None = None
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                time.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
            self._throttle()  # holds the retry past a rate limit's pause
            try:
                resp = request(url, timeout=self.timeout_s, **kwargs)
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code == 429:
                # Retry-After in its delay-seconds form; an HTTP date is not honoured
                value = (resp.headers.get("Retry-After") or "").strip()
                last_err = RateLimited(f"{self.name} returned 429", float(value) if value.isdecimal() else 0.0)
                if last_err.retry_after_s > self.timeout_s * RETRY_ATTEMPTS:
                    raise self.error(
                        f"{self.name} returned 429 asking to retry after {last_err.retry_after_s:g} s,"
                        " beyond the retry budget"
                    )
            elif resp.status_code >= 500:
                last_err = self.error(f"{self.name} returned {resp.status_code}")
                continue
            elif resp.status_code != 200:
                raise self.error(f"{self.name} returned {resp.status_code}: {resp.text[:200]}")
            else:
                try:
                    return parse(resp)
                except RateLimited as exc:  # the limit reported in a 200 body
                    last_err = exc
            with self._lock:  # every thread's next request waits it out
                pause_end = time.monotonic() + (last_err.retry_after_s or self.backoff_base_s * 2**attempt)
                self._pause_until = max(self._pause_until, pause_end)
                self._last_slot = max(self._last_slot, pause_end)
        if isinstance(last_err, RateLimited):
            raise last_err
        raise self.error(f"{self.name} unreachable after {RETRY_ATTEMPTS} attempts: {last_err}")

    def _throttle(self) -> None:
        """Holds a request until it may leave: min_interval_s after the
        latest departure and not inside a rate limit's pause. Under the lock
        it reserves a slot, at first also min_interval_s after the latest
        reserved one, and it sleeps until the slot outside the lock. Back
        under the lock it leaves, recording the moment as the latest
        departure, unless another request left too recently (one that slept
        past its own slot) or a pause began meanwhile; then it reserves again."""
        reserved = False
        while True:
            with self._lock:
                now = time.monotonic()
                slot = max(now, self._last_departure + self.min_interval_s, self._pause_until)
                if not reserved:
                    slot = max(slot, self._last_slot + self.min_interval_s)
                if slot <= now:
                    self._last_departure = now
                    return
                self._last_slot = max(self._last_slot, slot)
                reserved = True
            time.sleep(slot - now)
