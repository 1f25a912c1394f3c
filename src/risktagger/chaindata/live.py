"""Live REST adapter for Etherscan-dialect account endpoints.

Covers module=account action=txlist (native) and action=tokentx (token
transfers), with page-level caching, a fixed retry budget and client-side
rate limiting. Every successful page body is cached verbatim, so a warm
cache answers a repeat run without any upstream request and without an HTTP
client: `requests` is imported and the session built only when a page first
misses the cache. The rate limit holds across all threads that share one
client, and a 429 pauses all of them for at least as long as its Retry-After
header asks; a 429 asking for more than the retry budget fails the fetch at
once. Rows are built by the same checked builder as fixture rows
(fetch._row_to_record).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING

from ..errors import ChainUnavailable, RateLimited, UnknownChain
from ..model import Address, TransactionRecord
from .cache import FetchCache
from .fetch import _row_to_record, dedup_and_sort

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "RISKTAGGER_CHAIN_API_KEY"

RETRY_ATTEMPTS = 3
BACKOFF_BASE_S = 1.0
PAGE_SIZE = 1000
MAX_PAGES = 10


class EtherscanClient:
    def __init__(
        self,
        base_url: str,
        chain: str,
        api_key: str | None = None,
        cache: FetchCache | None = None,
        session: requests.Session | None = None,
        page_size: int = PAGE_SIZE,
        max_pages: int = MAX_PAGES,
        rate_limit_per_s: float = 5.0,
        backoff_base_s: float = BACKOFF_BASE_S,
        timeout_s: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.chain = chain
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.cache = cache
        self.session = session  # built on the first cache miss unless injected
        self.page_size = page_size
        self.max_pages = max_pages
        self.min_interval_s = 1.0 / rate_limit_per_s if rate_limit_per_s > 0 else 0.0
        self.backoff_base_s = backoff_base_s
        self.timeout_s = timeout_s
        self.diagnostics: list[dict] = []
        self._throttle_lock = threading.Lock()
        self._last_slot = 0.0  # monotonic time of the latest reserved request slot
        self._pause_until = 0.0  # monotonic end of the latest 429's pause

    def fetch_transactions(self, address: Address) -> list[TransactionRecord]:
        if address.chain != self.chain:
            raise UnknownChain(
                f"adapter serves chain {self.chain!r}, got address on {address.chain!r}"
            )
        records = []
        for action in ("txlist", "tokentx"):
            records.extend(self._fetch_action(address, action))
        return dedup_and_sort(records)

    def _fetch_action(self, address: Address, action: str) -> list[TransactionRecord]:
        records = []
        for page in range(1, self.max_pages + 1):
            rows = self._fetch_page(address, action, page)
            for row in rows:
                try:
                    records.append(_row_to_record(_row_values(row, action), self.chain))
                except Exception as exc:
                    # live data is messy (contract creations have empty `to`); drop
                    # the row but leave a trace for the diagnostics file
                    self.diagnostics.append(
                        {"kind": "dropped_row", "chain": self.chain, "reason": str(exc)[:200]}
                    )
            if len(rows) < self.page_size:
                break
        else:
            # loop exhausted max_pages while pages kept coming back full
            self.diagnostics.append(
                {
                    "kind": "truncated_fetch",
                    "address": address.hex,
                    "chain": self.chain,
                    "action": action,
                    "pages": self.max_pages,
                }
            )
        return records

    def _fetch_page(self, address: Address, action: str, page: int) -> list[dict]:
        page_token = f"{action}_p{page}"
        if self.cache is not None:
            cached = self.cache.get(self.chain, address.hex, page_token)
            if cached is not None:
                return self._parse_body(cached)
        body = self._http_get(
            {
                "module": "account",
                "action": action,
                "address": address.hex,
                "startblock": 0,
                "endblock": 999999999,
                "page": page,
                "offset": self.page_size,
                "sort": "asc",
                "apikey": self.api_key,
            }
        )
        rows = self._parse_body(body)
        if self.cache is not None:
            self.cache.put(self.chain, address.hex, page_token, body)
        return rows

    def _http_get(self, params: dict) -> bytes:
        import requests  # deferred: a run the cache answers in full never loads it

        with self._throttle_lock:  # threads that miss together share one session
            if self.session is None:
                self.session = requests.Session()
        last_err: Exception | None = None
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                time.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
            self._throttle()  # holds the retry past a 429's pause
            try:
                resp = self.session.get(self.base_url, params=params, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code == 429:
                last_err = RateLimited.from_headers("upstream returned 429", resp.headers)
                if last_err.retry_after_s > self.timeout_s * RETRY_ATTEMPTS:
                    raise ChainUnavailable(
                        f"upstream returned 429 asking to retry after {last_err.retry_after_s:g} s,"
                        " beyond the retry budget"
                    )
                with self._throttle_lock:  # every thread's next request waits it out
                    pause_end = time.monotonic() + last_err.retry_after_s
                    self._pause_until = max(self._pause_until, pause_end)
                    self._last_slot = max(self._last_slot, pause_end)
                continue
            if resp.status_code >= 500:
                last_err = ChainUnavailable(f"upstream returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise ChainUnavailable(f"upstream returned {resp.status_code}: {resp.text[:200]}")
            return resp.content
        if isinstance(last_err, RateLimited):
            raise last_err
        raise ChainUnavailable(f"chain API unreachable after {RETRY_ATTEMPTS} attempts: {last_err}")

    def _throttle(self) -> None:
        """Reserves the next request slot under the lock, min_interval_s after
        the previous one and not inside a 429's pause, then sleeps until it
        outside the lock. A slot that a pause begun meanwhile covers is
        reserved again."""
        while True:
            with self._throttle_lock:
                now = time.monotonic()
                slot = max(now, self._last_slot + self.min_interval_s)
                self._last_slot = slot
            time.sleep(slot - now)
            if slot >= self._pause_until:
                return

    def _parse_body(self, body: bytes) -> list[dict]:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ChainUnavailable(f"unparseable upstream response: {exc}") from exc
        status = str(payload.get("status", ""))
        result = payload.get("result")
        if status == "1" and isinstance(result, list):
            return result
        message = str(payload.get("message", "")) + " " + str(result or "")
        if isinstance(result, list) and not result:
            return []  # "No transactions found"
        if "rate limit" in message.lower():
            raise RateLimited(f"upstream rate limit: {message.strip()}")
        raise ChainUnavailable(f"upstream error: {message.strip()[:200]}")


def _row_values(row: dict, action: str) -> list:
    """An explorer's JSON row as the 16 fields of a row, with the adapter's
    defaults for absent and empty fields."""
    get = row.get
    return [
        row["hash"],
        row["from"],
        row["to"],
        str(get("value", "0")),
        row["timeStamp"],
        row["blockNumber"],
        (get("tokenSymbol") or "") if action == "tokentx" else "",
        get("contractAddress") or "",
        str(get("isError", "0")),
        get("input") or "",
        get("nonce") or 0,
        get("blockHash") or "",
        str(get("gas") or "0"),
        str(get("gasPrice") or "0"),
        str(get("gasUsed") or "0"),
        get("confirmations") or 0,
    ]
