"""Live REST adapter for Etherscan-dialect account endpoints.

Covers module=account action=txlist (native) and action=tokentx (token
transfers), with page-level caching, a fixed retry budget and client-side
rate limiting. Every successful page body is cached verbatim, so a warm
cache answers a repeat run without any upstream request. The rate limit
holds across all threads that share one client, and a retry after a 429
waits at least as long as its Retry-After header asks.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING

from ..errors import ChainUnavailable, RateLimited, UnknownChain
from ..model import Address, TransactionRecord, normalize_address
from .cache import FetchCache
from .fetch import dedup_and_sort

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
        retry_attempts: int = RETRY_ATTEMPTS,
        backoff_base_s: float = BACKOFF_BASE_S,
        timeout_s: float = 30.0,
    ):
        import requests  # deferred: runs on fixture data never load it

        self.base_url = base_url.rstrip("/")
        self.chain = chain
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.cache = cache
        self.session = session or requests.Session()
        self.page_size = page_size
        self.max_pages = max_pages
        self.min_interval_s = 1.0 / rate_limit_per_s if rate_limit_per_s > 0 else 0.0
        self.retry_attempts = retry_attempts
        self.backoff_base_s = backoff_base_s
        self.timeout_s = timeout_s
        self.diagnostics: list[dict] = []
        self._throttle_lock = threading.Lock()
        self._last_slot = 0.0  # monotonic time of the latest reserved request slot

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
                rec = self._row_to_record(row, action)
                if rec is not None:
                    records.append(rec)
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
                return self._parse_body(cached, allow_rate_limit_error=False)
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
        rows = self._parse_body(body, allow_rate_limit_error=True)
        if self.cache is not None:
            self.cache.put(self.chain, address.hex, page_token, body)
        return rows

    def _http_get(self, params: dict) -> bytes:
        import requests

        last_err: Exception | None = None
        for attempt in range(self.retry_attempts):
            if attempt:
                backoff = self.backoff_base_s * (2 ** (attempt - 1))
                time.sleep(max(backoff, getattr(last_err, "retry_after_s", 0.0)))
            self._throttle()
            try:
                resp = self.session.get(self.base_url, params=params, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code == 429:
                last_err = RateLimited("upstream returned 429", _retry_after_s(resp.headers))
                continue
            if resp.status_code >= 500:
                last_err = ChainUnavailable(f"upstream returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise ChainUnavailable(f"upstream returned {resp.status_code}: {resp.text[:200]}")
            return resp.content
        if isinstance(last_err, RateLimited):
            raise last_err
        raise ChainUnavailable(f"chain API unreachable after {self.retry_attempts} attempts: {last_err}")

    def _throttle(self) -> None:
        """Reserves the next request slot, min_interval_s after the previous
        one, under the lock, then sleeps until it outside the lock."""
        if self.min_interval_s <= 0:
            return
        with self._throttle_lock:
            now = time.monotonic()
            slot = max(now, self._last_slot + self.min_interval_s)
            self._last_slot = slot
        time.sleep(slot - now)

    def _parse_body(self, body: bytes, allow_rate_limit_error: bool) -> list[dict]:
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
            if allow_rate_limit_error:
                raise RateLimited(f"upstream rate limit: {message.strip()}")
            return []
        raise ChainUnavailable(f"upstream error: {message.strip()[:200]}")

    def _row_to_record(self, row: dict, action: str) -> TransactionRecord | None:
        try:
            contract = (row.get("contractAddress") or "").strip()
            return TransactionRecord(
                hash=row["hash"],
                from_addr=normalize_address(row["from"], self.chain),
                to_addr=normalize_address(row["to"], self.chain),
                value=str(row.get("value", "0")).strip(),
                timeStamp=int(row["timeStamp"]),
                blockNumber=int(row["blockNumber"]),
                tokenSymbol=(row.get("tokenSymbol") or "").strip() if action == "tokentx" else "",
                contractAddress=normalize_address(contract, self.chain) if contract else None,
                isError=str(row.get("isError", "0")).strip() == "1",
                input=(row.get("input") or "0x").strip() or "0x",
                nonce=int(row.get("nonce", 0) or 0),
                blockHash=(row.get("blockHash") or "").strip(),
                gas=str(row.get("gas", "0") or "0").strip(),
                gasPrice=str(row.get("gasPrice", "0") or "0").strip(),
                gasUsed=str(row.get("gasUsed", "0") or "0").strip(),
                confirmations=int(row.get("confirmations", 0) or 0),
            )
        except Exception as exc:
            # live data is messy (contract creations have empty `to`); drop the
            # row but leave a trace for the diagnostics file
            self.diagnostics.append(
                {"kind": "dropped_row", "chain": self.chain, "reason": str(exc)[:200]}
            )
            return None


def _retry_after_s(headers) -> float:
    """Seconds a Retry-After header asks for in its delay-seconds form; 0 when
    it is absent or an HTTP date, which is not honoured."""
    value = (headers.get("Retry-After") or "").strip()
    return float(value) if value.isdecimal() else 0.0
