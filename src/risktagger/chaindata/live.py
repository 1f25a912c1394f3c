"""Live REST adapter for Etherscan-dialect account endpoints: module=account
action=txlist (native) and action=tokentx (token transfer) pages, requested
through an upstream.Upstream, which retries the rate limit that _parse_body
reads in a 200 body like a 429. A page is cached verbatim once it parses, so
a warm cache answers a repeat run without any request. A row whose 16
fields, with the adapter's defaults, are strings already in canonical form
takes the canonical-row path the fixture adapter shares
(fetch._canonical_to_record), and its fetched account's side is that
account's own Address. Any other row, such as one with a JSON number,
uppercase hex or edge whitespace, goes through the checked builder that
fixture rows use (fetch._row_to_record).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from ..errors import ChainUnavailable, RateLimited, UnknownChain
from ..model import Address, TransactionRecord
from ..upstream import Upstream
from .cache import FetchCache
from .fetch import _CANONICAL_ROW, _canonical_to_record, _row_to_record, dedup_and_sort

if TYPE_CHECKING:
    from ..upstream import Session

API_KEY_ENV = "RISKTAGGER_CHAIN_API_KEY"


class EtherscanClient:
    def __init__(
        self,
        base_url: str,
        chain: str,
        api_key: str | None = None,
        cache: FetchCache | None = None,
        session: Session | None = None,
        page_size: int = 1000,
        max_pages: int = 10,
        rate_limit_per_s: float = 5.0,
        backoff_base_s: float = 1.0,
        timeout_s: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.chain = chain
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.cache = cache
        self.upstream = Upstream(ChainUnavailable, "chain API", rate_limit_per_s, timeout_s, backoff_base_s, session)
        self.page_size = page_size
        self.max_pages = max_pages
        self.diagnostics: list[dict] = []

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
        addresses = {address.hex: address}  # these pages' rows share their Addresses
        canonical = _CANONICAL_ROW.fullmatch
        for page in range(1, self.max_pages + 1):
            rows = self._fetch_page(address, action, page)
            for row in rows:
                try:
                    values = _row_values(row, action)
                    try:
                        line = ",".join(values)
                    except TypeError:  # a JSON number, null or boolean: not canonical
                        line = ""
                    if canonical(line):
                        record = _canonical_to_record(line, self.chain, addresses)
                    else:
                        record = _row_to_record(values, self.chain)
                    if address not in (record.from_addr, record.to_addr):
                        raise ValueError(f"row {record.hash} neither sends from nor goes to {address.hex}")
                    records.append(record)
                except Exception as exc:
                    # live data is messy (contract creations have empty `to`, a
                    # misbehaving page lists another account's row); drop the
                    # row but leave a trace for the diagnostics file
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
        params = {
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
        rows, body = self.upstream.send(
            "GET", self.base_url, lambda resp: (self._parse_body(resp.content), resp.content), params=params
        )
        if self.cache is not None:
            self.cache.put(self.chain, address.hex, page_token, body)
        return rows

    def _parse_body(self, body: bytes) -> list[dict]:
        try:
            payload = json.loads(body)
        except ValueError as exc:  # not JSON, or a number past int()'s digit limit
            raise ChainUnavailable(f"unparseable upstream response: {exc}") from exc
        if not isinstance(payload, dict):
            raise ChainUnavailable(f"upstream response is a JSON {type(payload).__name__}, not an object")
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
        get("nonce") or "0",
        get("blockHash") or "",
        str(get("gas") or "0"),
        str(get("gasPrice") or "0"),
        str(get("gasUsed") or "0"),
        get("confirmations") or "0",
    ]
