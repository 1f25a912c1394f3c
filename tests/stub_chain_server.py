"""In-process HTTP stub speaking the account-endpoint REST dialect.

Serves canned rows keyed by (address, action, page), counts and timestamps
every request it answers, and can be scripted to fail first, with a
Retry-After header on its 429s. A page is "RATE_LIMIT" to report the
explorer's rate limit in a 200 body on every request, or a LimitedFirst to
report it on its first requests only, or bytes to be the body as it is. Used
by the adapter tests and the cache-soundness acceptance check.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


def native_row(n, src_hex, dst_hex, value="1000000000000000000", ts=1_740_000_000, block=100):
    return {
        "blockNumber": str(block),
        "timeStamp": str(ts),
        "hash": "0x" + format(n, "x").rjust(64, "a"),
        "nonce": "1",
        "blockHash": "0x" + format(block, "x").rjust(64, "b"),
        "from": src_hex,
        "to": dst_hex,
        "value": value,
        "gas": "21000",
        "gasPrice": "30000000000",
        "isError": "0",
        "input": "0x",
        "contractAddress": "",
        "gasUsed": "21000",
        "confirmations": "12",
    }


def token_row(n, src_hex, dst_hex, symbol, value, ts=1_740_000_000, block=100, contract=None):
    row = native_row(n, src_hex, dst_hex, value, ts, block)
    row["tokenSymbol"] = symbol
    row["tokenName"] = symbol
    row["tokenDecimal"] = "18"
    row["contractAddress"] = contract or "0x" + "c" * 40
    row.pop("isError", None)
    return row


class LimitedFirst:
    """A page whose first `times` requests draw the in-body rate limit; later
    ones are served `rows`."""

    def __init__(self, times: int, rows: list):
        self.times = times
        self.rows = rows


class StubChainServer:
    def __init__(self, pages: dict | None = None, fail_first: list | None = None, retry_after: str | None = None):
        # pages: (address_hex, action, page_number) -> list of row dicts
        self.pages = pages or {}
        self.fail_first = list(fail_first or [])  # queue of status codes to emit before serving
        self.retry_after = retry_after  # Retry-After header value for scripted 429s
        self.request_count = 0
        self.requests: list[dict] = []
        self.request_times: list[float] = []  # time.monotonic() at each arrival
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                arrived = time.monotonic()
                parsed = urlparse(self.path)
                params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                with outer._lock:
                    outer.request_count += 1
                    outer.requests.append(params)
                    outer.request_times.append(arrived)
                    pending_failure = outer.fail_first.pop(0) if outer.fail_first else None
                if pending_failure is not None:
                    self.send_response(pending_failure)
                    if pending_failure == 429 and outer.retry_after is not None:
                        self.send_header("Retry-After", outer.retry_after)
                    self.end_headers()
                    self.wfile.write(b"scripted failure")
                    return
                key = (
                    params.get("address", "").lower(),
                    params.get("action", ""),
                    int(params.get("page", "1")),
                )
                rows = outer.pages.get(key, [])
                if isinstance(rows, LimitedFirst):
                    with outer._lock:
                        limited, rows.times = rows.times > 0, rows.times - 1
                    rows = "RATE_LIMIT" if limited else rows.rows
                if isinstance(rows, bytes):
                    payload = rows
                else:
                    if rows == "RATE_LIMIT":
                        body = {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"}
                    elif rows:
                        body = {"status": "1", "message": "OK", "result": rows}
                    else:
                        body = {"status": "0", "message": "No transactions found", "result": []}
                    payload = json.dumps(body).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/api"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        return False
