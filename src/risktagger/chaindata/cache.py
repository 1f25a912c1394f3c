"""On-disk fetch cache keyed by (chain, address, page token).

A key, once written, is never re-fetched in the same run and a second run
against a warm cache issues zero upstream requests, so it never needs an
HTTP client. Each write goes to its own temp file beside the page and is
renamed into place, so a crash or a concurrent writer, in this process or in
another sharing the directory, never leaves a torn page behind. The hit and
miss counters are shared by the tracer's worker threads, so they are locked.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path


class FetchCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def path_for(self, chain: str, address_hex: str, page_token: str) -> Path:
        return self.root / chain / address_hex / f"{page_token}.json"

    def get(self, chain: str, address_hex: str, page_token: str) -> bytes | None:
        path = self.path_for(chain, address_hex, page_token)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            with self._count_lock:
                self.misses += 1
            return None
        with self._count_lock:
            self.hits += 1
        return payload

    def put(self, chain: str, address_hex: str, page_token: str, payload: bytes) -> None:
        path = self.path_for(chain, address_hex, page_token)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=page_token, dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
