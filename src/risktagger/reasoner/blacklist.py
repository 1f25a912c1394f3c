"""Known-bad address list: `address,label` per line, O(1) lookup.

Entries are matched by hex only, deliberately chain-agnostic: exploiters
reuse keypairs across EVM chains, so a label earned on one chain follows the
key everywhere.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import MalformedAddress, ParseError, reading_utf8
from ..model import normalize_hex


class Blacklist:
    def __init__(self, entries: dict | None = None):
        self._labels: dict[str, str] = dict(entries or {})

    @staticmethod
    def load(path: str | Path) -> "Blacklist":
        labels = {}
        path = Path(path)
        with path.open(encoding="utf-8") as fh, reading_utf8(path):
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                raw_addr, sep, label = line.partition(",")
                if not sep:
                    raise ParseError(f"{path}:{line_no}: expected 'address,label'")
                try:
                    labels[normalize_hex(raw_addr)] = label.strip()
                except MalformedAddress as exc:
                    raise ParseError(f"{path}:{line_no}: malformed {exc}") from exc
        return Blacklist(labels)

    def __contains__(self, hex_: str) -> bool:
        """Whether a lowercase 0x-hex address is listed."""
        return hex_ in self._labels

    def label_of(self, hex_: str) -> str | None:
        return self._labels.get(hex_)
