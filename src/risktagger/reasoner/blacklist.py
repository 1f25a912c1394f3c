"""Known-bad address list: `address,label` per line, O(1) lookup.

Entries are matched by hex only, deliberately chain-agnostic: exploiters
reuse keypairs across EVM chains, so a label earned on one chain follows the
key everywhere.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ParseError, reading_utf8
from ..model import Address

_HEX_CHARS = set("0123456789abcdef")


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
                hex_part = raw_addr.strip().lower()
                if not (
                    hex_part.startswith("0x")
                    and len(hex_part) == 42
                    and set(hex_part[2:]) <= _HEX_CHARS
                ):
                    raise ParseError(f"{path}:{line_no}: malformed address {raw_addr!r}")
                labels[hex_part] = label.strip()
        return Blacklist(labels)

    def __contains__(self, address) -> bool:
        hex_part = address.hex if isinstance(address, Address) else str(address).lower()
        return hex_part in self._labels

    def label_of(self, address) -> str | None:
        hex_part = address.hex if isinstance(address, Address) else str(address).lower()
        return self._labels.get(hex_part)
