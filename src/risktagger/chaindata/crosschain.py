"""Bridge deposit/withdrawal matching across chains.

Detection is table-driven: a configured list of bridge endpoints per chain.
A deposit (transfer from the traced account into a bridge endpoint, or a tx
whose input carries a configured bridge marker) is matched against
withdrawals sent by the same bridge's endpoints on other chains, by token,
amount tolerance and time window. The matcher reads each endpoint's rows
once, when it is built, by address, so no whole chain is ever read; a deposit
then bisects its token's withdrawals for the time window.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import attrgetter
from pathlib import Path

from ..errors import ParseError, reading_utf8
from ..model import Address, CrossChainPair, TransactionRecord, normalize_address, normalize_chain

# A withdrawal pairs with a deposit when it is within AMOUNT_TOLERANCE_PCT
# percent of the deposited amount, compared in integers so 256-bit amounts
# stay exact, and sent no earlier than the deposit, at most an hour after it.
AMOUNT_TOLERANCE_PCT = 1
TIME_WINDOW_S = 3600
_MARKER_RE = re.compile(r"0x[0-9a-f]{8,}")
_TIMESTAMP = attrgetter("timeStamp")


class BridgeTable:
    """Configured bridge endpoints: `chain,address,bridge_name` per line.

    An `input:0x...` marker in the address column tags deposits by calldata
    prefix instead of destination address (some routers take deposits at
    per-user proxy addresses). The prefix is at least a 4-byte function
    selector: 0x and 8 or more hex digits.
    """

    def __init__(self):
        self.endpoint_bridge: dict[Address, str] = {}
        self.by_bridge_chain: dict[tuple[str, str], list[Address]] = {}
        self.input_markers: dict[str, list[tuple[str, str]]] = {}  # chain -> [(prefix, bridge)]

    @staticmethod
    def load(path: str | Path) -> "BridgeTable":
        table = BridgeTable()
        path = Path(path)
        with path.open(encoding="utf-8") as fh, reading_utf8(path):
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 3:
                    raise ParseError(f"{path}:{line_no}: expected 'chain,address,bridge_name'")
                chain, raw_addr, bridge = parts
                try:
                    chain = normalize_chain(chain)
                    if raw_addr.lower().startswith("input:"):
                        prefix = raw_addr[len("input:"):].lower()
                        if not _MARKER_RE.fullmatch(prefix):
                            raise ParseError(f"input marker {raw_addr!r} is not 0x and at least 8 hex digits")
                        table.input_markers.setdefault(chain, []).append((prefix, bridge))
                        continue
                    address = normalize_address(raw_addr, chain)
                except Exception as exc:
                    raise ParseError(f"{path}:{line_no}: {exc}") from exc
                table.endpoint_bridge[address] = bridge
                table.by_bridge_chain.setdefault((bridge, chain), []).append(address)
        return table

    def chains_of(self, bridge: str) -> list[str]:
        return sorted({chain for (b, chain) in self.by_bridge_chain if b == bridge})

    def deposit_bridge(self, tx: TransactionRecord) -> str | None:
        """Bridge name if this outgoing tx looks like a bridge deposit."""
        bridge = self.endpoint_bridge.get(tx.to_addr)
        if bridge:
            return bridge
        for prefix, name in self.input_markers.get(tx.chain, []):
            if tx.input.lower().startswith(prefix):
                return name
        return None


class BridgeMatcher:
    """CrossChainMatcherPort over a per-address record source (fixture or cache).

    `records_for` (Address -> the records touching it) is called once per
    endpoint, here; matching reads only what this builds, so threads may
    expand at once.
    """

    def __init__(self, table: BridgeTable, records_for):
        self.table = table
        self.diagnostics: list[dict] = []
        # (bridge, chain, tokenSymbol) -> successful withdrawals sent by the
        # bridge's endpoints on the chain, sorted by (timeStamp, hash); rows
        # tied on both keep table endpoint order
        self._withdrawals: dict[tuple[str, str, str], list[TransactionRecord]] = {}
        for (bridge, chain), endpoints in table.by_bridge_chain.items():
            for endpoint in dict.fromkeys(endpoints):
                for r in records_for(endpoint):
                    if r.from_addr == endpoint and not r.isError:
                        self._withdrawals.setdefault((bridge, chain, r.tokenSymbol), []).append(r)
        for rows in self._withdrawals.values():
            rows.sort(key=lambda r: (r.timeStamp, r.hash))

    def expand(self, address: Address, txs: list[TransactionRecord]) -> list[CrossChainPair]:
        pairs = []
        for tx in txs:
            if tx.from_addr != address or tx.isError:
                continue
            bridge = self.table.deposit_bridge(tx)
            if bridge is None:
                continue
            matched = self._match_withdrawals(tx, bridge)
            if matched:
                pairs.extend(matched)
            else:
                self.diagnostics.append(
                    {
                        "kind": "unmatched_deposit",
                        "address": address.hex,
                        "chain": address.chain,
                        "tx": tx.hash,
                        "bridge": bridge,
                    }
                )
        return pairs

    def _match_withdrawals(self, deposit: TransactionRecord, bridge: str) -> list[CrossChainPair]:
        out = []
        for dst_chain in self.table.chains_of(bridge):
            if dst_chain == deposit.chain:
                continue
            rows = self._withdrawals.get((bridge, dst_chain, deposit.tokenSymbol), [])
            lo = bisect_left(rows, deposit.timeStamp, key=_TIMESTAMP)
            hi = bisect_right(rows, deposit.timeStamp + TIME_WINDOW_S, lo, key=_TIMESTAMP)
            for wd in rows[lo:hi]:
                if 100 * abs(wd.value - deposit.value) > AMOUNT_TOLERANCE_PCT * deposit.value:
                    continue
                out.append(CrossChainPair(src_tx=deposit, dst_tx=wd, bridge_hint=bridge))
        return out
