"""Bridge deposit/withdrawal matching across chains.

Detection is table-driven: a configured list of bridge endpoints per chain.
A deposit (transfer from the traced account into a bridge endpoint, or a tx
whose input carries a configured bridge marker) is matched against
withdrawals sent by the same bridge's endpoints on other chains, by token,
amount tolerance and time window. Matching is brute force over the rows of
those endpoints, fetched per address, so no whole chain is ever read.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

from ..errors import ParseError
from ..model import Address, CrossChainPair, TransactionRecord, normalize_address, normalize_chain

# A withdrawal pairs with a deposit when it is within 1% of the deposited
# amount (Decimal keeps the product exact for 10^24-scale smallest-unit
# amounts) and sent no earlier than the deposit, at most an hour after it.
AMOUNT_TOLERANCE = Decimal("0.01")
TIME_WINDOW_S = 3600


class BridgeTable:
    """Configured bridge endpoints: `chain,address,bridge_name` per line.

    An `input:0x...` marker in the address column tags deposits by calldata
    prefix instead of destination address (some routers take deposits at
    per-user proxy addresses).
    """

    def __init__(self):
        self.endpoint_bridge: dict[Address, str] = {}
        self.by_bridge_chain: dict[tuple[str, str], list[Address]] = {}
        self.input_markers: dict[str, list[tuple[str, str]]] = {}  # chain -> [(prefix, bridge)]

    @staticmethod
    def load(path: str | Path) -> "BridgeTable":
        table = BridgeTable()
        path = Path(path)
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ParseError(f"{path}:{line_no}: expected 'chain,address,bridge_name'")
            chain, raw_addr, bridge = parts
            chain = normalize_chain(chain)
            if raw_addr.lower().startswith("input:"):
                prefix = raw_addr[len("input:"):].lower()
                table.input_markers.setdefault(chain, []).append((prefix, bridge))
                continue
            try:
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
    """CrossChainMatcherPort over a per-address record source (fixture or cache)."""

    def __init__(self, table: BridgeTable, records_for):
        self.table = table
        self.records_for = records_for  # callable: Address -> list[TransactionRecord] touching it
        self.diagnostics: list[dict] = []

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
            # table order, so rows tied on (timeStamp, hash) keep one order
            endpoints = dict.fromkeys(self.table.by_bridge_chain.get((bridge, dst_chain), []))
            candidates = [
                r
                for endpoint in endpoints
                for r in self.records_for(endpoint)
                if r.from_addr == endpoint and not r.isError and r.tokenSymbol == deposit.tokenSymbol
            ]
            candidates.sort(key=lambda r: (r.timeStamp, r.hash))
            for wd in candidates:
                delta = wd.timeStamp - deposit.timeStamp
                if not 0 <= delta <= TIME_WINDOW_S:
                    continue
                if abs(wd.value_int - deposit.value_int) > AMOUNT_TOLERANCE * deposit.value_int:
                    continue
                out.append(
                    CrossChainPair(
                        src_tx=deposit,
                        dst_tx=wd,
                        token=deposit.tokenSymbol or "native",
                        amount_src=deposit.value,
                        amount_dst=wd.value,
                        time_delta_s=delta,
                        bridge_hint=bridge,
                    )
                )
        return out
