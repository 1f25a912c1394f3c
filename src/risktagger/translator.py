"""Turns a fetched account graph into a bounded, model-readable subgraph.

Retention keeps the k most informative transfers by a weighted value/recency
score while statistics always cover the full fetched set, so truncation never
distorts counts or totals. Amounts are the records' ints (wei values exceed
64-bit and must never pass through float) until the payload writes them as
decimal text. An asset is keyed by the record's tokenSymbol ("" for the
native coin) everywhere, and asset_label alone names it in the payload.

The payload (PAYLOAD_VERSION 3) is compact JSON: the target, the full-set
statistics, then the retained transfers and the cross-chain pairs as tables,
each a `columns` header and one list of cells per row. Every amount is
decimal text ending in its asset_label, so no row names its asset apart;
times are ISO 8601 in UTC. Every transfer touches the target, so a transfer
row names only the other party: its `direction` (`in`, `out`, or `self` for
a transfer from the target to itself) and its `counterparty` (`""` for
`self`). The target's address appears once, in `target_address`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .model import Address, CrossChainPair, TracerConfig, TransactionRecord

PAYLOAD_VERSION = 3

# Display-unit tables; unknown symbols fall back to raw smallest units.
DEFAULT_DECIMALS = {
    "ETH": 18,
    "WETH": 18,
    "stETH": 18,
    "mETH": 18,
    "cmETH": 18,
    "BNB": 18,
    "MATIC": 18,
}
NATIVE_SYMBOLS = {"ethereum": "ETH", "bsc": "BNB", "polygon": "MATIC"}


@dataclass(frozen=True)
class AccountStats:
    """Full-set statistics for one account (failed txs count, but move no value).

    in_count and out_count count transfer rows; tx_per_day_mean and
    max_burst_1h count transactions, as one transaction's native and token
    rows share a hash."""

    in_count: int
    out_count: int
    in_total: dict  # tokenSymbol -> int sum, native ("") first
    out_total: dict
    first_seen: int
    last_seen: int
    distinct_counterparties_in: int
    distinct_counterparties_out: int
    tx_per_day_mean: float
    max_burst_1h: int


@dataclass
class AccountSubgraph:
    center: Address
    retained_txs: list[TransactionRecord]
    cross_chain: list[CrossChainPair]
    stats: AccountStats
    truncated: bool
    total_tx_count: int
    # receiver -> (value moved, latest ts): outgoing retained transfers in
    # retained order, then cross-chain landings; the center itself never
    out_flows: dict[Address, tuple[int, int]]


def compute_stats(center: Address, txs: list[TransactionRecord]) -> AccountStats:
    in_count = out_count = 0
    in_total: dict[str, int] = {}
    out_total: dict[str, int] = {}
    senders = set()
    receivers = set()
    tx_times = sorted({t.hash: t.timeStamp for t in txs}.values())  # one per transaction
    for tx in txs:
        incoming = tx.to_addr == center
        outgoing = tx.from_addr == center
        if incoming:
            in_count += 1
            if tx.from_addr != center:
                senders.add(tx.from_addr)
            if not tx.isError:
                in_total[tx.tokenSymbol] = in_total.get(tx.tokenSymbol, 0) + tx.value
        if outgoing:
            out_count += 1
            if tx.to_addr != center:
                receivers.add(tx.to_addr)
            if not tx.isError:
                out_total[tx.tokenSymbol] = out_total.get(tx.tokenSymbol, 0) + tx.value
    span_s = tx_times[-1] - tx_times[0] if tx_times else 0
    if not tx_times:
        per_day = 0.0
    elif span_s == 0:
        per_day = float(len(tx_times))  # all activity inside a single day bucket
    else:
        per_day = len(tx_times) / (span_s / 86400.0)
    return AccountStats(
        in_count=in_count,
        out_count=out_count,
        in_total=dict(sorted(in_total.items())),
        out_total=dict(sorted(out_total.items())),
        first_seen=min((t.timeStamp for t in txs), default=0),
        last_seen=max((t.timeStamp for t in txs), default=0),
        distinct_counterparties_in=len(senders),
        distinct_counterparties_out=len(receivers),
        tx_per_day_mean=per_day,
        max_burst_1h=max_burst(tx_times, 3600),
    )


def max_burst(sorted_timestamps: list[int], window_s: int) -> int:
    """Most transactions inside any window of `window_s` seconds (inclusive)."""
    best = 0
    lo = 0
    for hi, ts in enumerate(sorted_timestamps):
        while ts - sorted_timestamps[lo] > window_s:
            lo += 1
        best = max(best, hi - lo + 1)
    return best


def score_transactions(
    txs: list[TransactionRecord], now: int, value_weight: float, recency_weight: float
) -> list[float]:
    """score(tx) = value_weight * vnorm + recency_weight * rnorm, one per tx in order.

    vnorm normalizes against the max value of the same token in the full set;
    rnorm is linear recency against the oldest tx (degenerate spans score 1.0).
    """
    if not txs:
        return []
    max_by_token: dict[str, int] = {}
    for tx in txs:
        max_by_token[tx.tokenSymbol] = max(max_by_token.get(tx.tokenSymbol, 0), tx.value)
    oldest = min(t.timeStamp for t in txs)
    span = now - oldest
    scores = []
    for tx in txs:
        token_max = max_by_token[tx.tokenSymbol]
        vnorm = tx.value / token_max if token_max > 0 else 0.0
        rnorm = 1.0 if span <= 0 else 1.0 - (now - tx.timeStamp) / span
        scores.append(value_weight * vnorm + recency_weight * rnorm)
    return scores


def build_subgraph(
    center: Address,
    txs: list[TransactionRecord],
    pairs: list[CrossChainPair],
    cfg: TracerConfig,
    now: int,
) -> AccountSubgraph:
    stats = compute_stats(center, txs)
    scores = score_transactions(txs, now, cfg.value_weight, cfg.recency_weight)
    ranked = sorted(range(len(txs)), key=lambda i: (-scores[i], txs[i].hash))
    retained = [txs[i] for i in ranked[: cfg.k]]
    out_flows: dict[Address, tuple[int, int]] = {}
    for tx in retained:
        if tx.from_addr == center and tx.to_addr != center:
            # a failed transfer still names its receiver but moves no value
            value, ts = out_flows.get(tx.to_addr, (0, tx.timeStamp))
            moved = 0 if tx.isError else tx.value
            out_flows[tx.to_addr] = (value + moved, max(ts, tx.timeStamp))
    for pair in pairs:
        dst = pair.dst_tx.to_addr
        if dst != center:
            value, ts = out_flows.get(dst, (0, pair.dst_tx.timeStamp))
            out_flows[dst] = (value + pair.dst_tx.value, max(ts, pair.dst_tx.timeStamp))
    return AccountSubgraph(
        center=center,
        retained_txs=retained,
        cross_chain=list(pairs),
        stats=stats,
        truncated=len(txs) > cfg.k,
        total_tx_count=len(txs),
        out_flows=out_flows,
    )


def scaled_amount(value: str, decimals: int) -> str:
    """Exact decimal-point shift on an integer string; no float anywhere."""
    if decimals == 0:
        return value
    value = value.rjust(decimals + 1, "0")
    whole, frac = value[:-decimals], value[-decimals:]
    frac = frac.rstrip("0") or "0"
    return f"{whole}.{frac}"


def asset_label(token_symbol: str, chain: str) -> str:
    """The payload's name for an asset: the chain's native symbol for the
    native coin (`native` on a chain without one), a token's own symbol, and
    `<symbol> (token)` for a token named like the native coin or ending in
    ` (token)`, so no two assets share a name."""
    native = NATIVE_SYMBOLS.get(chain, "native")
    if token_symbol == native or token_symbol.endswith(" (token)"):
        return f"{token_symbol} (token)"
    return token_symbol or native


def display_amount(value: int, token_symbol: str, chain: str) -> str:
    label = asset_label(token_symbol, chain)
    d = DEFAULT_DECIMALS.get(token_symbol or NATIVE_SYMBOLS.get(chain, ""))
    if d is None:
        return f"{value} (raw) {label}"
    return f"{scaled_amount(str(value), d)} {label}"


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


TX_COLUMNS = ("hash", "direction", "counterparty", "value", "timeStamp", "isError")
DIRECTIONS = ("in", "out", "self")
PAIR_COLUMNS = (
    "src_hash", "dst_hash", "src_chain", "dst_chain", "dst_to", "token",
    "amount_src", "amount_dst", "time_delta_s", "bridge_hint",
)


def to_reasoner_payload(sub: AccountSubgraph) -> str:
    """The payload the analyst prompt embeds, as compact JSON text; the key
    order is part of the contract."""
    chain, stats = sub.center.chain, sub.stats
    payload = {
        "payload_version": PAYLOAD_VERSION,
        "target_address": {"hex": sub.center.hex, "chain": chain},
        "statistics": {
            "in_count": stats.in_count,
            "out_count": stats.out_count,
            "in_total": _totals(stats.in_total, chain),
            "out_total": _totals(stats.out_total, chain),
            "first_seen": _iso(stats.first_seen) if stats.first_seen else None,
            "last_seen": _iso(stats.last_seen) if stats.last_seen else None,
            "distinct_counterparties_in": stats.distinct_counterparties_in,
            "distinct_counterparties_out": stats.distinct_counterparties_out,
            "tx_per_day_mean": round(stats.tx_per_day_mean, 6),
            "max_burst_1h": stats.max_burst_1h,
            "total_tx_count": sub.total_tx_count,
            "retained_tx_count": len(sub.retained_txs),
            "truncated": sub.truncated,
        },
        "transactions": {"columns": TX_COLUMNS, "rows": [_tx_row(tx, sub.center) for tx in sub.retained_txs]},
        "cross_chain": {"columns": PAIR_COLUMNS, "rows": [_pair_row(p) for p in sub.cross_chain]},
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def _totals(totals: dict, chain: str) -> dict:
    """Totals keyed by asset_label, in the stats' order."""
    return {asset_label(symbol, chain): display_amount(value, symbol, chain) for symbol, value in totals.items()}


def _tx_row(tx: TransactionRecord, center: Address) -> list:
    """A retained transfer seen from the center, which is its `from`, its
    `to` or both (the adapters keep no other row)."""
    if tx.from_addr != center:
        direction, counterparty = "in", tx.from_addr.hex
    elif tx.to_addr != center:
        direction, counterparty = "out", tx.to_addr.hex
    else:
        direction, counterparty = "self", ""
    return [
        tx.hash, direction, counterparty, display_amount(tx.value, tx.tokenSymbol, tx.chain),
        _iso(tx.timeStamp), tx.isError,
    ]


def _pair_row(p: CrossChainPair) -> list:
    src, dst = p.src_tx, p.dst_tx
    return [
        src.hash, dst.hash, src.chain, dst.chain, dst.to_addr.hex, asset_label(src.tokenSymbol, src.chain),
        display_amount(src.value, src.tokenSymbol, src.chain), display_amount(dst.value, dst.tokenSymbol, dst.chain),
        dst.timeStamp - src.timeStamp, p.bridge_hint,
    ]
