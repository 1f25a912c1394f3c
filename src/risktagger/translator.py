"""Turns a fetched account graph into a bounded, model-readable subgraph.

Retention keeps the k most informative transfers by a weighted value/recency
score while statistics always cover the full fetched set, so truncation never
distorts counts or totals. Amounts are the records' ints (wei values exceed
64-bit and must never pass through float) until the payload writes them as
decimal text. An asset is keyed by the record's tokenSymbol ("" for the
native coin) everywhere, and asset_label alone names it in the payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .model import Address, CrossChainPair, TracerConfig, TransactionRecord

PAYLOAD_VERSION = 1

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
    `<symbol> (token)` for a token named like the native coin."""
    native = NATIVE_SYMBOLS.get(chain, "native")
    if token_symbol == native:
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


# the string encoder json.dumps(ensure_ascii=False) uses, in C where available
_str = json.encoder.encode_basestring


def to_reasoner_payload(sub: AccountSubgraph) -> str:
    """The payload the analyst prompt embeds, as JSON text.

    The text is byte for byte what json.dumps(indent=2, ensure_ascii=False)
    writes for these objects and keys, in this order; the key order is part
    of the contract. indent=2 would put json on its pure-Python encoder, so
    each object is one concatenation instead.
    """
    chain, stats = sub.center.chain, sub.stats
    return (
        '{\n  "payload_version": ' + str(PAYLOAD_VERSION)
        + ',\n  "target_address": {\n    "hex": ' + _str(sub.center.hex)
        + ',\n    "chain": ' + _str(chain)
        + '\n  },\n  "statistics": {\n    "in_count": ' + str(stats.in_count)
        + ',\n    "out_count": ' + str(stats.out_count)
        + ',\n    "in_total": ' + _totals_json(stats.in_total, chain)
        + ',\n    "out_total": ' + _totals_json(stats.out_total, chain)
        + ',\n    "first_seen": ' + (_str(_iso(stats.first_seen)) if stats.first_seen else "null")
        + ',\n    "last_seen": ' + (_str(_iso(stats.last_seen)) if stats.last_seen else "null")
        + ',\n    "distinct_counterparties_in": ' + str(stats.distinct_counterparties_in)
        + ',\n    "distinct_counterparties_out": ' + str(stats.distinct_counterparties_out)
        + ',\n    "tx_per_day_mean": ' + repr(round(stats.tx_per_day_mean, 6))
        + ',\n    "max_burst_1h": ' + str(stats.max_burst_1h)
        + ',\n    "total_tx_count": ' + str(sub.total_tx_count)
        + ',\n    "retained_tx_count": ' + str(len(sub.retained_txs))
        + ',\n    "truncated": ' + ("true" if sub.truncated else "false")
        + '\n  },\n  "transactions": ' + _rows_json(sub.retained_txs, _tx_json)
        + ',\n  "cross_chain": ' + _rows_json(sub.cross_chain, _pair_json)
        + "\n}"
    )


def _totals_json(totals: dict, chain: str) -> str:
    """Totals keyed by asset_label, in the stats' order."""
    if not totals:
        return "{}"
    shown = [
        f"      {_str(asset_label(symbol, chain))}: {_str(display_amount(value, symbol, chain))}"
        for symbol, value in totals.items()
    ]
    return "{\n" + ",\n".join(shown) + "\n    }"


def _rows_json(rows: list, row_json) -> str:
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(map(row_json, rows)) + "\n  ]"


def _tx_json(tx: TransactionRecord) -> str:
    return (
        '    {\n      "hash": ' + _str(tx.hash)
        + ',\n      "from": ' + _str(tx.from_addr.hex)
        + ',\n      "to": ' + _str(tx.to_addr.hex)
        + ',\n      "value": ' + _str(display_amount(tx.value, tx.tokenSymbol, tx.chain))
        + ',\n      "tokenSymbol": ' + _str(asset_label(tx.tokenSymbol, tx.chain))
        + ',\n      "timeStamp": ' + _str(_iso(tx.timeStamp))
        + ',\n      "isError": ' + ("true" if tx.isError else "false")
        + "\n    }"
    )


def _pair_json(p: CrossChainPair) -> str:
    src, dst = p.src_tx, p.dst_tx
    return (
        '    {\n      "src_hash": ' + _str(src.hash)
        + ',\n      "dst_hash": ' + _str(dst.hash)
        + ',\n      "src_chain": ' + _str(src.chain)
        + ',\n      "dst_chain": ' + _str(dst.chain)
        + ',\n      "dst_to": ' + _str(dst.to_addr.hex)
        + ',\n      "token": ' + _str(asset_label(src.tokenSymbol, src.chain))
        + ',\n      "amount_src": ' + _str(display_amount(src.value, src.tokenSymbol, src.chain))
        + ',\n      "amount_dst": ' + _str(display_amount(dst.value, dst.tokenSymbol, dst.chain))
        + ',\n      "time_delta_s": ' + str(dst.timeStamp - src.timeStamp)
        + ',\n      "bridge_hint": ' + _str(p.bridge_hint)
        + "\n    }"
    )
