"""Account-graph fetch: dedup and canonical ordering shared by all adapters."""

from __future__ import annotations

from ..model import TransactionRecord


def dedup_and_sort(records: list[TransactionRecord]) -> list[TransactionRecord]:
    """Collapse duplicate rows, then order by (blockNumber, hash) ascending.

    The dedup key keeps one row per asset movement: the same hash can
    legitimately carry a native transfer plus a token transfer, but two rows
    identical in hash and direction collapse to one (first occurrence wins).
    """
    seen = set()
    out = []
    for rec in records:
        key = (
            rec.hash,
            rec.from_addr,
            rec.to_addr,
            rec.tokenSymbol,
            rec.contractAddress.hex if rec.contractAddress else "",
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(rec)
    out.sort(key=lambda r: (r.blockNumber, r.hash))
    return out
