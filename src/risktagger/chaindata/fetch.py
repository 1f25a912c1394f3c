"""Row decoding and record ordering shared by all adapters.

A row is the 16 fields of one transfer in FIXTURE_COLUMNS order, whether it
comes from a fixture CSV or an explorer's JSON; _row_to_record normalizes or
refuses each field.
"""

from __future__ import annotations

from ..model import TransactionRecord, normalize_address

# Canonical header, exact names and order. Header drift is a hard error:
# silently remapping columns is how value/gas swaps slip into datasets.
FIXTURE_COLUMNS = (
    "hash",
    "from",
    "to",
    "value",
    "timeStamp",
    "blockNumber",
    "tokenSymbol",
    "contractAddress",
    "isError",
    "input",
    "nonce",
    "blockHash",
    "gas",
    "gasPrice",
    "gasUsed",
    "confirmations",
)


def _row_to_record(values: list, chain: str) -> TransactionRecord:
    """The checked builder: strips, normalizes and validates every field."""
    (tx_hash, src, dst, value, ts, block, token, contract, is_error,
     data, nonce, block_hash, gas, gas_price, gas_used, confirmations) = values
    contract = contract.strip()
    return TransactionRecord(
        hash=tx_hash,
        from_addr=normalize_address(src, chain),
        to_addr=normalize_address(dst, chain),
        value=value.strip(),
        timeStamp=int(ts),
        blockNumber=int(block),
        tokenSymbol=token.strip(),
        contractAddress=normalize_address(contract, chain) if contract else None,
        isError=is_error.strip() == "1",
        input=data.strip() or "0x",
        nonce=int(nonce),
        blockHash=block_hash.strip(),
        gas=gas.strip(),
        gasPrice=gas_price.strip(),
        gasUsed=gas_used.strip(),
        confirmations=int(confirmations),
    )


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
