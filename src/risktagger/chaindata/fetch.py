"""Row decoding and record ordering shared by all adapters.

A row is the 16 fields of one transfer in FIXTURE_COLUMNS order, whether it
comes from a fixture CSV or an explorer's JSON; _row_to_record normalizes or
refuses each field, and keeps the ten that the pipeline reads, the value
parsed to the int a record holds.
"""

from __future__ import annotations

from ..model import TransactionRecord, _require_digits, normalize_address

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
    """The checked builder: strips, normalizes and validates every field.
    The last six are checked, then dropped, as nothing reads them."""
    (tx_hash, src, dst, value, ts, block, token, contract, is_error,
     data, nonce, block_hash, gas, gas_price, gas_used, confirmations) = values
    for name, count in (("nonce", nonce), ("confirmations", confirmations)):
        if int(count) < 0:
            raise ValueError(f"{name} must be non-negative, got {count!r}")
    if not isinstance(block_hash, str):
        raise ValueError(f"blockHash must be a string, got {block_hash!r}")
    for name, digits in (("gas", gas), ("gasPrice", gas_price), ("gasUsed", gas_used)):
        _require_digits(name, digits.strip())
    digits = value.strip()
    _require_digits("value", digits)
    digits = digits.lstrip("0") or "0"
    if len(digits) > 78:  # no amount below 2**256 has more; the record checks the rest
        raise ValueError(f"value has {len(digits)} digits, more than any amount below 2**256")
    contract = contract.strip()
    return TransactionRecord(
        hash=tx_hash,
        from_addr=normalize_address(src, chain),
        to_addr=normalize_address(dst, chain),
        value=int(digits),
        timeStamp=int(ts),
        blockNumber=int(block),
        tokenSymbol=token.strip(),
        contractAddress=normalize_address(contract, chain) if contract else None,
        isError=is_error.strip() == "1",
        input=data.strip() or "0x",
    )


def dedup_and_sort(records: list[TransactionRecord]) -> list[TransactionRecord]:
    """Collapse duplicate rows, then order by (blockNumber, hash) ascending.

    Only rows equal in every field collapse (first occurrence wins): one
    transaction can carry a native and a token transfer, or two transfers of
    one token between the same parties, and each is kept.
    """
    seen = set()
    out = []
    for rec in records:
        if rec in seen:
            continue
        seen.add(rec)
        out.append(rec)
    out.sort(key=lambda r: (r.blockNumber, r.hash))
    return out
