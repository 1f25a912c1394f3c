"""Row decoding and record ordering shared by all adapters.

A row is the 16 fields of one transfer in FIXTURE_COLUMNS order, whether it
comes from a fixture CSV or an explorer's JSON. A row already in canonical
form, its fields joined by commas as a fixture line holds them, matches
_CANONICAL_ROW once and _canonical_to_record builds it without checking a
field again; both adapters take that path. Any other row goes through the
checked builder, _row_to_record, which normalizes or refuses each field.
Both keep the ten fields that the pipeline reads, the value parsed to the
int a record holds, and build equal records from a canonical row.
"""

from __future__ import annotations

import csv
import re
from operator import attrgetter

from ..model import Address, TransactionRecord, _require_digits, normalize_address

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

# Fields no longer than csv allows; longer ones take the checked path, where
# csv refuses them in a fixture as before.
_LIMIT = csv.field_size_limit()
# Free text that strip() leaves as is and csv reads verbatim: no edge
# whitespace and no quote, comma or line break.
_TEXT = r'(?:[^\s",](?:[^",\r\n]{0,%d}[^\s",])?)?' % (_LIMIT - 2)
_DIGITS = "[0-9]{1,%d}" % _LIMIT
_INT = "[0-9]{1,18}"  # within int()'s digit limit; longer numbers take the checked path
# Every 77-digit amount is below 2**256; longer ones take the checked path,
# which refuses those at or above it.
_VALUE = "[0-9]{1,77}"
# A row that _row_to_record accepts without changing a field: lowercase hex,
# bare digits, a positive timeStamp, no quotes. Hash and addresses have fixed
# widths, so the sender and receiver sit at fixed offsets (_FROM, _TO).
_CANONICAL_ROW = re.compile(
    ",".join(
        [
            "0x[0-9a-f]{64}",  # hash
            "0x[0-9a-f]{40}",  # from
            "0x[0-9a-f]{40}",  # to
            _VALUE,  # value
            "[1-9][0-9]{0,17}",  # timeStamp
            _INT,  # blockNumber
            _TEXT,  # tokenSymbol
            "(?:0x[0-9a-f]{40})?",  # contractAddress
            _TEXT,  # isError
            _TEXT,  # input
            _INT,  # nonce
            _TEXT,  # blockHash
            _DIGITS,  # gas
            _DIGITS,  # gasPrice
            _DIGITS,  # gasUsed
            _INT,  # confirmations
        ]
    )
    + r"(?:\r\n|\r|\n)?"
)
_FROM = slice(67, 109)
_TO = slice(110, 152)


def _canonical_to_record(line: str, chain: str, addresses: dict[str, Address]) -> TransactionRecord:
    """The record of a row that matched _CANONICAL_ROW, equal to what
    _row_to_record builds from its fields, without checking them again. The
    match has checked the six columns a record drops. Each address comes
    from `addresses` (hex -> Address on `chain`), which gains any it lacks."""
    (tx_hash, src, dst, value, ts, block, token, contract, is_error,
     data, *_unread) = line.split(",")

    def address(hex_: str) -> Address:
        found = addresses.get(hex_)
        return found if found is not None else addresses.setdefault(hex_, Address(hex_, chain))

    return TransactionRecord.prechecked({
        "hash": tx_hash,
        "from_addr": address(src),
        "to_addr": address(dst),
        "value": int(value),
        "timeStamp": int(ts),
        "blockNumber": int(block),
        "tokenSymbol": token,
        "contractAddress": address(contract) if contract else None,
        "isError": is_error == "1",
        "input": data or "0x",
    })


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
    out = list(dict.fromkeys(records))  # a dict keeps the first of equal keys
    out.sort(key=attrgetter("blockNumber", "hash"))
    return out
