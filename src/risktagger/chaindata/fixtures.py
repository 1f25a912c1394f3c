"""CSV fixture replay: one `<chain>.csv` per chain, crawler column schema.

Loading checks every row but builds nothing: a row already in canonical form
is kept as its raw line and becomes a TransactionRecord only when an account
touching it is first fetched. Any other row is checked and built at load, so
a bad row fails the load with its line number whether or not a trace would
ever reach it.
"""

from __future__ import annotations

import csv
import itertools
import re
from pathlib import Path

from ..errors import MalformedAddress, ParseError, SchemaMismatch, UnknownChain
from ..model import Address, TransactionRecord, normalize_chain
from .fetch import FIXTURE_COLUMNS, _row_to_record, dedup_and_sort

# Fields no longer than csv allows; longer ones take the checked path, where
# csv refuses them as before.
_LIMIT = csv.field_size_limit()
# Free text that strip() leaves as is and csv reads verbatim: no edge
# whitespace and no quote, comma or line break.
_TEXT = r'(?:[^\s",](?:[^",\r\n]{0,%d}[^\s",])?)?' % (_LIMIT - 2)
_DIGITS = "[0-9]{1,%d}" % _LIMIT
_INT = "[0-9]{1,18}"  # within int()'s digit limit; longer numbers take the checked path
# A line that _row_to_record accepts without changing a field: lowercase hex,
# bare digits, a positive timeStamp, no quotes. Hash and addresses have fixed
# widths, so the sender and receiver sit at fixed offsets (_FROM, _TO).
_CANONICAL_ROW = re.compile(
    ",".join(
        [
            "0x[0-9a-f]{64}",  # hash
            "0x[0-9a-f]{40}",  # from
            "0x[0-9a-f]{40}",  # to
            _DIGITS,  # value
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
    """The record of a line that matched _CANONICAL_ROW, equal to what
    _row_to_record builds from it, without checking its fields again."""
    (tx_hash, src, dst, value, ts, block, token, contract, is_error,
     data, nonce, block_hash, gas, gas_price, gas_used, confirmations) = line.split(",")

    def address(hex_: str) -> Address:
        found = addresses.get(hex_)
        return found if found is not None else addresses.setdefault(hex_, Address(hex_, chain))

    return TransactionRecord.prechecked(
        hash=tx_hash,
        from_addr=address(src),
        to_addr=address(dst),
        value=value,
        timeStamp=int(ts),
        blockNumber=int(block),
        tokenSymbol=token,
        contractAddress=address(contract) if contract else None,
        isError=is_error == "1",
        input=data or "0x",
        nonce=int(nonce),
        blockHash=block_hash,
        gas=gas,
        gasPrice=gas_price,
        gasUsed=gas_used,
        confirmations=int(confirmations),  # int() drops the line ending
    )


def load_rows(path: str | Path, chain: str) -> list:
    """Every row of one per-chain fixture CSV, checked: the raw line of a
    canonical row, the TransactionRecord of any other. Line numbers in errors
    count CSV records, the header being line 1."""
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open fixture {path}: {exc}") from exc
    with fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise SchemaMismatch(f"{path}: empty fixture file, expected header row")
        if tuple(h.strip() for h in header) != FIXTURE_COLUMNS:
            raise SchemaMismatch(
                f"{path}: header mismatch: got {header!r}, expected {list(FIXTURE_COLUMNS)!r}"
            )
        rows = []
        canonical = _CANONICAL_ROW.fullmatch
        # A canonical line is one whole record. Any other line starts a record
        # that csv reads from here, taking more lines if a quoted field spans them.
        for line_no, line in enumerate(fh, start=2):
            if canonical(line):
                rows.append(line)
                continue
            values = next(csv.reader(itertools.chain([line], fh)))
            if not values or (len(values) == 1 and not values[0].strip()):
                continue  # blank line
            if len(values) != len(FIXTURE_COLUMNS):
                raise ParseError(
                    f"{path}:{line_no}: expected {len(FIXTURE_COLUMNS)} columns, got {len(values)}"
                )
            try:
                rows.append(_row_to_record(values, chain))
            except (ValueError, ArithmeticError, MalformedAddress) as exc:
                raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
    return rows


def load_fixture(path: str | Path, chain: str | None = None) -> list[TransactionRecord]:
    """Load one per-chain fixture CSV; the chain defaults to the file stem."""
    path = Path(path)
    chain = normalize_chain(chain or path.stem)
    addresses: dict[str, Address] = {}
    return [
        _canonical_to_record(row, chain, addresses) if type(row) is str else row
        for row in load_rows(path, chain)
    ]


class FixtureStore:
    """All fixture chains loaded into memory, indexed by chain and address.

    `records_by_chain` maps each chain to its rows, each a TransactionRecord
    or a canonical fixture line (as load_rows returns them); a line is
    replaced by its record the first time it is fetched.
    """

    def __init__(self, records_by_chain: dict[str, list]):
        self.records_by_chain = records_by_chain
        self._index: dict[str, dict[str, list[int]]] = {}  # chain -> hex -> row positions
        self._addresses: dict[str, dict[str, Address]] = {}  # chain -> hex -> interned
        for chain, rows in records_by_chain.items():
            index = self._index[chain] = {}
            self._addresses[chain] = {}
            for position, row in enumerate(rows):
                if type(row) is str:
                    src, dst = row[_FROM], row[_TO]
                else:
                    src, dst = row.from_addr.hex, row.to_addr.hex
                index.setdefault(src, []).append(position)
                if dst != src:
                    index.setdefault(dst, []).append(position)

    @staticmethod
    def files(fixture_dir: str | Path) -> list[Path]:
        """The <chain>.csv files load_dir reads, in the order it reads them."""
        return sorted(Path(fixture_dir).glob("*.csv"))

    @staticmethod
    def load_dir(fixture_dir: str | Path) -> "FixtureStore":
        by_chain = {}
        for csv_path in FixtureStore.files(fixture_dir):
            chain = normalize_chain(csv_path.stem)
            by_chain[chain] = load_rows(csv_path, chain)
        if not by_chain:
            raise ParseError(f"no <chain>.csv fixture files under {fixture_dir}")
        return FixtureStore(by_chain)

    def _index_of(self, chain: str) -> dict[str, list[int]]:
        if chain not in self._index:
            raise UnknownChain(f"no fixture data for chain {chain!r}")
        return self._index[chain]

    def records_for(self, address: Address) -> list[TransactionRecord]:
        """Every row touching the address, in file order."""
        positions = self._index_of(address.chain).get(address.hex, ())
        rows = self.records_by_chain[address.chain]
        addresses = self._addresses[address.chain]
        out = []
        for position in positions:
            row = rows[position]
            if type(row) is str:
                row = rows[position] = _canonical_to_record(row, address.chain, addresses)
            out.append(row)
        return out

    def all_addresses(self, chain: str) -> list[Address]:
        """Every distinct address appearing on a chain, sorted by hex."""
        return [Address(hex_, chain) for hex_ in sorted(self._index_of(chain))]


class FixtureChainClient:
    """ChainClientPort backed by a FixtureStore; replay is exact and offline."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch_transactions(self, address: Address) -> list[TransactionRecord]:
        return dedup_and_sort(self.store.records_for(address))
