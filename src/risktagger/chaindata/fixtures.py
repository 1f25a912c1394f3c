"""CSV fixture replay: one `<chain>.csv` per chain, crawler column schema.

Loading checks every row and keeps no row's text, and no file stays open
after it. A row already in canonical form is kept as its byte span in the
file; the row is read back from there, matched again and built into a
TransactionRecord only when an account touching it is first fetched. Any
other row is checked and built at load, so a bad row fails the load with its
line number whether or not a trace would ever reach it. Each fetch reopens
the file, and a file that is not the one loaded (another device, inode, size
or mtime) fails it with ParseError, so no row that was not checked ever
becomes a record.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from array import array
from collections import defaultdict
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


def _nbytes(line: str) -> int:
    """The size of a line in the file: UTF-8, ending kept (newline="")."""
    return len(line) if line.isascii() else len(line.encode("utf-8"))


def _noting(lines, taken: list):
    """Yields from `lines`, appending each line it yields to `taken`."""
    for line in lines:
        taken.append(line)
        yield line


def _stamp(fd: int) -> tuple[int, int, int, int]:
    """What tells one file's state from another's: a fixture replaced by
    rename has another device or inode even with equal size and mtime."""
    stat = os.fstat(fd)
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class _FixtureFile:
    """One fixture CSV: its absolute path, its stamp at load, and the byte
    span of each canonical row in it (by row position; other rows hold 0, 0)."""

    def __init__(self, path: Path, chain: str, stamp: tuple[int, int, int, int]):
        self.path = path.absolute()
        self.chain = chain
        self.stamp = stamp
        self.starts = array("q")
        self.lengths = array("I")  # a canonical row is under 2**32 bytes

    def build(self, rows: list, positions, addresses: dict[str, Address]) -> None:
        """Builds each row at these positions not built yet, reading its span
        from the reopened file, whose stamp must still be the load's, and
        matching it again."""
        try:
            fh = self.path.open("rb", buffering=0)
        except OSError as exc:
            raise ParseError(f"{self.path}: cannot reopen fixture: {exc}") from exc
        with fh:
            fd = fh.fileno()
            if _stamp(fd) != self.stamp:
                raise ParseError(f"{self.path}: fixture changed since it was loaded")
            # Threads racing here build equal records; either may stay.
            for position in positions:
                if rows[position] is None:
                    rows[position] = self._record(fd, position, addresses)

    def _record(self, fd: int, position: int, addresses: dict[str, Address]) -> TransactionRecord:
        data = os.pread(fd, self.lengths[position], self.starts[position])
        try:
            line = data.decode("utf-8")
        except UnicodeDecodeError:
            line = ""
        if not _CANONICAL_ROW.fullmatch(line):
            raise ParseError(f"{self.path}: fixture row changed since it was loaded")
        return _canonical_to_record(line, self.chain, addresses)


def load_fixture(path: str | Path, chain: str | None = None) -> list[TransactionRecord]:
    """Load one per-chain fixture CSV; the chain defaults to the file stem."""
    path = Path(path)
    chain = normalize_chain(chain or path.stem)
    store = FixtureStore({})
    store._add_file(path, chain)
    return store._rows_at(chain, range(len(store.records_by_chain[chain])))


class FixtureStore:
    """All fixture chains, indexed by chain and address.

    `records_by_chain` maps each chain to its rows in file order, one entry
    per row: a TransactionRecord, or None for a canonical row not yet fetched,
    which its record replaces the first time it is.
    """

    def __init__(self, records_by_chain: dict[str, list[TransactionRecord]]):
        self.records_by_chain: dict[str, list] = {}
        self._index: dict[str, dict[str, list[int]]] = {}  # chain -> hex -> row positions
        self._addresses: dict[str, dict[str, Address]] = {}  # chain -> hex -> interned
        self._files: dict[str, _FixtureFile] = {}
        for chain, records in records_by_chain.items():
            rows, index = self._start_chain(chain)
            for record in records:
                self._add_record(rows, index, record)

    @staticmethod
    def files(fixture_dir: str | Path) -> list[Path]:
        """The <chain>.csv files load_dir reads, in the order it reads them."""
        return sorted(Path(fixture_dir).glob("*.csv"))

    @staticmethod
    def load_dir(fixture_dir: str | Path) -> "FixtureStore":
        store = FixtureStore({})
        for csv_path in FixtureStore.files(fixture_dir):
            store._add_file(csv_path, normalize_chain(csv_path.stem))
        if not store.records_by_chain:
            raise ParseError(f"no <chain>.csv fixture files under {fixture_dir}")
        return store

    def _start_chain(self, chain: str) -> tuple[list, dict[str, list[int]]]:
        """An empty row list and index for the chain, replacing any before."""
        self._addresses[chain] = {}
        rows = self.records_by_chain[chain] = []
        index = self._index[chain] = defaultdict(list)
        return rows, index

    @staticmethod
    def _add_record(rows: list, index: dict[str, list[int]], record: TransactionRecord) -> None:
        position = len(rows)
        rows.append(record)
        src, dst = record.from_addr.hex, record.to_addr.hex
        index[src].append(position)
        if dst != src:
            index[dst].append(position)

    def _add_file(self, path: Path, chain: str) -> None:
        """Check every row of one per-chain fixture CSV and index it, keeping
        no row text. Line numbers in errors count CSV records, the header
        being line 1."""
        rows, index = self._start_chain(chain)
        try:
            fh = path.open(newline="", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot open fixture {path}: {exc}") from exc
        with fh:
            source = self._files[chain] = _FixtureFile(path, chain, _stamp(fh.fileno()))
            starts, lengths = source.starts, source.lengths
            taken: list[str] = []
            header = next(csv.reader(_noting(fh, taken)), None)
            if header is None:
                raise SchemaMismatch(f"{path}: empty fixture file, expected header row")
            if tuple(h.strip() for h in header) != FIXTURE_COLUMNS:
                raise SchemaMismatch(
                    f"{path}: header mismatch: got {header!r}, expected {list(FIXTURE_COLUMNS)!r}"
                )
            offset = sum(map(_nbytes, taken))
            canonical = _CANONICAL_ROW.fullmatch
            # A canonical line is one whole record. Any other line starts a record
            # that csv reads from here, taking more lines if a quoted field spans them.
            for line_no, line in enumerate(fh, start=2):
                start = offset
                offset += len(line) if line.isascii() else len(line.encode("utf-8"))  # _nbytes, inlined
                if canonical(line):
                    position = len(rows)
                    rows.append(None)
                    starts.append(start)
                    lengths.append(offset - start)
                    src, dst = line[_FROM], line[_TO]
                    index[src].append(position)
                    if dst != src:
                        index[dst].append(position)
                    continue
                taken = []
                values = next(csv.reader(itertools.chain([line], _noting(fh, taken))))
                offset += sum(map(_nbytes, taken))
                if not values or (len(values) == 1 and not values[0].strip()):
                    continue  # blank line
                if len(values) != len(FIXTURE_COLUMNS):
                    raise ParseError(
                        f"{path}:{line_no}: expected {len(FIXTURE_COLUMNS)} columns, got {len(values)}"
                    )
                try:
                    record = _row_to_record(values, chain)
                except (ValueError, ArithmeticError, MalformedAddress) as exc:
                    raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
                self._add_record(rows, index, record)
                starts.append(0)
                lengths.append(0)

    def _index_of(self, chain: str) -> dict[str, list[int]]:
        if chain not in self._index:
            raise UnknownChain(f"no fixture data for chain {chain!r}")
        return self._index[chain]

    def _rows_at(self, chain: str, positions) -> list[TransactionRecord]:
        """The records at these row positions, building the rows not yet
        built. A fixture file edited since the load raises ParseError."""
        rows = self.records_by_chain[chain]
        source = self._files.get(chain)
        if source is not None:
            source.build(rows, positions, self._addresses[chain])
        return [rows[position] for position in positions]

    def records_for(self, address: Address) -> list[TransactionRecord]:
        """Every row touching the address, in file order."""
        positions = self._index_of(address.chain).get(address.hex, ())
        return self._rows_at(address.chain, positions)

    def all_addresses(self, chain: str) -> list[Address]:
        """Every distinct address appearing on a chain, sorted by hex."""
        return [Address(hex_, chain) for hex_ in sorted(self._index_of(chain))]


class FixtureChainClient:
    """ChainClientPort backed by a FixtureStore; replay is exact and offline."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch_transactions(self, address: Address) -> list[TransactionRecord]:
        return dedup_and_sort(self.store.records_for(address))
