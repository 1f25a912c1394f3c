"""CSV fixture replay: one `<chain>.csv` per chain, crawler column schema.

Loading checks every row, so a bad row fails the load with its line number
whether or not a trace would ever reach it, and then keeps the row as its
byte span in the file only: no row text, no record, and no file stays open.
Each fetch of an account reopens the file, reads back the rows touching it
and builds TransactionRecords the store does not keep. A line in canonical
form must match again and takes the canonical-row path the live adapter
shares (fetch._canonical_to_record); any other row, one with quotes, edge
whitespace, uppercase hex or an overlong field, is parsed by csv and the
checked builder again, as at load. A file that is not the one loaded (another
device, inode, size or mtime), or a row that no longer parses as it did,
fails the fetch with ParseError, so no row that was not checked ever
becomes a record.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import os
from array import array
from collections import defaultdict
from pathlib import Path

from ..errors import MalformedAddress, ParseError, SchemaMismatch, UnknownChain, reading_utf8
from ..model import Address, TransactionRecord, normalize_chain
from .fetch import _CANONICAL_ROW, _FROM, _TO, FIXTURE_COLUMNS, _canonical_to_record, _row_to_record, dedup_and_sort

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
    """One loaded fixture CSV: its absolute path and its stamp at load, the
    byte span of each row in it by row position, the positions of the rows
    not in canonical form, and the positions of the rows touching each
    address. len() is its row count."""

    def __init__(self, path: Path, chain: str, stamp: tuple[int, int, int, int]):
        self.path = path.absolute()
        self.chain = chain
        self.stamp = stamp
        self.starts = array("q")
        self.lengths = array("I")  # a row is under 2**32 bytes
        self.irregular: set[int] = set()
        # 4 bytes per entry, no int object: a chain holds under 2**32 rows
        self.index: dict[str, array] = defaultdict(functools.partial(array, "I"))  # hex -> positions
        self.addresses: dict[str, Address] = {}  # hex -> interned

    def __len__(self) -> int:
        return len(self.starts)

    def build(self, positions) -> list[TransactionRecord]:
        """The records at these positions, each read from its span in the
        reopened file, whose stamp must still be the load's."""
        try:
            fh = self.path.open("rb", buffering=0)
        except OSError as exc:
            raise ParseError(f"{self.path}: cannot reopen fixture: {exc}") from exc
        with fh:
            fd = fh.fileno()
            if _stamp(fd) != self.stamp:
                raise ParseError(f"{self.path}: fixture changed since it was loaded")
            return [self._record(fd, position) for position in positions]

    def _record(self, fd: int, position: int) -> TransactionRecord:
        """One row parsed as the load parsed it: a canonical row must match
        again, any other goes through csv and the checked builder."""
        data = os.pread(fd, self.lengths[position], self.starts[position])
        try:
            text = data.decode("utf-8")
            if position in self.irregular:
                rows = list(csv.reader(io.StringIO(text, newline="")))
                if len(rows) == 1 and len(rows[0]) == len(FIXTURE_COLUMNS):
                    return _row_to_record(rows[0], self.chain)
            elif _CANONICAL_ROW.fullmatch(text):
                return _canonical_to_record(text, self.chain, self.addresses)
        except (ValueError, ArithmeticError, csv.Error, MalformedAddress) as exc:
            raise ParseError(f"{self.path}: fixture row changed since it was loaded: {exc}") from exc
        raise ParseError(f"{self.path}: fixture row changed since it was loaded")


class FixtureStore:
    """All fixture chains, indexed by chain and address.

    `records_by_chain` maps each chain to its loaded file, which keeps each
    row as its byte span only; every fetch reads the rows back and builds
    records the store does not keep. After the load the store only interns
    Addresses, so threads may fetch from it at once.
    """

    def __init__(self):
        self.records_by_chain: dict[str, _FixtureFile] = {}

    @staticmethod
    def files(fixture_dir: str | Path) -> list[Path]:
        """The <chain>.csv files load_dir reads, in the order it reads them."""
        return sorted(Path(fixture_dir).glob("*.csv"))

    @staticmethod
    def load_dir(fixture_dir: str | Path) -> "FixtureStore":
        store = FixtureStore()
        for csv_path in FixtureStore.files(fixture_dir):
            store._add_file(csv_path, normalize_chain(csv_path.stem))
        if not store.records_by_chain:
            raise ParseError(f"no <chain>.csv fixture files under {fixture_dir}")
        return store

    def _add_file(self, path: Path, chain: str) -> None:
        """Check every row of one per-chain fixture CSV and index it, keeping
        its byte span only. Line numbers in errors count CSV records, the
        header being line 1."""
        try:
            fh = path.open(newline="", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot open fixture {path}: {exc}") from exc
        with fh, reading_utf8(path):
            source = self.records_by_chain[chain] = _FixtureFile(path, chain, _stamp(fh.fileno()))
            starts, lengths, index = source.starts, source.lengths, source.index
            line_no = 1
            try:
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
                        src, dst = line[_FROM], line[_TO]
                    else:
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
                        source.irregular.add(len(starts))
                        src, dst = record.from_addr.hex, record.to_addr.hex
                    position = len(starts)
                    starts.append(start)
                    lengths.append(offset - start)
                    index[src].append(position)
                    if dst != src:
                        index[dst].append(position)
            except csv.Error as exc:  # from csv.reader only: a field over its size limit
                raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc

    def _file(self, chain: str) -> _FixtureFile:
        if chain not in self.records_by_chain:
            raise UnknownChain(f"no fixture data for chain {chain!r}")
        return self.records_by_chain[chain]

    def records_for(self, address: Address) -> list[TransactionRecord]:
        """Every row touching the address, in file order. A fixture file
        edited since the load raises ParseError."""
        source = self._file(address.chain)
        return source.build(source.index.get(address.hex, ()))

    def all_addresses(self, chain: str) -> list[Address]:
        """Every distinct address appearing on a chain, sorted by hex."""
        return [Address(hex_, chain) for hex_ in sorted(self._file(chain).index)]


class FixtureChainClient:
    """ChainClientPort backed by a FixtureStore; replay is exact and offline."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch_transactions(self, address: Address) -> list[TransactionRecord]:
        return dedup_and_sort(self.store.records_for(address))
