"""CSV fixture replay: one `<chain>.csv` per chain, crawler column schema.

Loading checks every row, so a bad row fails the load with its line number
whether or not a trace would ever reach it, and then keeps the row as its
byte span in the file only: no row text, no record, and no file stays open.
A byte that is not UTF-8 fails the load where its record is reached, as a
bad row does. Each fetch of an account reopens the file, reads back the rows
touching it and builds TransactionRecords the store does not keep. A line in
canonical form must match again and takes the canonical-row path the live
adapter shares (fetch._canonical_to_record); any other row, one with quotes,
edge whitespace, uppercase hex or an overlong field, is parsed by csv and the
checked builder again, as at load. A file that is not the one loaded (another
device, inode, size or mtime), or a row that no longer parses as it did,
fails the fetch with ParseError, so no row that was not checked ever becomes
a record.

A large file is loaded on every usable CPU. The rows after the header are
cut into min(usable CPUs, file size // _MIN_PART_BYTES) byte ranges, each
starting just past a newline; with no os.fork, one CPU or a small file, that
is one range, scanned in this process with no child. Otherwise each later
range is scanned by a child forked before this process scans the first, and
so before any tracer thread exists (Python 3.12+ warns on fork in a process
with threads). A child streams its spans, its irregular positions and its
index back over a pipe in chunks of at most _CHUNK items, and leaves only
through os._exit, never returning into its caller. The parts merge in file
order, each child's positions shifted by the rows before its range, into
exactly what a one-part load builds. The split is all or nothing: unless
each part starts where the one before stopped and each child's stream ends
whole, the merged parts are cleared and the file is scanned again here in one
part, so every load error is the one-part load's. Only a failed fork, or a
split file (8 MiB or more) that is bad or has a multi-line quoted record
across a cut, costs that second scan. Every child is killed if need be and
reaped before the load returns, raises or scans again, Ctrl-C included.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import marshal
import os
from array import array
from collections import defaultdict
from pathlib import Path

from ..errors import MalformedAddress, ParseError, SchemaMismatch, UnknownChain, reading_utf8
from ..model import Address, TransactionRecord, normalize_chain
from .fetch import _CANONICAL_ROW, _FROM, _TO, FIXTURE_COLUMNS, _canonical_to_record, _row_to_record, dedup_and_sort

# The smallest part worth a child: a 4 MB file loaded in two parts was no
# faster than in one, an 8 MB one about 20% faster (two vCPUs).
_MIN_PART_BYTES = 4 << 20
_CHUNK = 1024  # items per message from a child; 4096 raised the parent's peak RSS by 1 MB


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _nbytes(line: str) -> int:
    """The size of a line in the file: UTF-8, ending kept (newline=""). A
    byte that is not UTF-8 reaches the line escaped (surrogateescape); it
    raises the UnicodeDecodeError a strict read would."""
    if line.isascii():
        return len(line)
    try:
        return len(line.encode("utf-8"))
    except UnicodeEncodeError:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
        raise


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


def _ranges(fd: int, start: int, size: int) -> list[tuple[int, int]]:
    """The byte ranges [start, end) a load scans, one per part, in file
    order: the rows from `start` on, cut near equal sizes just past a
    newline."""
    parts = min(_usable_cpus(), size // _MIN_PART_BYTES) if hasattr(os, "fork") else 1
    cuts = [start]
    for k in range(1, parts):
        at = start + (size - start) * k // parts
        while block := os.pread(fd, 1 << 16, at - 1):
            newline = block.find(b"\n")
            if newline >= 0:
                at += newline
                break
            at += len(block)
        if cuts[-1] < at < size:
            cuts.append(at)
    cuts.append(max(start, size))
    return list(zip(cuts, cuts[1:]))


def _put(sink, message) -> None:
    """Writes one message: the size of its marshal form, then that form."""
    blob = marshal.dumps(message)
    sink.write(len(blob).to_bytes(4, "little"))
    sink.write(blob)


def _get(source):
    """The next message of _put's, from a pipe only this load's child
    writes; EOFError if the stream ends first."""
    size = int.from_bytes(source.read(4), "little")
    blob = source.read(size)
    if not size or len(blob) < size:
        raise EOFError("the child's stream ended")
    return marshal.loads(blob)


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

    # --- the load ------------------------------------------------------------

    def _open_at(self, offset: int):
        """The loaded file, reopened as text from byte `offset`."""
        try:
            raw = self.path.open("rb")
        except OSError as exc:
            raise ParseError(f"cannot open fixture {self.path}: {exc}") from exc
        if _stamp(raw.fileno()) != self.stamp:
            raw.close()
            raise ParseError(f"{self.path}: fixture changed while it was loaded")
        raw.seek(offset)
        return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="")

    def _load(self, fh, path: Path) -> None:
        """Check and index every record of `fh`, the file opened at its start:
        the header here, then each part, the later ones in forked children;
        if the parts do not come back whole, the rows once more, here."""
        try:
            taken: list[str] = []
            header = next(csv.reader(_noting(fh, taken)), None)
        except csv.Error as exc:
            raise ParseError(f"{path}:1: bad fixture row: {exc}") from exc
        if header is None:
            raise SchemaMismatch(f"{path}: empty fixture file, expected header row")
        offset = sum(map(_nbytes, taken))
        if tuple(h.strip() for h in header) != FIXTURE_COLUMNS:
            raise SchemaMismatch(f"{path}: header mismatch: got {header!r}, expected {list(FIXTURE_COLUMNS)!r}")
        size = self.stamp[2]
        (_, end), *later = _ranges(fh.fileno(), offset, size)
        children: list[tuple[int, int]] = []  # (pid, read end) of the first parts of `later`
        try:
            if later:
                import signal  # here: a one-part load has no use for its ~1 ms import

                # Ctrl-C here waits until each child is forked and recorded.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    for start, stop in later:
                        children.append(self._fork_scan(start, stop, [r for _, r in children]))
                except OSError:
                    pass  # a part with no child: the file is scanned again below
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            stopped = self._scan(fh, path, offset, end)
            for (start, _), (_, r) in zip(later, children):
                if stopped != start:  # None: a child failed; else the part before ran past this start
                    break
                with open(r, "rb", closefd=False) as stream:
                    stopped = self._merge(stream)
        finally:
            for pid, r in children:
                os.close(r)
                os.kill(pid, signal.SIGKILL)  # a child still running is no longer needed
                os.waitpid(pid, 0)
        if stopped != size:  # the parts did not come back whole: one part, in this process
            del self.starts[:], self.lengths[:]
            self.irregular.clear()
            self.index.clear()
            with self._open_at(offset) as whole:
                self._scan(whole, path, offset, size)

    def _scan(self, fh, path: Path, offset: int, end: int) -> int:
        """Check and index the records read from `fh`, which stands at byte
        `offset`, up to the first record that starts at or past `end`.
        Returns the byte offset reached. Line numbers in errors count CSV
        records from the file's start, the header being line 1, so they hold
        for a scan from the first record; a child's errors are not shown."""
        starts, lengths, index = self.starts, self.lengths, self.index
        canonical = _CANONICAL_ROW.fullmatch
        try:
            # A canonical line is one whole record. Any other line starts a record
            # that csv reads from here, taking more lines if a quoted field spans them.
            for line_no, line in enumerate(fh, start=2):
                if offset >= end:
                    break
                start = offset
                offset += len(line) if line.isascii() else _nbytes(line)
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
                        record = _row_to_record(values, self.chain)
                    except (ValueError, ArithmeticError, MalformedAddress) as exc:
                        raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
                    self.irregular.add(len(starts))
                    src, dst = record.from_addr.hex, record.to_addr.hex
                position = len(starts)
                starts.append(start)
                lengths.append(offset - start)
                index[src].append(position)
                if dst != src:
                    index[dst].append(position)
        except csv.Error as exc:  # from csv.reader only: a field over its size limit
            raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
        return offset

    def _fork_scan(self, start: int, end: int, readers: list[int]) -> tuple[int, int]:
        """A child forked to scan bytes [start, end): its pid and the read
        end of the pipe it streams its part into. `readers` are the other
        children's read ends, which the child closes."""
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            self._child(start, end, w, (r, *readers))
        os.close(w)
        return pid, r

    def _child(self, start: int, end: int, sink: int, inherited) -> None:
        """The forked child: scans bytes [start, end) into a file of its own,
        streams it to `sink` and exits, through os._exit only, with status 0
        if all went. It never returns into its caller."""
        status = 1
        try:
            for fd in inherited:
                os.close(fd)
            part = _FixtureFile(self.path, self.chain, self.stamp)
            with part._open_at(start) as fh, open(sink, "wb") as stream:
                part._send(stream, part._scan(fh, self.path, start, end))
            status = 0
        finally:
            os._exit(status)

    def _send(self, sink, offset: int) -> None:
        """Streams this file, one part's scan, in chunks; the last message
        holds where the scan stopped."""
        for i in range(0, len(self), _CHUNK):
            _put(sink, ("spans", self.starts[i:i + _CHUNK].tobytes(), self.lengths[i:i + _CHUNK].tobytes()))
        irregular = sorted(self.irregular)
        for i in range(0, len(irregular), _CHUNK):
            _put(sink, ("irregular", irregular[i:i + _CHUNK]))
        items = iter(self.index.items())
        while chunk := {hex_: positions.tobytes() for hex_, positions in itertools.islice(items, _CHUNK)}:
            _put(sink, ("index", chunk))
        _put(sink, ("stop", offset))

    def _merge(self, stream) -> int | None:
        """Appends a child's part, its positions shifted by the rows already
        here, and returns the byte offset where its scan stopped. If the
        stream ends first, the child failed: None is returned, and what was
        merged of the part stays for the caller to clear."""
        shift = len(self).__add__
        try:
            while True:
                kind, *data = _get(stream)
                if kind == "spans":
                    self.starts.frombytes(data[0])
                    self.lengths.frombytes(data[1])
                elif kind == "irregular":
                    self.irregular.update(map(shift, data[0]))
                elif kind == "index":
                    index = self.index
                    for hex_, positions in data[0].items():
                        index[hex_].extend(map(shift, array("I", positions)))
                else:
                    return data[0]
        except EOFError:
            return None


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
        its byte span only."""
        try:
            fh = path.open(newline="", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise ParseError(f"cannot open fixture {path}: {exc}") from exc
        with fh, reading_utf8(path):
            source = self.records_by_chain[chain] = _FixtureFile(path, chain, _stamp(fh.fileno()))
            source._load(fh, path)

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
