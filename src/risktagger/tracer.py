"""Hop-by-hop fund tracing: fetch, bridge-expand, summarize, assess, filter.

The loop walks the transaction graph outward from the seed accounts one hop
at a time, bounded by cfg.D. Each hop is a barrier: its frontier is fixed
before any account in it is analyzed, and a single coordinator folds
completed assessments back into the state in (hop_depth, address) order so
sequential and concurrent runs produce identical output bytes. With
workers > 1 the hop's accounts run on a thread pool, but only when the
backend blocks on the network. A backend that marks itself `in_process`
(pure computation, such as the rule engine) gains nothing from threads that
take turns on the interpreter lock, so its accounts are analyzed one after
another in the coordinator.

Frontier admission happens at the end of every hop: repeat nominations
collapse into one candidate (first mention wins), already-visited accounts
break cycles, candidates funded below min_value_threshold drop out, and the
survivors are ranked by

    priority = value_weight*vnorm + recency_weight*rnorm + flag_weight*flag

where vnorm/rnorm use the same normalization as transaction retention and
flag is 1 when any funder of the candidate was rated High or Medium this
hop. Funding value is the raw smallest-unit sum across assets, a coarse
knob on purpose; failed transfers still nominate their receiver but move
no value.

Every trace runs against a run directory, ports.out_dir. The coordinator
keeps the run journal there, journal.jsonl, one compact JSON object per line.
While a trace runs, the journal is

    {"kind": "header", "fingerprint", "config", "seeds", "prompts"}
    {"kind": "account", "address", "assessment", "funding"}   or
    {"kind": "account", "address", "fetched", "error"}        per attempted account

The fingerprint is the sha256 of the effective config, the seed list, the
prompt template hashes and the reasoner payload's version. The config holds
the clock the run ranked against (`now`) even when none was configured, so a
resume can reuse it. Account lines follow frontier order; `funding` holds
[value as a decimal string, latest ts] for each of the assessment's
out_neighbors, so a frontier rebuilds without refetching. The payload's
version is kept beside the template hashes, as prompts.payload_version.
resume=True runs the same hop loop as a fresh run, except that a frontier
account with a journaled outcome takes it instead of being analyzed; merge,
frontier ranking and counters are recomputed. The journal keeps one
invariant: a complete hop is exactly its frontier's lines, and only the last
journaled hop may be short. A resume reads it once, each hop taking at most
its frontier's count of lines, and refuses a line out of place, naming it,
before any account is analyzed; only at the end does it drop a torn last
line. A fresh run truncates the journal.

A trace owns four outputs beside the journal. Each merged hop's
assessments are written to labels.jsonl (all) and risky.jsonl (High only)
under a .part suffix, renamed into place when the trace completes and
removed when it fails, so a trace holds one hop of assessments, not the
whole trace. diagnostics.json follows once both are in place, then
run.json: the header's fingerprint, config, seeds and prompts, and the
versions of risktagger and Python, the one record of what the run used.
Whenever the journal starts over, the outputs of an earlier trace are
removed before the first account is analyzed, so a trace that does not
complete leaves none.

Once the outputs are in place, the journal is written anew as
journal.jsonl.tmp and moved over journal.jsonl: the header line, then

    {"kind": "done", "outputs": {name: sha256 of each output}, "labeled", "high", "hops"}

so a finished run directory holds each label once. A crash before the move
leaves the full journal, whose resume rebuilds the same outputs. A resume
onto a done journal checks the outputs against their digests and writes
nothing; a missing or changed output, or any line after the done line, is
refused. Starting the journal over or replacing it removes a
journal.jsonl.tmp left by a crash.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import (
    BackendFailure,
    ChainUnavailable,
    CheckpointError,
    MalformedAddress,
    RateLimited,
    SchemaViolation,
    UnknownChain,
    UnparseableVerdict,
)
from .model import Address, RiskAssessment, SuspicionLevel, TracerConfig, normalize_address
from .reasoner import infer_risk
from .reasoner.prompts import template_hashes
from .translator import PAYLOAD_VERSION, build_subgraph

logger = logging.getLogger(__name__)

# per-account failures that skip the account instead of killing the run
SKIPPABLE_ERRORS = (
    ChainUnavailable,
    RateLimited,
    UnknownChain,
    BackendFailure,
    UnparseableVerdict,
    SchemaViolation,
)

JOURNAL_NAME = "journal.jsonl"
OUTPUT_NAMES = ("labels.jsonl", "risky.jsonl", "diagnostics.json", "run.json")


def _fresh_diagnostics() -> dict:
    return {
        "fetched": 0,
        "pruned_dup": 0,
        "pruned_visited": 0,
        "pruned_low_value": 0,
        "pruned_cap": 0,
        "errors": [],
    }


@dataclass
class TracerState:
    depth: int = 0
    C_current: list[Address] = field(default_factory=list)
    visited: set[Address] = field(default_factory=set)
    labeled: int = 0
    high: int = 0  # labels rated High
    diagnostics: dict = field(default_factory=_fresh_diagnostics)


@dataclass
class TracerPorts:
    """Everything the loop talks to, injected so tests can swap any piece.
    out_dir is the run directory: the journal and every output go there."""

    client: object  # chain adapter with fetch_transactions(Address)
    backend: object  # BackendPort
    now: int
    out_dir: Path
    matcher: object = None  # cross-chain matcher; None disables bridge expansion
    strict: bool = False
    workers: int = 1  # concurrent analyses per hop, unless the backend is in_process
    # settings the journal fingerprint covers; None means chain, tracer config and clock
    run_config: dict | None = None


@dataclass
class Outcome:
    """One attempted account: its assessment, or the diagnostics entry of its skip."""

    account: Address
    hop_depth: int
    assessment: RiskAssessment | None = None
    funding: list = field(default_factory=list)  # (value, latest ts) per out-neighbor
    error: dict | None = None
    fetched: bool = True

    def to_record(self) -> dict:
        record = {"kind": "account", "address": self.account.to_json()}
        if self.error is not None:
            record.update(fetched=self.fetched, error=self.error)
        else:
            record.update(
                assessment=self.assessment.to_json(),
                funding=[[str(value), ts] for value, ts in self.funding],
            )
        return record

    @staticmethod
    def from_record(record: dict) -> "Outcome":
        account = Address.from_json(record["address"])
        if "error" in record:
            error = record["error"]
            return Outcome(account, error["hop_depth"], error=error, fetched=record["fetched"])
        assessment = RiskAssessment.from_json(record["assessment"])
        funding = [(int(value), ts) for value, ts in record["funding"]]
        return Outcome(account, assessment.hop_depth, assessment, funding)


def collect_frontier(
    analyzed: list[tuple[RiskAssessment, list]], cfg: TracerConfig, counters: dict
) -> dict:
    """Out-neighbor nominations in analysis order, one entry per candidate:
    candidate -> [funding value sum, latest funding ts, funded by High/Medium].
    A repeat nomination adds to its entry and counts as pruned_dup."""
    candidates: dict = {}
    for assessment, funding in analyzed:
        if assessment.suspicion_level not in cfg.expand_levels:
            continue
        flagged = assessment.suspicion_level in (SuspicionLevel.HIGH, SuspicionLevel.MEDIUM)
        for neighbor, (value, ts) in zip(assessment.out_neighbors, funding):
            entry = candidates.get(neighbor)
            if entry is None:
                candidates[neighbor] = [value, ts, flagged]
                continue
            counters["pruned_dup"] += 1
            entry[0] += value
            entry[1] = max(entry[1], ts)
            entry[2] = entry[2] or flagged
    return candidates


def filter_frontier(
    candidates: dict, visited: set, now: int, cfg: TracerConfig, counters: dict
) -> list[Address]:
    """Break cycles, prune dust, rank, cap. Returns the next frontier."""
    threshold = int(cfg.min_value_threshold)
    survivors = []
    for address, (value, _ts, _flagged) in candidates.items():
        if address in visited:
            counters["pruned_visited"] += 1
        elif value < threshold:
            counters["pruned_low_value"] += 1
        else:
            survivors.append(address)
    if not survivors:
        return []

    max_value = max(candidates[a][0] for a in survivors)
    oldest = min(candidates[a][1] for a in survivors)
    span = now - oldest

    def priority(address: Address) -> float:
        value, ts, flagged = candidates[address]
        vnorm = value / max_value if max_value > 0 else 0.0
        rnorm = 1.0 if span <= 0 else 1.0 - (now - ts) / span
        flag = 1.0 if flagged else 0.0
        return cfg.value_weight * vnorm + cfg.recency_weight * rnorm + cfg.flag_weight * flag

    survivors.sort(key=lambda a: (-priority(a), a))
    if cfg.frontier_cap is not None and len(survivors) > cfg.frontier_cap:
        counters["pruned_cap"] += len(survivors) - cfg.frontier_cap
        survivors = survivors[: cfg.frontier_cap]
    return survivors


def _analyze_account(account: Address, depth: int, cfg: TracerConfig, ports: TracerPorts) -> Outcome:
    """Worker body: fetch, expand, summarize, assess. A skippable error becomes
    a skip outcome, except under ports.strict, where it propagates."""
    fetched = False
    try:
        txs = ports.client.fetch_transactions(account)
        fetched = True
        pairs = ports.matcher.expand(account, txs) if ports.matcher is not None else []
        sub = build_subgraph(account, txs, pairs, cfg, ports.now)
        assessment = infer_risk(sub, ports.backend, hop_depth=depth)
        return Outcome(account, depth, assessment, list(sub.out_flows.values()))
    except SKIPPABLE_ERRORS as err:
        if ports.strict:
            raise
        logger.warning("skipping %s: %s", account.hex, err)
        error = {
            "address": account.hex,
            "chain": account.chain,
            "hop_depth": depth,
            "error": type(err).__name__,
            "detail": str(err),
        }
        return Outcome(account, depth, error=error, fetched=fetched)


class Journal:
    """journal.jsonl (format and invariant in the module docstring): appends
    each attempted account and, on a resume, hands back the journaled outcomes
    one hop at a time, refusing a line out of place as soon as it is read."""

    def __init__(self, path: Path, header: dict, resume: bool):
        """Starts a fresh journal, or with resume=True continues the one at
        path once its header line matches `header`. A finished journal is not
        continued: `done` holds its done line, and no file is left open."""
        self.path = path
        self.resumed = False  # True once the header of the journal at path matched
        self.done = None  # the done line of a finished journal at path
        self._writer = None
        self._reader = None  # the journal being resumed, until its end is read
        self._pending = None  # the outcome on line 2, read to tell a done journal
        self._lines = 0  # whole lines read
        self._good_bytes = 0  # their length
        try:
            if resume and path.exists():
                self._reader = open(path, "rb")  # line by line, so the file is never held whole
                found = self._read_record()
                if found is not _END:
                    _check_header(found if isinstance(found, dict) else {}, header, path)
                    self.resumed = True
                    self._pending = self._next_outcome()
                    if self.done is None:
                        self._writer = open(path, "a", encoding="utf-8")
                    return
                self._reader.close()
                self._reader = None
            path.parent.mkdir(parents=True, exist_ok=True)
            path.with_name(path.name + ".tmp").unlink(missing_ok=True)
            self._writer = open(path, "w", encoding="utf-8")
            self.append(header)
        except BaseException:
            self.close()
            raise

    def append(self, record: dict) -> None:
        self._writer.write(_jsonl(record))
        self._writer.flush()

    def close(self) -> None:
        for fh in (self._reader, self._writer):
            if fh is not None:
                fh.close()

    def take(self, depth: int, frontier: list[Address]) -> dict:
        """The outcomes journaled at hop `depth`, whose frontier is `frontier`,
        keyed by account: its next len(frontier) lines, fewer where the journal
        ends. Refuses a line of another hop, of an account outside the
        frontier, or of an account taken already."""
        outcomes = {}
        members = set(frontier)
        while len(outcomes) < len(frontier):
            outcome = self._next_outcome()
            if outcome is None:
                break
            if outcome.hop_depth > depth:
                missing = next(account for account in frontier if account not in outcomes)
                raise self._refusal(outcome, f"while hop {depth} is journaled in part: account {missing.hex} has no line")
            if outcome.account in outcomes:
                raise self._refusal(outcome, "again")
            if outcome.hop_depth < depth or outcome.account not in members:
                raise self._misplaced(outcome, depth)
            outcomes[outcome.account] = outcome
        return outcomes

    def finish(self, depth: int) -> None:
        """Refuses a line left once the trace stops before hop `depth`."""
        outcome = self._next_outcome()
        if outcome is not None:
            raise self._misplaced(outcome, depth)

    def _misplaced(self, outcome: Outcome, depth: int) -> CheckpointError:
        """The refusal of the line just read once the trace is at hop `depth`."""
        early = outcome.hop_depth < depth
        return self._refusal(outcome, "after that hop's frontier is whole" if early else "outside that hop's frontier")

    def _refusal(self, outcome: Outcome, why: str) -> CheckpointError:
        where = f"line {self._lines} journals account {outcome.account.hex} at hop {outcome.hop_depth}"
        return CheckpointError(f"{self.path}: {where} {why}")

    def _next_outcome(self) -> Outcome | None:
        """The outcome the next account line holds; None past the last one,
        where the reader is closed and a torn last line truncated away, and
        None at a done line right after the header, which must end the journal
        and which `done` then holds. A line of any other kind is refused."""
        if self._pending is not None:
            outcome, self._pending = self._pending, None
            return outcome
        if self._reader is None:
            return None
        record = self._read_record()
        if record is _END:
            self._reader.close()
            self._reader = None
            if self._good_bytes < self.path.stat().st_size:
                logger.warning("dropping the torn last line of %s", self.path)
                os.truncate(self.path, self._good_bytes)
            return None
        number = self._lines
        try:
            kind = record["kind"]
            outcome = Outcome.from_record(record) if kind == "account" else None
        except (AttributeError, KeyError, TypeError, ValueError, MalformedAddress) as err:  # a field of another form
            raise CheckpointError(f"{self.path}: malformed line {number}: {err!r}") from err
        if kind == "done" and number == 2:
            if self._reader.read(1):
                raise CheckpointError(f"{self.path}: line 3 follows the done line of a finished trace")
            self._reader.close()
            self._reader = None
            self.done = record
            return None
        if outcome is None:
            raise CheckpointError(f"{self.path}: line {number} is a {kind!r} line, not an account line")
        return outcome

    def _read_record(self):
        """The next line parsed, or _END at the end of the journal: the end of
        the file, or a last line torn by a crash (unterminated, or unparseable
        with nothing after it)."""
        line = self._reader.readline()
        if not line.endswith(b"\n"):
            return _END
        try:
            record = json.loads(line)
        except ValueError as err:
            if self._reader.read(1):
                raise CheckpointError(f"{self.path}: unreadable line {self._lines + 1}: {err}") from err
            return _END
        self._lines += 1
        self._good_bytes += len(line)
        return record


_END = object()  # Journal._read_record past the last whole line


def _jsonl(record: dict) -> str:
    # compact separators keep json on its C encoder
    return json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"


def _compact(path: Path, header: dict, state: TracerState) -> None:
    """Replaces the journal at path of a completed trace, whose outputs are in
    place, with its header line and a done line holding their digests."""
    done = {
        "kind": "done",
        "outputs": {name: file_sha256(path.parent / name) for name in OUTPUT_NAMES},
        "labeled": state.labeled,
        "high": state.high,
        "hops": state.depth,
    }
    replacement = path.with_name(path.name + ".tmp")
    try:
        replacement.write_text(_jsonl(header) + _jsonl(done), encoding="utf-8")
        os.replace(replacement, path)
    except BaseException:
        replacement.unlink(missing_ok=True)
        raise


def _finished(done: dict, path: Path) -> TracerState:
    """The state a trace finished with, from the done line of its journal at
    path, once each output matches its digest there."""
    try:
        digests = {name: done["outputs"][name] for name in OUTPUT_NAMES}
        state = TracerState(depth=done["hops"], labeled=done["labeled"], high=done["high"])
    except (KeyError, TypeError) as err:
        raise CheckpointError(f"{path}: malformed line 2: {err!r}; rerun without --resume") from err
    for name, digest in digests.items():
        output = path.parent / name
        if not output.exists():
            raise CheckpointError(f"{output} is missing, though {path} records a finished trace; rerun without --resume")
        if file_sha256(output) != digest:
            raise CheckpointError(f"{output} changed since {path} recorded the finished trace; rerun without --resume")
    state.diagnostics = json.loads((path.parent / "diagnostics.json").read_text(encoding="utf-8"))
    return state


@contextmanager
def _label_files(out_dir: Path):
    """Yields the label sink of a trace: it writes labels.jsonl (every
    assessment) and risky.jsonl (High only) under a .part suffix, which the
    block renames into place when it completes and removes when it fails."""
    parts = [out_dir / "labels.jsonl.part", out_dir / "risky.jsonl.part"]
    try:
        with open(parts[0], "w", encoding="utf-8") as labels, open(parts[1], "w", encoding="utf-8") as risky:

            def write(assessments) -> None:
                for assessment in assessments:
                    line = json.dumps(assessment.to_json(), ensure_ascii=False) + "\n"
                    labels.write(line)
                    if assessment.suspicion_level is SuspicionLevel.HIGH:
                        risky.write(line)

            yield write
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    for part in parts:
        os.replace(part, part.with_suffix(""))


def file_sha256(path) -> str:
    """sha256 of the file at path, read in 64 KiB chunks, so hashing holds
    one chunk of a file of any size."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def journal_clock(path: Path) -> int | None:
    """The clock (`config.now`) in the header of the journal at path, or None
    when there is no readable header."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.readline())["config"]["now"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _journal_header(seeds: list[Address], chain: str, cfg: TracerConfig, ports: TracerPorts) -> dict:
    config = ports.run_config
    if config is None:
        config = {"chain": chain, "tracer": cfg.to_json(), "now": ports.now}
    parts = {
        "config": config,
        "seeds": [seed.to_json() for seed in seeds],
        # what decides a prompt's text besides the account
        "prompts": {**template_hashes(), "payload_version": PAYLOAD_VERSION},
    }
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return {
        "kind": "header",
        "fingerprint": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        **parts,
    }


def _differences(old, new, name: str) -> list[str]:
    """Dotted names of the leaves that differ between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            diff
            for key in sorted(set(old) | set(new))
            for diff in _differences(old.get(key), new.get(key), f"{name}.{key}")
        ]
    return [] if old == new else [name]


def _check_header(found: dict, header: dict, path: Path) -> None:
    if found.get("kind") == "header" and found.get("fingerprint") == header["fingerprint"]:
        return
    changed = [
        diff
        for part in ("config", "seeds", "prompts")
        for diff in _differences(found.get(part), header[part], part)
    ]
    raise CheckpointError(
        f"{path}: line 1 is the header of a different run ({', '.join(changed) or 'fingerprint'} changed); "
        "rerun without --resume to start over"
    )


def _merge(state: TracerState, outcomes: dict, sink) -> list[tuple[RiskAssessment, list]]:
    """Folds a finished hop into the state and hands its assessments to
    `sink`; returns (assessment, funding) pairs in (hop_depth, address) order
    regardless of worker interleaving."""
    analyzed = []
    for account in state.C_current:
        outcome = outcomes[account]
        if outcome.fetched:
            state.diagnostics["fetched"] += 1
        state.visited.add(account)
        if outcome.error is not None:
            state.diagnostics["errors"].append(outcome.error)
            continue
        analyzed.append((outcome.assessment, outcome.funding))
    analyzed.sort(key=lambda pair: (pair[0].hop_depth, pair[0].target_address))
    state.labeled += len(analyzed)
    state.high += sum(assessment.suspicion_level is SuspicionLevel.HIGH for assessment, _funding in analyzed)
    sink(assessment for assessment, _funding in analyzed)
    return analyzed


def _run_hop(state: TracerState, cfg: TracerConfig, ports: TracerPorts, journal, outcomes: dict) -> None:
    """Analyzes the frontier accounts missing from `outcomes`, journaling each
    once it and every account before it are done. When an exception leaves
    the hop, queued accounts are cancelled, running ones finish, and every
    completed account is journaled before the exception propagates."""
    depth = state.depth
    todo = [a for a in state.C_current if a not in outcomes]

    def accept(outcome: Outcome) -> None:
        outcomes[outcome.account] = outcome
        journal.append(outcome.to_record())

    if ports.workers <= 1 or len(todo) <= 1 or getattr(ports.backend, "in_process", False):
        for account in todo:
            accept(_analyze_account(account, depth, cfg, ports))
        return
    pool = ThreadPoolExecutor(max_workers=ports.workers)
    futures = [pool.submit(_analyze_account, a, depth, cfg, ports) for a in todo]
    try:
        for future in futures:
            accept(future.result())
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        for future in futures:
            if future.cancelled() or future.exception() is not None:
                continue
            outcome = future.result()
            if outcome.account not in outcomes:
                accept(outcome)
        raise
    finally:
        pool.shutdown()


def trace(
    seeds: list,
    chain: str,
    cfg: TracerConfig,
    ports: TracerPorts,
    resume: bool = False,
) -> TracerState:
    """Runs the trace to depth cfg.D and returns the final state.

    Seeds may be Address objects or bare hex strings; strings are placed on
    `chain`. The trace journals every attempted account under ports.out_dir,
    writes the labels to labels.jsonl and risky.jsonl there, and, once it
    completes, diagnostics.json and run.json. With resume=True each
    frontier account journaled there takes its journaled outcome instead of
    being analyzed; a journal written with other settings, seeds or prompt
    templates raises CheckpointError before any file is touched, and one
    whose accounts the trace does not reach at their hop, or that goes on
    past a hop journaled in part, raises it naming the line, before any
    account is analyzed or any file changed but the .part label files, which
    hold nothing a resume does not write again. A journal started over (no
    resume, or nothing to resume) first removes the outputs of an earlier
    trace. Once the outputs are in place, the journal is replaced by its
    header and a done line.

    A resume onto the done journal of a finished trace analyzes nothing and
    writes no file: it checks each output against the digest there, raising
    CheckpointError naming a missing or changed one, and returns the state
    the done line and diagnostics.json record. That state's depth, labeled,
    high and diagnostics are those of the finished trace; its C_current and
    visited stay empty.
    """
    if not seeds:
        raise ValueError("at least one seed address is required")
    frontier = []
    for seed in seeds:
        address = seed if isinstance(seed, Address) else normalize_address(seed, chain)
        if address not in frontier:
            frontier.append(address)
    state = TracerState(C_current=frontier)
    out_dir = ports.out_dir
    header = _journal_header(frontier, chain, cfg, ports)

    journal = Journal(out_dir / JOURNAL_NAME, header, resume)
    if journal.done is not None:
        return _finished(journal.done, journal.path)
    with closing(journal), _label_files(out_dir) as sink:
        if not journal.resumed:
            for name in OUTPUT_NAMES:
                (out_dir / name).unlink(missing_ok=True)
        while state.C_current and state.depth < cfg.D:
            outcomes = journal.take(state.depth, state.C_current)
            logger.info("hop %d: %d account(s), %d journaled", state.depth, len(state.C_current), len(outcomes))
            _run_hop(state, cfg, ports, journal, outcomes)
            analyzed = _merge(state, outcomes, sink)
            candidates = collect_frontier(analyzed, cfg, state.diagnostics)
            state.C_current = filter_frontier(
                candidates, state.visited, ports.now, cfg, state.diagnostics
            )
            state.depth += 1
        journal.finish(state.depth)
    manifest = {key: header[key] for key in ("fingerprint", "config", "seeds", "prompts")}
    manifest["versions"] = {"risktagger": __version__, "python": sys.version.split()[0]}
    for name, payload in (("diagnostics.json", state.diagnostics), ("run.json", manifest)):
        (out_dir / name).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    _compact(journal.path, header, state)
    return state
