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

Frontier admission happens at the end of every hop: duplicates collapse
(first mention wins), already-visited accounts break cycles, candidates
funded below min_value_threshold drop out, and the survivors are ranked by

    priority = value_weight*vnorm + recency_weight*rnorm + flag_weight*flag

where vnorm/rnorm use the same normalization as transaction retention and
flag is 1 when any funder of the candidate was rated High or Medium this
hop. Funding value is the raw smallest-unit sum across assets, a coarse
knob on purpose; failed transfers still nominate their receiver but move
no value.

With an out_dir the coordinator keeps the run journal, journal.jsonl, one
compact JSON object per line:

    {"kind": "header", "fingerprint", "config", "seeds", "prompts"}
    {"kind": "account", "address", "assessment", "funding"}   or
    {"kind": "account", "address", "fetched", "error"}        per attempted account
    {"kind": "hop_end", "hop", "frontier", "counters"}         per finished hop

The fingerprint is the sha256 of the effective config, the seed list and the
prompt template hashes. The config holds the clock the run ranked against
(`now`) even when none was configured, so a resume can reuse it. Account
lines follow frontier order; `funding` holds [value as a decimal string,
latest ts] for each of the assessment's out_neighbors, so a half-finished
hop's frontier rebuilds without refetching.
resume=True replays the journal, drops a torn last line, and analyzes only
the accounts it lacks; a fresh run truncates it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    BackendFailure,
    ChainUnavailable,
    CheckpointError,
    RateLimited,
    SchemaMismatch,
    SchemaViolation,
    UnknownChain,
    UnparseableVerdict,
)
from .model import Address, RiskAssessment, SuspicionLevel, TracerConfig, normalize_address
from .reasoner import Blacklist, infer_risk
from .reasoner.backends import DEFAULT_MAX_TOKENS, DEFAULT_TEMPERATURE
from .reasoner.prompts import template_hashes
from .translator import build_subgraph

logger = logging.getLogger(__name__)

# per-account failures that skip the account instead of killing the run
SKIPPABLE_ERRORS = (
    ChainUnavailable,
    RateLimited,
    UnknownChain,
    SchemaMismatch,
    BackendFailure,
    UnparseableVerdict,
    SchemaViolation,
)

JOURNAL_NAME = "journal.jsonl"


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
    R_final: list[RiskAssessment] = field(default_factory=list)
    L_all: list[RiskAssessment] = field(default_factory=list)
    diagnostics: dict = field(default_factory=_fresh_diagnostics)


@dataclass
class TracerPorts:
    """Everything the loop talks to, injected so tests can swap any piece."""

    client_for: object  # chain id -> adapter with fetch_transactions(Address)
    backend: object  # BackendPort
    blacklist: Blacklist
    now: int
    matcher: object = None  # cross-chain matcher; None disables bridge expansion
    reflection_rounds: int = 1
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    out_dir: Path | None = None  # the run journal lives here when set
    strict: bool = False
    workers: int = 1  # concurrent analyses per hop, unless the backend is in_process
    # settings the journal fingerprint covers; None means chain, tracer config and clock
    run_config: dict | None = None


@dataclass
class Outcome:
    """One attempted account: its assessment, or the diagnostics entry of its skip."""

    account: Address
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
            return Outcome(account, error=record["error"], fetched=record["fetched"])
        return Outcome(
            account,
            assessment=RiskAssessment.from_json(record["assessment"]),
            funding=[(int(value), ts) for value, ts in record["funding"]],
        )


@dataclass
class FrontierContext:
    """Aggregated funding facts per frontier candidate, for filter scoring."""

    now: int
    value_of: dict = field(default_factory=dict)  # Address -> raw int sum
    latest_ts: dict = field(default_factory=dict)  # Address -> newest funding ts
    flagged: set = field(default_factory=set)  # funded by a High/Medium account

    def add(self, address: Address, value: int, ts: int, sender_flagged: bool) -> None:
        if address not in self.value_of:
            self.value_of[address] = 0
            self.latest_ts[address] = ts
        self.value_of[address] += value
        self.latest_ts[address] = max(self.latest_ts[address], ts)
        if sender_flagged:
            self.flagged.add(address)


def filter_frontier(
    c_next: list[Address],
    visited: set,
    context: FrontierContext,
    cfg: TracerConfig,
    counters: dict,
) -> list[Address]:
    """Dedup, break cycles, prune dust, rank, cap. Returns the next frontier."""
    seen = set()
    deduped = []
    for address in c_next:
        if address in seen:
            counters["pruned_dup"] += 1
            continue
        seen.add(address)
        deduped.append(address)

    threshold = int(cfg.min_value_threshold)
    survivors = []
    for address in deduped:
        if address in visited:
            counters["pruned_visited"] += 1
            continue
        if context.value_of.get(address, 0) < threshold:
            counters["pruned_low_value"] += 1
            continue
        survivors.append(address)
    if not survivors:
        return []

    max_value = max(context.value_of[a] for a in survivors)
    oldest = min(context.latest_ts[a] for a in survivors)
    span = context.now - oldest

    def priority(address: Address) -> float:
        vnorm = context.value_of[address] / max_value if max_value > 0 else 0.0
        ts = context.latest_ts[address]
        rnorm = 1.0 if span <= 0 else 1.0 - (context.now - ts) / span
        flag = 1.0 if address in context.flagged else 0.0
        return cfg.value_weight * vnorm + cfg.recency_weight * rnorm + cfg.flag_weight * flag

    survivors.sort(key=lambda a: (-priority(a), a))
    if cfg.frontier_cap is not None and len(survivors) > cfg.frontier_cap:
        counters["pruned_cap"] += len(survivors) - cfg.frontier_cap
        survivors = survivors[: cfg.frontier_cap]
    return survivors


def collect_frontier(
    analyzed: list[tuple[RiskAssessment, list]], cfg: TracerConfig, now: int
) -> tuple[list[Address], FrontierContext]:
    """Out-neighbor nominations plus their funding context, in analysis order."""
    context = FrontierContext(now=now)
    c_next: list[Address] = []
    for assessment, funding in analyzed:
        if assessment.suspicion_level not in cfg.expand_levels:
            continue
        sender_flagged = assessment.suspicion_level in (
            SuspicionLevel.HIGH,
            SuspicionLevel.MEDIUM,
        )
        for neighbor, (value, ts) in zip(assessment.out_neighbors, funding):
            context.add(neighbor, value, ts, sender_flagged)
            c_next.append(neighbor)
    return c_next, context


def _analyze_account(account: Address, depth: int, cfg: TracerConfig, ports: TracerPorts) -> Outcome:
    """Worker body: fetch, expand, summarize, assess. A skippable error becomes
    a skip outcome, except under ports.strict, where it propagates."""
    fetched = False
    try:
        client = ports.client_for(account.chain)
        txs = client.fetch_transactions(account)
        fetched = True
        pairs = ports.matcher.expand(account, txs) if ports.matcher is not None else []
        sub = build_subgraph(account, txs, pairs, cfg, ports.now)
        assessment = infer_risk(
            sub,
            ports.blacklist,
            ports.backend,
            hop_depth=depth,
            reflection_rounds=ports.reflection_rounds,
            temperature=ports.temperature,
            max_tokens=ports.max_tokens,
        )
        return Outcome(account, assessment, list(sub.out_flows.values()))
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
        return Outcome(account, error=error, fetched=fetched)


class Journal:
    """Append-only writer of journal.jsonl (format in the module docstring)."""

    def __init__(self, fh):
        self._fh = fh

    @staticmethod
    def open(path: Path, header: dict, resume: bool) -> tuple["Journal", list[dict]]:
        """Starts a fresh journal, or with resume=True continues the one at
        path; returns the writer and the records to replay after the header."""
        records, good_bytes = _read_journal(path) if resume and path.exists() else ([], 0)
        if records:
            _check_header(records[0], header, path)
            if good_bytes < path.stat().st_size:
                logger.warning("dropping the torn last line of %s", path)
                os.truncate(path, good_bytes)
            return Journal(open(path, "a", encoding="utf-8")), records[1:]
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = Journal(open(path, "w", encoding="utf-8"))
        journal.append(header)
        return journal, []

    def append(self, record: dict) -> None:
        # compact separators keep json on its C encoder
        self._fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _read_journal(path: Path) -> tuple[list[dict], int]:
    """Records of every complete line, and the byte length they span. A last
    line that is unterminated or unparseable was torn by a crash and is left out."""
    lines = path.read_bytes().split(b"\n")
    records, good_bytes = [], 0
    for number, line in enumerate(lines[:-1], start=1):
        try:
            records.append(json.loads(line))
        except ValueError as err:
            if number == len(lines) - 1:
                break
            raise CheckpointError(f"{path}: unreadable line {number}: {err}") from err
        good_bytes += len(line) + 1
    return records, good_bytes


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
        "prompts": template_hashes(),
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
        f"{path} belongs to a different run ({', '.join(changed) or 'fingerprint'} changed); "
        "rerun without --resume to start over"
    )


def _merge(state: TracerState, outcomes: dict) -> list[tuple[RiskAssessment, list]]:
    """Folds a finished hop into the state; returns (assessment, funding) pairs
    in (hop_depth, address) order regardless of worker interleaving."""
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
    for assessment, _funding in analyzed:
        state.L_all.append(assessment)
        if assessment.suspicion_level is SuspicionLevel.HIGH:
            state.R_final.append(assessment)
    return analyzed


def _replay(records: list[dict], state: TracerState, path: Path) -> dict:
    """Folds every journaled hop into the state; returns the outcomes already
    recorded for the open hop, keyed by account."""
    outcomes: dict = {}
    members = set(state.C_current)
    for number, record in enumerate(records, start=2):
        try:
            if record["kind"] == "hop_end" and record["hop"] == state.depth:
                _merge(state, outcomes)
                state.C_current = [Address.from_json(a) for a in record["frontier"]]
                state.diagnostics.update(record["counters"])
                state.depth += 1
                outcomes, members = {}, set(state.C_current)
                continue
            outcome = Outcome.from_record(record) if record["kind"] == "account" else None
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: malformed line {number}: {err!r}") from err
        if outcome is None or outcome.account not in members:
            raise CheckpointError(f"{path}: line {number} does not belong to hop {state.depth}")
        outcomes[outcome.account] = outcome
    return outcomes


def _run_hop(state: TracerState, cfg: TracerConfig, ports: TracerPorts, journal, outcomes: dict) -> None:
    """Analyzes the frontier accounts missing from `outcomes`, journaling each
    once it and every account before it are done. When an exception leaves
    the hop, queued accounts are cancelled, running ones finish, and every
    completed account is journaled before the exception propagates."""
    depth = state.depth
    todo = [a for a in state.C_current if a not in outcomes]

    def accept(outcome: Outcome) -> None:
        outcomes[outcome.account] = outcome
        if journal is not None:
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
    `chain`. With resume=True the run journal under ports.out_dir is replayed
    and the trace continues where it stopped; a journal written with other
    settings, seeds or prompt templates raises CheckpointError.
    """
    if not seeds:
        raise ValueError("at least one seed address is required")
    frontier = []
    for seed in seeds:
        address = seed if isinstance(seed, Address) else normalize_address(seed, chain)
        if address not in frontier:
            frontier.append(address)
    state = TracerState(C_current=frontier)

    journal, records, outcomes = None, [], {}
    if ports.out_dir is not None:
        path = Path(ports.out_dir) / JOURNAL_NAME
        journal, records = Journal.open(path, _journal_header(frontier, chain, cfg, ports), resume)
    try:
        if records:
            outcomes = _replay(records, state, path)
            logger.info(
                "resuming at hop %d (%d analyzed, %d of the open hop journaled)",
                state.depth, len(state.L_all), len(outcomes),
            )
        while state.C_current and state.depth < cfg.D:
            logger.info("hop %d: %d account(s)", state.depth, len(state.C_current))
            _run_hop(state, cfg, ports, journal, outcomes)
            analyzed = _merge(state, outcomes)
            c_next, context = collect_frontier(analyzed, cfg, ports.now)
            state.C_current = filter_frontier(
                c_next, state.visited, context, cfg, state.diagnostics
            )
            if journal is not None:
                counters = {k: v for k, v in state.diagnostics.items() if k != "errors"}
                journal.append(
                    {
                        "kind": "hop_end",
                        "hop": state.depth,
                        "frontier": [a.to_json() for a in state.C_current],
                        "counters": counters,
                    }
                )
            state.depth += 1
            outcomes = {}
    finally:
        if journal is not None:
            journal.close()
    return state


def write_outputs(state: TracerState, out_dir: str | Path) -> None:
    """labels.jsonl (all assessments), risky.jsonl (High only), diagnostics.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "labels.jsonl", "w", encoding="utf-8") as fh:
        for assessment in state.L_all:
            fh.write(json.dumps(assessment.to_json(), ensure_ascii=False) + "\n")
    with open(out_dir / "risky.jsonl", "w", encoding="utf-8") as fh:
        for assessment in state.R_final:
            fh.write(json.dumps(assessment.to_json(), ensure_ascii=False) + "\n")
    (out_dir / "diagnostics.json").write_text(
        json.dumps(state.diagnostics, indent=2, ensure_ascii=False) + "\n"
    )
