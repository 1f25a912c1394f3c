"""Hop-by-hop tracing against hand-worked examples and the brute-force oracle."""

import json
import os
import random
import re
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import addr, labels_in, make_tx, tx_hash
from oracle_bfs import bfs_oracle
from risktagger.chaindata import BridgeTable, BridgeMatcher, FixtureChainClient
from risktagger.errors import BackendFailure, ChainUnavailable, CheckpointError, UnknownChain
from risktagger.model import Address, RiskAssessment, RiskDimension, SuspicionLevel, TracerConfig
from risktagger.reasoner import RuleBackend
from risktagger.tracer import (
    JOURNAL_NAME,
    OUTPUT_NAMES,
    TracerPorts,
    collect_frontier,
    file_sha256,
    filter_frontier,
    trace,
)

NOW = 1_750_000_000

S = addr(0x51)
A = addr(0xA1)
B = addr(0xB1)
C = addr(0xC1)
D_ADDR = addr(0xD1)
E = addr(0xE1)


def verdict_for(level, risky):
    dims = {
        "a_transaction_patterns": {"result": "anomalous burst" if risky else "", "evidence": ""},
        "b_fund_flows": {"result": "", "evidence": ""},
        "c_associated_addresses": {"result": "", "evidence": ""},
        "d_temporal_behavioral_signs": {"result": "", "evidence": ""},
    }
    return json.dumps({"suspicion_level": level, **dims})


class ScriptedBackend:
    """Rates each address by a fixed map; never asks for reflection changes."""

    name = "scripted"

    def __init__(self, levels, default="No Suspicion"):
        self.levels = {a.hex: lvl for a, lvl in levels.items()}
        self.default = default
        self.calls = 0

    def complete(self, prompt, temperature, max_tokens):
        if prompt.startswith("You are a blockchain security auditor"):
            return "No flaw."
        self.calls += 1
        level = self.levels.get(target_of(prompt), self.default)
        return verdict_for(level, risky=level in ("High", "Medium"))


def target_of(prompt):
    """Hex of the account an analyst prompt is about, read from the payload
    JSON the prompt embeds."""
    start = prompt.rfind("{", 0, prompt.index('"payload_version"'))
    payload, _ = json.JSONDecoder().raw_decode(prompt, start)
    return payload["target_address"]["hex"]


class ConstBackend:
    name = "const"

    def complete(self, prompt, temperature, max_tokens):
        if prompt.startswith("You are a blockchain security auditor"):
            return "No flaw."
        return verdict_for("No Suspicion", risky=False)


class ListStore:
    """What FixtureChainClient reads of a FixtureStore, over transfers held in
    a list: the rows touching an address, in list order. A chain no row is
    on is unknown."""

    def __init__(self, txs):
        self.txs = list(txs)

    def records_for(self, address):
        if not any(tx.chain == address.chain for tx in self.txs):
            raise UnknownChain(f"no fixture data for chain {address.chain!r}")
        return [tx for tx in self.txs if address in (tx.from_addr, tx.to_addr)]


def ports_for(txs, backend, out_dir, **overrides):
    client = FixtureChainClient(ListStore(txs))
    kwargs = dict(client=client, backend=backend, now=NOW, out_dir=out_dir)
    kwargs.update(overrides)
    return TracerPorts(**kwargs)


def star_txs():
    return [
        make_tx(1, S, A, value="100", ts=NOW - 100),
        make_tx(2, S, B, value="50", ts=NOW - 200),
        make_tx(3, A, C, value="10", ts=NOW - 50),
    ]


def star_backend():
    return ScriptedBackend({S: "Medium", A: "High", B: "Low", C: "No Suspicion"})


def high(out_dir):
    """The High-rated labels a trace wrote to risky.jsonl, in label order."""
    return labels_in(out_dir, "risky.jsonl")


# --- trace over the star fixture ---------------------------------------------


def test_star_graph_labels_and_risky_set(tmp_path):
    trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path))
    labels = labels_in(tmp_path)
    by_addr = {a.target_address: a for a in labels}
    assert set(by_addr) == {S, A, B, C}
    assert [r.target_address for r in high(tmp_path)] == [A]
    assert by_addr[S].hop_depth == 0
    assert by_addr[A].hop_depth == 1
    assert by_addr[B].hop_depth == 1
    assert by_addr[C].hop_depth == 2
    assert by_addr[A].suspicion_level is SuspicionLevel.HIGH
    # one label per account
    assert len(by_addr) == len(labels)


def test_labels_ordered_by_hop_then_address(tmp_path):
    trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path))
    keys = [(a.hop_depth, a.target_address) for a in labels_in(tmp_path)]
    assert keys == sorted(keys)


def test_seed_with_no_outgoing_txs(tmp_path):
    txs = [make_tx(1, A, S, value="5", ts=NOW - 10)]  # only inbound to the seed
    trace([S], "ethereum", TracerConfig(D=5), ports_for(txs, ConstBackend(), tmp_path))
    assert [a.target_address for a in labels_in(tmp_path)] == [S]
    assert high(tmp_path) == []


def test_depth_zero_rejected_at_config():
    with pytest.raises(ValueError):
        TracerConfig(D=0)


def reached(out_dir):
    """The accounts a trace labeled."""
    return {a.target_address for a in labels_in(out_dir)}


def test_depth_bound_respected(tmp_path):
    trace([S], "ethereum", TracerConfig(D=1), ports_for(star_txs(), star_backend(), tmp_path))
    assert reached(tmp_path) == {S}
    trace([S], "ethereum", TracerConfig(D=2), ports_for(star_txs(), star_backend(), tmp_path))
    assert reached(tmp_path) == {S, A, B}


def test_cycle_does_not_reanalyze(tmp_path):
    txs = [
        make_tx(1, S, A, value="9", ts=NOW - 100),
        make_tx(2, A, S, value="8", ts=NOW - 50),
    ]
    state = trace([S], "ethereum", TracerConfig(D=10), ports_for(txs, ConstBackend(), tmp_path))
    assert reached(tmp_path) == {S, A}
    assert state.diagnostics["pruned_visited"] == 1


def test_duplicate_seeds_collapse(tmp_path):
    trace([S, S], "ethereum", TracerConfig(D=1), ports_for(star_txs(), star_backend(), tmp_path))
    assert [a.target_address for a in labels_in(tmp_path)] == [S]


def test_expand_levels_restricts_growth(tmp_path):
    txs = star_txs() + [make_tx(4, B, D_ADDR, value="77", ts=NOW - 20)]
    cfg = TracerConfig(
        D=5,
        expand_levels=frozenset({SuspicionLevel.HIGH, SuspicionLevel.MEDIUM}),
    )
    trace([S], "ethereum", cfg, ports_for(txs, star_backend(), tmp_path))
    # B is Low, so its receiver D never enters the frontier; A is High, C does
    assert reached(tmp_path) == {S, A, B, C}


def test_failed_tx_still_yields_neighbor_but_no_value(tmp_path):
    txs = [make_tx(1, S, A, value="1000", ts=NOW - 10, is_error=True)]
    trace([S], "ethereum", TracerConfig(D=3), ports_for(txs, ConstBackend(), tmp_path))
    assert reached(tmp_path) == {S, A}
    cfg = TracerConfig(D=3, min_value_threshold="1")
    state = trace([S], "ethereum", cfg, ports_for(txs, ConstBackend(), tmp_path))
    assert reached(tmp_path) == {S}
    assert state.diagnostics["pruned_low_value"] == 1


# --- filter_frontier ----------------------------------------------------------


def table(entries):
    """A frontier candidate table: address -> [value, latest ts, flagged]."""
    return {address: [value, ts, flagged] for address, value, ts, flagged in entries}


def nominating(target, neighbors, level=SuspicionLevel.LOW):
    return RiskAssessment(
        target_address=target,
        suspicion_level=level,
        transaction_patterns=RiskDimension(),
        fund_flows=RiskDimension(),
        associated_addresses=RiskDimension(),
        temporal_signs=RiskDimension(),
        justification="",
        gaps="",
        out_neighbors=neighbors,
        hop_depth=0,
    )


def counters():
    return {"pruned_dup": 0, "pruned_visited": 0, "pruned_low_value": 0, "pruned_cap": 0}


def test_filter_dedup_and_visited():
    x, y = addr(0x10), addr(0x20)
    # nominations x, x, y: the repeat folds into x's entry
    analyzed = [
        (nominating(S, [x]), [(5, NOW - 10)]),
        (nominating(A, [x, y]), [(5, NOW - 20), (5, NOW - 10)]),
    ]
    diag = counters()
    candidates = collect_frontier(analyzed, TracerConfig(), diag)
    assert candidates == table([(x, 10, NOW - 10, False), (y, 5, NOW - 10, False)])
    out = filter_frontier(candidates, {y}, NOW, TracerConfig(), diag)
    assert out == [x]
    assert diag["pruned_dup"] == 1
    assert diag["pruned_visited"] == 1


def test_filter_zero_value_pruned_with_threshold():
    x = addr(0x10)
    diag = counters()
    out = filter_frontier(table([(x, 0, NOW - 10, False)]), set(), NOW, TracerConfig(min_value_threshold="1"), diag)
    assert out == []
    assert diag["pruned_low_value"] == 1


def test_filter_cap_keeps_top_three_by_priority():
    # hand-computed with weights 0.5/0.3/0.2, now=1000:
    #   max value 100, oldest ts 500, span 500
    #   c1: v=100 ts=900          -> 0.5*1.0 + 0.3*0.8          = 0.74
    #   c2: v=50  ts=1000         -> 0.5*0.5 + 0.3*1.0          = 0.55
    #   c3: v=10  ts=500  flagged -> 0.5*0.1 + 0.3*0.0 + 0.2    = 0.25
    #   c4: v=100 ts=500          -> 0.5*1.0                    = 0.50
    #   c5: v=0   ts=1000 flagged -> 0.3*1.0 + 0.2              = 0.50
    # c4/c5 tie resolved by ascending address, so c4 takes the third slot
    c1, c2, c3, c4, c5 = (addr(n) for n in (1, 2, 3, 4, 5))
    candidates = table(
        [
            (c1, 100, 900, False),
            (c2, 50, 1000, False),
            (c3, 10, 500, True),
            (c4, 100, 500, False),
            (c5, 0, 1000, True),
        ]
    )
    diag = counters()
    cfg = TracerConfig(frontier_cap=3)
    out = filter_frontier(candidates, set(), 1000, cfg, diag)
    assert out == [c1, c2, c4]
    assert diag["pruned_cap"] == 2


def test_filter_unbounded_keeps_all():
    cands = [addr(n) for n in range(1, 6)]
    candidates = table([(a, 10, NOW - 10, False) for a in cands])
    out = filter_frontier(candidates, set(), NOW, TracerConfig(frontier_cap=None), counters())
    assert sorted(out) == sorted(cands)


def test_filter_degenerate_recency_scores_one():
    # all candidates share now as timestamp: rnorm must be 1.0, not a crash
    x, y = addr(0x10), addr(0x20)
    candidates = table([(x, 5, NOW, False), (y, 9, NOW, False)])
    out = filter_frontier(candidates, set(), NOW, TracerConfig(frontier_cap=1), counters())
    assert out == [y]


# --- error handling -----------------------------------------------------------


class FlakyClient:
    def __init__(self, inner, fail_for):
        self.inner = inner
        self.fail_for = set(fail_for)

    def fetch_transactions(self, address):
        if address in self.fail_for:
            raise ChainUnavailable(f"simulated outage for {address.hex}")
        return self.inner.fetch_transactions(address)


def test_account_error_skips_and_records(tmp_path):
    client = FlakyClient(FixtureChainClient(ListStore(star_txs())), {A})
    ports = TracerPorts(client=client, backend=star_backend(), now=NOW, out_dir=tmp_path)
    state = trace([S], "ethereum", TracerConfig(D=5), ports)
    assert reached(tmp_path) == {S, B}  # A skipped, so C stays unreachable
    assert len(state.diagnostics["errors"]) == 1
    assert state.diagnostics["errors"][0]["address"] == A.hex


def test_a_payload_row_that_does_not_match_its_columns_is_a_recorded_skip(tmp_path):
    class ShortRowBackend(RuleBackend):
        """The rule engine, shown A's payload with the last cell of its last row cut."""

        def complete(self, prompt, temperature, max_tokens):
            if target_of(prompt) == A.hex:
                prompt = prompt.replace(",false]]", "]]", 1)
            return super().complete(prompt, temperature, max_tokens)

    state = trace([S], "ethereum", TracerConfig(D=5), ports_for(star_txs(), ShortRowBackend(), tmp_path))
    assert reached(tmp_path) == {S, B}  # A skipped, so C stays unreachable
    assert [(e["address"], e["error"]) for e in state.diagnostics["errors"]] == [(A.hex, "BackendFailure")]


@pytest.mark.parametrize(
    "old, new",
    [('"direction"', '"dir"'), ('"counterparty"', '"peer"'), ('"in"', '"inward"')],
    ids=["no-direction-column", "no-counterparty-column", "unknown-direction"],
)
def test_a_payload_table_the_rules_cannot_read_is_a_recorded_skip(tmp_path, old, new):
    class EditedPayloadBackend(RuleBackend):
        """The rule engine, shown A's payload with its first `old` made `new`."""

        def complete(self, prompt, temperature, max_tokens):
            if target_of(prompt) == A.hex:
                start = prompt.index('{"payload_version"')
                prompt = prompt[:start] + prompt[start:].replace(old, new, 1)
            return super().complete(prompt, temperature, max_tokens)

    state = trace([S], "ethereum", TracerConfig(D=5), ports_for(star_txs(), EditedPayloadBackend(), tmp_path))
    assert reached(tmp_path) == {S, B}  # A skipped, so C stays unreachable
    assert [(e["address"], e["error"]) for e in state.diagnostics["errors"]] == [(A.hex, "BackendFailure")]


def test_resume_keeps_a_journaled_skip(tmp_path):
    client = FlakyClient(FixtureChainClient(ListStore(star_txs())), {A})
    straight = tmp_path / "straight"
    ports = TracerPorts(client=client, backend=star_backend(), now=NOW, out_dir=straight)
    skipped = snapshot(trace([S], "ethereum", TracerConfig(D=5), ports), straight)
    # Ctrl-C as B's verdict is due, the last of the trace: S and A's skip are journaled
    out = tmp_path / "out"
    ports = TracerPorts(client=client, backend=InterruptAfter(star_backend(), allow=1), now=NOW, out_dir=out)
    with pytest.raises(KeyboardInterrupt):
        trace([S], "ethereum", TracerConfig(D=5), ports)
    # a healthy client on resume: A's journaled skip stands and only B is analyzed
    backend = star_backend()
    resumed = trace([S], "ethereum", TracerConfig(D=5), ports_for(star_txs(), backend, out), resume=True)
    assert snapshot(resumed, out) == skipped
    assert [a.target_address for a in labels_in(out)] == [S, B]
    assert backend.calls == 1


def test_strict_mode_aborts_on_account_error(tmp_path):
    client = FlakyClient(FixtureChainClient(ListStore(star_txs())), {A})
    ports = TracerPorts(
        client=client,
        backend=star_backend(),
        now=NOW,
        out_dir=tmp_path,
        strict=True,
    )
    with pytest.raises(ChainUnavailable):
        trace([S], "ethereum", TracerConfig(D=5), ports)


# --- cross-chain hop ----------------------------------------------------------


def test_bridge_landing_analyzed_on_destination_chain(tmp_path):
    bridge_eth = addr(0xF0)
    bridge_bsc = addr(0xF0, "bsc")
    landing = addr(0xE7, "bsc")
    table_file = tmp_path / "bridges.txt"
    table_file.write_text(
        "ethereum,{},hopline\nbsc,{},hopline\n".format(bridge_eth.hex, bridge_bsc.hex)
    )
    txs = [
        make_tx(1, S, bridge_eth, value="5000", ts=NOW - 900),
        make_tx(2, bridge_bsc, landing, value="5000", ts=NOW - 600),
        make_tx(3, landing, addr(0xE8, "bsc"), value="4000", ts=NOW - 300),
    ]
    store = ListStore(txs)
    matcher = BridgeMatcher(BridgeTable.load(table_file), store.records_for)
    client = FixtureChainClient(store)
    out = tmp_path / "out"
    ports = TracerPorts(
        client=client,
        backend=ConstBackend(),
        matcher=matcher,
        now=NOW,
        out_dir=out,
    )
    trace([S], "ethereum", TracerConfig(D=4), ports)
    by_addr = {a.target_address: a for a in labels_in(out)}
    assert landing in by_addr
    assert by_addr[landing].target_address.chain == "bsc"
    assert by_addr[landing].hop_depth == 1
    assert addr(0xE8, "bsc") in by_addr  # trace continues on the far chain


# --- run journal and resume ------------------------------------------------------


def journal_records(out_dir):
    return [json.loads(line) for line in (out_dir / JOURNAL_NAME).read_text().splitlines()]


def first_of_hop(out_dir, depth):
    """The first account of a hop's frontier, read from the journal of a
    sequential run stopped before it completed (see stopped_short)."""
    return next(
        Address.from_json(r["address"])
        for r in journal_records(out_dir)[1:]
        if r["assessment"]["hop_depth"] == depth
    )


def stopped_short(seeds, txs, cfg, out_dir, inner, allow):
    """Runs a sequential trace into out_dir that Ctrl-C stops once `allow`
    verdicts are in, so that its journal keeps the account lines of every
    account analyzed before then."""
    with pytest.raises(KeyboardInterrupt):
        trace(seeds, "ethereum", cfg, ports_for(txs, InterruptAfter(inner, allow=allow), out_dir))


def fail_journal_replace(monkeypatch, error):
    """Makes moving a new journal over journal.jsonl raise `error`, as a crash
    between the label rename and the journal replacement would."""
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == JOURNAL_NAME:
            raise error
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)


def snapshot(state, out_dir):
    """Everything a finished trace leaves, as comparable JSON text: its final
    state and the bytes of the outputs it wrote to out_dir. Take it before
    another trace writes there."""
    return json.dumps(
        {
            "depth": state.depth,
            "counts": [state.labeled, state.high],
            "C_current": [a.to_json() for a in state.C_current],
            "visited": [a.to_json() for a in sorted(state.visited)],
            "diagnostics": state.diagnostics,
            "outputs": {name: (out_dir / name).read_text(encoding="utf-8") for name in OUTPUT_NAMES},
        }
    )


def test_checkpoints_written_per_hop(tmp_path):
    # Ctrl-C as C's verdict is due, the last of the trace
    stopped_short([S], star_txs(), TracerConfig(D=3), tmp_path, star_backend(), allow=3)
    assert sorted(p.name for p in tmp_path.iterdir()) == [JOURNAL_NAME]
    records = journal_records(tmp_path)
    assert [r["kind"] for r in records] == ["header", "account", "account", "account"]
    assert records[0]["seeds"] == [S.to_json()]
    # hop by hop, each hop's account lines in its frontier order
    assert [(r["assessment"]["hop_depth"], r["address"]) for r in records[1:]] == [
        (0, S.to_json()), (1, A.to_json()), (1, B.to_json()),
    ]

    state = trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path), resume=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([JOURNAL_NAME, *OUTPUT_NAMES])
    assert (state.labeled, state.high) == (4, 1)
    assert json.loads((tmp_path / "diagnostics.json").read_text()) == state.diagnostics
    labels = [a.to_json() for a in labels_in(tmp_path)]
    journaled = [r["assessment"] for r in records[1:]]
    assert sorted(journaled, key=json.dumps) == sorted(labels[:3], key=json.dumps)  # S, then A and B
    # the completed trace keeps its header and a done line in place of the account lines
    assert journal_records(tmp_path) == [
        records[0],
        {
            "kind": "done",
            "outputs": {name: file_sha256(tmp_path / name) for name in OUTPUT_NAMES},
            "labeled": 4,
            "high": 1,
            "hops": 3,
        },
    ]
    assert state.diagnostics["fetched"] == 4


class AbortingBackend:
    """Scripted backend that dies after a fixed number of verdicts."""

    def __init__(self, inner, allow):
        self.inner = inner
        self.allow = allow
        self.name = inner.name

    def complete(self, prompt, temperature, max_tokens):
        if not prompt.startswith("You are a blockchain security auditor"):
            if self.allow == 0:
                raise BackendFailure("simulated crash")
            self.allow -= 1
        return self.inner.complete(prompt, temperature, max_tokens)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = TracerConfig(D=3)
    full = tmp_path / "full"
    straight = snapshot(trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), full)), full)

    out = tmp_path / "interrupted"
    out.mkdir()
    # dies on the first verdict of hop 1, after hop 0 was journaled
    crashy = ports_for(star_txs(), AbortingBackend(star_backend(), allow=1), out, strict=True)
    with pytest.raises(BackendFailure):
        trace([S], "ethereum", cfg, crashy)
    assert [r["kind"] for r in journal_records(out)] == ["header", "account"]
    assert sorted(p.name for p in out.iterdir()) == [JOURNAL_NAME]

    resumed = trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), out), resume=True)
    assert snapshot(resumed, out) == straight


def test_resume_without_checkpoint_starts_fresh(tmp_path):
    state = trace([S], "ethereum", TracerConfig(D=1), ports_for(star_txs(), star_backend(), tmp_path), resume=True)
    assert [a.target_address for a in labels_in(tmp_path)] == [S]
    assert state.labeled == 1


def test_fresh_run_truncates_the_journal(tmp_path):
    stopped_short([S], star_txs(), TracerConfig(D=3), tmp_path, star_backend(), allow=3)
    assert [r["kind"] for r in journal_records(tmp_path)] == ["header", "account", "account", "account"]
    # the D=2 trace reaches S, A and B; Ctrl-C as B's verdict is due
    stopped_short([S], star_txs(), TracerConfig(D=2), tmp_path, star_backend(), allow=2)
    assert [r["kind"] for r in journal_records(tmp_path)] == ["header", "account", "account"]


def test_a_fresh_trace_interrupted_mid_hop_leaves_no_outputs_of_the_trace_before(tmp_path):
    trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path))
    assert {p.name for p in tmp_path.iterdir()} == {JOURNAL_NAME, *OUTPUT_NAMES}
    # Ctrl-C between A and B, the two accounts of hop 1
    ports = ports_for(star_txs(), InterruptAfter(star_backend(), allow=2), tmp_path)
    with pytest.raises(KeyboardInterrupt):
        trace([S], "ethereum", TracerConfig(D=2), ports)
    assert sorted(p.name for p in tmp_path.iterdir()) == [JOURNAL_NAME]
    assert [r["kind"] for r in journal_records(tmp_path)] == ["header", "account", "account"]


def test_resume_refuses_a_journal_from_another_run(tmp_path):
    trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path))
    before = (tmp_path / JOURNAL_NAME).read_bytes()
    ports = ports_for(star_txs(), star_backend(), tmp_path)
    with pytest.raises(CheckpointError, match=r"config\.tracer\.D"):
        trace([S], "ethereum", TracerConfig(D=2), ports, resume=True)
    assert (tmp_path / JOURNAL_NAME).read_bytes() == before


@pytest.mark.parametrize("cut", ["boundary", "account"])
def test_resume_drops_a_torn_last_line(tmp_path, cut):
    cfg = TracerConfig(D=3)
    straight = tmp_path / "straight"
    full = snapshot(trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), straight)), straight)
    out = tmp_path / "out"
    stopped_short([S], star_txs(), cfg, out, star_backend(), allow=3)  # S, A and B journaled
    journal = out / JOURNAL_NAME
    whole = journal.read_bytes()
    last = whole.splitlines(keepends=True)[-1]
    # cut before the last account line, or tear that line in half
    torn = last[: len(last) // 2] if cut == "account" else b""
    journal.write_bytes(whole[: -len(last)] + torn)

    # the resume redoes B only, journaling it in place of the torn line; Ctrl-C as C's verdict is due
    again = InterruptAfter(star_backend(), allow=1)
    with pytest.raises(KeyboardInterrupt):
        trace([S], "ethereum", cfg, ports_for(star_txs(), again, out), resume=True)
    assert again.calls == 1
    assert journal.read_bytes() == whole

    backend = star_backend()
    resumed = trace([S], "ethereum", cfg, ports_for(star_txs(), backend, out), resume=True)
    assert snapshot(resumed, out) == full
    assert backend.calls == 1
    assert journal.read_bytes() == (straight / JOURNAL_NAME).read_bytes()


def test_resume_refuses_a_header_line_that_is_not_an_object(tmp_path):
    journal = tmp_path / JOURNAL_NAME
    journal.write_text("null\n")
    with pytest.raises(CheckpointError, match="different run"):
        trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path), resume=True)
    assert journal.read_text() == "null\n"


def test_resume_rejects_a_corrupt_middle_line(tmp_path):
    stopped_short([S], star_txs(), TracerConfig(D=3), tmp_path, star_backend(), allow=3)  # S, A and B journaled
    journal = tmp_path / JOURNAL_NAME
    lines = journal.read_bytes().splitlines(keepends=True)
    lines[2] = b"{not json\n"
    journal.write_bytes(b"".join(lines))
    with pytest.raises(CheckpointError, match="line 3"):
        trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), star_backend(), tmp_path), resume=True)


@pytest.mark.parametrize(
    "part, edit, error",
    [
        ("address", {"hex": "0xZZ"}, "MalformedAddress"),
        ("address", {"chain": 5}, "MalformedAddress"),
        ("assessment", {"fund_flows": []}, "AttributeError"),
        ("assessment", {"suspicion_level": 5}, "AttributeError"),
    ],
    ids=["hex-not-40-digits", "chain-not-a-string", "dimension-not-an-object", "level-not-a-string"],
)
def test_resume_refuses_an_account_line_with_a_field_of_the_wrong_form(tmp_path, part, edit, error):
    stopped_short([S], star_txs(), TracerConfig(D=3), tmp_path, star_backend(), allow=3)  # S, A and B journaled
    records = journal_records(tmp_path)
    records[3][part].update(edit)
    journal = tmp_path / JOURNAL_NAME
    journal.write_text("".join(json.dumps(r) + "\n" for r in records))
    before = journal.read_bytes()
    backend = star_backend()
    with pytest.raises(CheckpointError, match=rf"{re.escape(str(journal))}: malformed line 4: {error}"):
        trace([S], "ethereum", TracerConfig(D=3), ports_for(star_txs(), backend, tmp_path), resume=True)
    assert backend.calls == 0
    assert journal.read_bytes() == before


class InterruptAfter:
    """Thread-safe call budget; every call past it raises KeyboardInterrupt, as
    Ctrl-C would. The `slow` account's call waits first, so with several
    workers the accounts after it in frontier order finish before it."""

    def __init__(self, inner, allow, slow=None):
        self.inner = inner
        self.name = inner.name
        self.allow = allow
        self.slow = slow
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt, temperature, max_tokens):
        if self.slow is not None and target_of(prompt) == self.slow.hex:
            time.sleep(0.2)
        with self.lock:
            if self.calls >= self.allow:
                raise KeyboardInterrupt
            self.calls += 1
        return self.inner.complete(prompt, temperature, max_tokens)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mid_hop_interrupt_keeps_every_finished_account(tmp_path, workers):
    nodes, txs = random_graph(11, accounts=60, edges=180)  # hops of 1, 2, 5 and 13 accounts
    cfg = TracerConfig(D=4)
    counted = InterruptAfter(ConstBackend(), allow=10**9)
    straight_dir = tmp_path / "straight"
    straight = snapshot(trace([nodes[0]], "ethereum", cfg, ports_for(txs, counted, straight_dir)), straight_dir)
    sizes = list(Counter(a.hop_depth for a in labels_in(straight_dir)).values())
    assert sizes == [1, 2, 5, 13]
    widest = max(range(len(sizes)), key=sizes.__getitem__)
    budget = sum(sizes[:widest]) + sizes[widest] // 2
    # the widest hop's first account in frontier order stalls until the budget is spent
    order_dir = tmp_path / "order"
    stopped_short([nodes[0]], txs, cfg, order_dir, ConstBackend(), allow=counted.calls - 1)
    first = first_of_hop(order_dir, widest)

    out = tmp_path / "run"
    interrupted = InterruptAfter(ConstBackend(), allow=budget, slow=first if workers > 1 else None)
    with pytest.raises(KeyboardInterrupt):
        trace([nodes[0]], "ethereum", cfg, ports_for(txs, interrupted, out, workers=workers))
    journaled = [r for r in journal_records(out) if r["kind"] == "account"]
    assert len(journaled) == budget
    assert sorted(p.name for p in out.iterdir()) == [JOURNAL_NAME]

    again = InterruptAfter(ConstBackend(), allow=10**9)
    resumed = trace([nodes[0]], "ethereum", cfg, ports_for(txs, again, out, workers=workers), resume=True)
    assert snapshot(resumed, out) == straight
    assert interrupted.calls + again.calls == counted.calls


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_resume_interrupted_again_resumes_to_the_straight_run(tmp_path, workers):
    nodes, txs = random_graph(11, accounts=60, edges=180)  # hops of 1, 2, 5 and 13 accounts
    cfg = TracerConfig(D=4)
    counted = InterruptAfter(ConstBackend(), allow=10**9)
    straight_dir = tmp_path / "straight"
    straight = snapshot(trace([nodes[0]], "ethereum", cfg, ports_for(txs, counted, straight_dir)), straight_dir)

    order_dir = tmp_path / "order"
    stopped_short([nodes[0]], txs, cfg, order_dir, ConstBackend(), allow=counted.calls - 1)

    out = tmp_path / "run"
    calls = 0
    # Ctrl-C 2 accounts into hop 2, then, resumed, 3 accounts into hop 3; with
    # several workers each hop's first account stalls, so later ones finish first
    for allow, depth, resume in ((5, 2, False), (6, 3, True)):
        slow = first_of_hop(order_dir, depth) if workers > 1 else None
        interrupted = InterruptAfter(ConstBackend(), allow=allow, slow=slow)
        ports = ports_for(txs, interrupted, out, workers=workers)
        with pytest.raises(KeyboardInterrupt):
            trace([nodes[0]], "ethereum", cfg, ports, resume=resume)
        calls += interrupted.calls
    # both runs journaled each account they analyzed once, the resume after the first run's lines
    journaled = Counter(r["address"]["hex"] for r in journal_records(out)[1:])
    assert set(journaled.values()) == {1} and sum(journaled.values()) == calls
    assert set(journaled) <= {a.target_address.hex for a in labels_in(straight_dir)}
    if workers == 1:
        assert (order_dir / JOURNAL_NAME).read_bytes().startswith((out / JOURNAL_NAME).read_bytes())
    last = InterruptAfter(ConstBackend(), allow=10**9)
    resumed = trace([nodes[0]], "ethereum", cfg, ports_for(txs, last, out, workers=workers), resume=True)
    assert snapshot(resumed, out) == straight
    assert calls + last.calls == counted.calls
    assert (out / JOURNAL_NAME).read_bytes() == (straight_dir / JOURNAL_NAME).read_bytes()


def edit_hop(address, depth):
    """Journal edit: the account's line claims another hop."""

    def edit(records):
        for record in records[1:]:
            if record["address"] == address.to_json():
                record["assessment"]["hop_depth"] = depth
        return records

    return edit


def add_stray(address, depth):
    """Journal edit: C's line copied for another address at the given hop."""

    def edit(records):
        line = next(r for r in records[1:] if r["address"] == C.to_json())
        assessment = dict(line["assessment"], target_address=address.to_json(), hop_depth=depth)
        return records + [dict(line, address=address.to_json(), assessment=assessment)]

    return edit


def repeat(address):
    """Journal edit: the account's line appears a second time."""

    def edit(records):
        return records + [r for r in records[1:] if r["address"] == address.to_json()]

    return edit


def repeat_in_place(address):
    """Journal edit: the account's line appears twice in a row, within its hop."""

    def edit(records):
        line = next(r for r in records[1:] if r["address"] == address.to_json())
        at = records.index(line)
        return records[: at + 1] + [line] + records[at + 1 :]

    return edit


TORN_TAIL = '{"kind":"acc'  # a last line a crash cut short


def star_to_e_txs():
    """The star graph with C paying E, reached at hop 3."""
    return star_txs() + [make_tx(4, C, E, value="5", ts=NOW - 20)]


@pytest.mark.parametrize(
    "edit, named, whole",
    [
        (edit_hop(B, 2), B, False),  # reached at hop 1, journaled at hop 2
        (edit_hop(C, 1), C, False),  # journaled at hop 1, reached at hop 2
        (add_stray(D_ADDR, 2), D_ADDR, False),  # never reached, journaled within the trace's depth
        (add_stray(D_ADDR, 7), D_ADDR, True),  # never reached, journaled past the trace's depth
        (repeat(B), B, False),
        (repeat_in_place(A), A, False),  # twice within hop 1
    ],
    ids=["reached-earlier", "reached-later", "unreached", "past-depth", "repeated", "repeated-within-a-hop"],
)
def test_resume_refuses_a_misplaced_account(tmp_path, monkeypatch, edit, named, whole):
    cfg = TracerConfig(D=4)
    if whole:
        # a line past the last hop follows only a journal of every hop: Ctrl-C
        # as the completed trace's journal is replaced leaves that one
        with monkeypatch.context() as patch:
            fail_journal_replace(patch, KeyboardInterrupt)
            with pytest.raises(KeyboardInterrupt):
                trace([S], "ethereum", cfg, ports_for(star_to_e_txs(), star_backend(), tmp_path))
    else:
        # Ctrl-C as E's verdict is due, the last of the trace
        stopped_short([S], star_to_e_txs(), cfg, tmp_path, star_backend(), allow=4)
    journal = tmp_path / JOURNAL_NAME
    journal.write_text("".join(json.dumps(r) + "\n" for r in edit(journal_records(tmp_path))) + TORN_TAIL)
    before = journal.read_bytes()

    backend = star_backend()
    with pytest.raises(CheckpointError, match=rf"line \d+ .*account {named.hex} "):
        trace([S], "ethereum", cfg, ports_for(star_to_e_txs(), backend, tmp_path), resume=True)
    assert backend.calls == 0
    assert journal.read_bytes() == before


def test_resume_refuses_a_hop_journaled_in_part_that_later_lines_follow(tmp_path):
    cfg = TracerConfig(D=4)
    # Ctrl-C as E's verdict is due, the last of the trace
    stopped_short([S], star_to_e_txs(), cfg, tmp_path, star_backend(), allow=4)
    journal = tmp_path / JOURNAL_NAME
    # B's line goes, so hop 1 is journaled in part, yet C's line of hop 2 follows it
    records = [r for r in journal_records(tmp_path) if r.get("address") != B.to_json()]
    journal.write_text("".join(json.dumps(r) + "\n" for r in records) + TORN_TAIL)
    before = journal.read_bytes()

    backend = star_backend()
    with pytest.raises(CheckpointError, match=rf"line \d+ .*hop 1 is journaled in part: account {B.hex} "):
        trace([S], "ethereum", cfg, ports_for(star_to_e_txs(), backend, tmp_path), resume=True)
    assert backend.calls == 0
    assert journal.read_bytes() == before


def edit_journal(records, kind, rng):
    """A stopped journal's records with one structural edit to its account
    lines: one dropped, duplicated, moved or claiming another hop, or a line
    added for an account no trace reaches."""
    header, lines = records[0], records[1:]
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "move":
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif kind == "hop":
        depth = lines[i]["assessment"]["hop_depth"]
        moved = dict(lines[i]["assessment"], hop_depth=rng.choice([d for d in range(5) if d != depth]))
        lines[i] = dict(lines[i], assessment=moved)
    else:
        stray = addr(0xDEAD).to_json()
        line = dict(lines[i], address=stray, assessment=dict(lines[i]["assessment"], target_address=stray))
        lines.insert(rng.randrange(len(lines) + 1), line)
    return [header, *lines]


def test_an_edited_journal_resumes_to_the_straight_run_or_is_refused_unchanged(tmp_path):
    cfg = TracerConfig(D=4)
    seen = Counter()
    for seed in range(4):
        nodes, txs = random_graph(seed, accounts=20, edges=40)  # 11 to 16 accounts over 4 hops
        counted = InterruptAfter(ConstBackend(), allow=10**9)
        straight_dir = tmp_path / f"straight-{seed}"
        straight = snapshot(trace([nodes[0]], "ethereum", cfg, ports_for(txs, counted, straight_dir)), straight_dir)
        rng = random.Random(seed)
        for case in range(15):
            kind = ("drop", "duplicate", "move", "hop", "stray")[case % 5]
            out = tmp_path / f"{seed}-{case}"
            stopped_short([nodes[0]], txs, cfg, out, ConstBackend(), allow=rng.randrange(2, counted.calls))
            edited = edit_journal(journal_records(out), kind, rng)
            tail = TORN_TAIL if rng.random() < 0.5 else ""
            (out / JOURNAL_NAME).write_text("".join(json.dumps(r) + "\n" for r in edited) + tail)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            backend = InterruptAfter(ConstBackend(), allow=10**9)
            try:
                resumed = trace([nodes[0]], "ethereum", cfg, ports_for(txs, backend, out), resume=True)
            except CheckpointError as err:
                assert re.search(r"line \d+", str(err)), (seed, case, str(err))
                assert {p.name: p.read_bytes() for p in out.iterdir()} == before, (seed, case)
                assert backend.calls == 0, (seed, case)
                seen[kind, "refused"] += 1
                continue
            assert snapshot(resumed, out) == straight, (seed, case)
            assert (out / JOURNAL_NAME).read_bytes() == (straight_dir / JOURNAL_NAME).read_bytes()
            seen[kind, "equal"] += 1
    # a duplicated line, a line moved to another hop and a stray account are refused wherever they go
    assert {outcome for (kind, outcome) in seen} == {"equal", "refused"}
    assert not seen["duplicate", "equal"] and not seen["hop", "equal"] and not seen["stray", "equal"]


class Uncalled:
    """Chain client and backend of a trace that has nothing left to analyze."""

    name = "uncalled"

    def fetch_transactions(self, address):
        raise AssertionError(f"fetched {address.hex}")

    def complete(self, prompt, temperature, max_tokens):
        raise AssertionError("called the backend")


def test_resuming_a_done_journal_analyzes_nothing_and_writes_nothing(tmp_path):
    cfg = TracerConfig(D=3)
    straight = trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), tmp_path))
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
    assert sorted(before) == sorted([JOURNAL_NAME, *OUTPUT_NAMES])

    ports = TracerPorts(client=Uncalled(), backend=Uncalled(), now=NOW, out_dir=tmp_path)
    resumed = trace([S], "ethereum", cfg, ports, resume=True)
    assert (resumed.depth, resumed.labeled, resumed.high) == (straight.depth, straight.labeled, straight.high) == (3, 4, 1)
    assert resumed.diagnostics == straight.diagnostics
    assert (resumed.C_current, resumed.visited) == ([], set())
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("tail", [b'{"kind":"done"}\n', b'{"kind":"acc'], ids=["line", "torn-line"])
def test_resume_refuses_a_line_after_the_done_line(tmp_path, tail):
    cfg = TracerConfig(D=3)
    trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), tmp_path))
    journal = tmp_path / JOURNAL_NAME
    journal.write_bytes(journal.read_bytes() + tail)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    ports = TracerPorts(client=Uncalled(), backend=Uncalled(), now=NOW, out_dir=tmp_path)
    with pytest.raises(CheckpointError, match="line 3 follows the done line"):
        trace([S], "ethereum", cfg, ports, resume=True)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_crash_before_the_journal_is_replaced_resumes_to_the_straight_run(tmp_path, monkeypatch):
    nodes, txs = random_graph(11, accounts=60, edges=180)
    cfg = TracerConfig(D=4)
    straight_dir = tmp_path / "straight"
    straight = snapshot(trace([nodes[0]], "ethereum", cfg, ports_for(txs, ConstBackend(), straight_dir)), straight_dir)

    out = tmp_path / "run"
    with monkeypatch.context() as patch:
        fail_journal_replace(patch, OSError("simulated crash"))
        with pytest.raises(OSError, match="simulated crash"):
            trace([nodes[0]], "ethereum", cfg, ports_for(txs, ConstBackend(), out))
    # the outputs are in place beside the journal of every account
    assert sorted(p.name for p in out.iterdir()) == sorted([JOURNAL_NAME, *OUTPUT_NAMES])
    assert [r["kind"] for r in journal_records(out)] == ["header"] + ["account"] * 21

    backend = InterruptAfter(ConstBackend(), allow=10**9)
    resumed = trace([nodes[0]], "ethereum", cfg, ports_for(txs, backend, out), resume=True)
    assert backend.calls == 0
    assert snapshot(resumed, out) == straight
    assert [r["kind"] for r in journal_records(out)] == ["header", "done"]
    assert (out / JOURNAL_NAME).read_bytes() == (straight_dir / JOURNAL_NAME).read_bytes()


def test_no_journal_replacement_stays_in_the_run_directory(tmp_path, monkeypatch):
    cfg = TracerConfig(D=3)
    replacement = tmp_path / (JOURNAL_NAME + ".tmp")
    # one a crash left behind goes when the journal starts over
    replacement.write_text("left by a crash\n")
    stopped_short([S], star_txs(), cfg, tmp_path, star_backend(), allow=3)
    assert sorted(p.name for p in tmp_path.iterdir()) == [JOURNAL_NAME]
    # one whose move fails goes at once
    with monkeypatch.context() as patch:
        fail_journal_replace(patch, OSError("simulated crash"))
        with pytest.raises(OSError):
            trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), tmp_path), resume=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([JOURNAL_NAME, *OUTPUT_NAMES])
    # one a crash left behind goes when the journal is replaced
    replacement.write_text("left by a crash\n")
    trace([S], "ethereum", cfg, ports_for(star_txs(), star_backend(), tmp_path), resume=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([JOURNAL_NAME, *OUTPUT_NAMES])
    assert [r["kind"] for r in journal_records(tmp_path)] == ["header", "done"]


class IndexedStore:
    """ListStore's answers through an index by address, for graphs too large
    to scan on every fetch."""

    def __init__(self, txs):
        self.by_address = {}
        for tx in txs:
            for address in {tx.from_addr, tx.to_addr}:
                self.by_address.setdefault(address, []).append(tx)

    def records_for(self, address):
        return self.by_address.get(address, [])


def test_resuming_a_journal_holds_one_hop_of_it(tmp_path):
    # 55 layers of 10 accounts, each paying every account of the next layer:
    # 541 accounts reached over hops of 10, each with 10 funders and receivers
    layers = [[addr(0x10000 + 0x100 * layer + i) for i in range(10)] for layer in range(55)]
    txs = [
        make_tx(100 * n + 10 * i + j + 1, src, dst, value=10**18 + j, ts=NOW - 1000 * (len(layers) - n) + j)
        for n, (payers, payees) in enumerate(zip(layers, layers[1:]))
        for i, src in enumerate(payers)
        for j, dst in enumerate(payees)
    ]
    cfg = TracerConfig(D=len(layers))
    client = FixtureChainClient(IndexedStore(txs))
    straight_dir = tmp_path / "straight"
    straight = trace([layers[0][0]], "ethereum", cfg, TracerPorts(client=client, backend=RuleBackend(), now=NOW, out_dir=straight_dir))
    assert straight.labeled == 541
    finished = snapshot(straight, straight_dir)
    # Ctrl-C as the last verdict is due: 540 of the 541 accounts journaled
    out = tmp_path / "out"
    ports = TracerPorts(client=client, backend=InterruptAfter(RuleBackend(), allow=540), now=NOW, out_dir=out)
    with pytest.raises(KeyboardInterrupt):
        trace([layers[0][0]], "ethereum", cfg, ports)
    size = (out / JOURNAL_NAME).stat().st_size

    backend = InterruptAfter(RuleBackend(), allow=10**9)
    ports = TracerPorts(client=client, backend=backend, now=NOW, out_dir=out)
    tracemalloc.start()
    try:
        resumed = trace([layers[0][0]], "ethereum", cfg, ports, resume=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert snapshot(resumed, out) == finished
    assert backend.calls == 1
    assert peak < size / 4


# --- determinism ----------------------------------------------------------------


def random_graph(seed, accounts=30, edges=70):
    rng = random.Random(seed)
    nodes = [addr(0x1000 + i) for i in range(accounts)]
    txs = []
    for n in range(edges):
        src, dst = rng.sample(nodes, 2)
        txs.append(
            make_tx(
                5000 + n,
                src,
                dst,
                value=str(rng.randint(0, 10**20)),
                ts=NOW - rng.randint(1, 500_000),
                block=100 + n,
                is_error=rng.random() < 0.1,
            )
        )
    return nodes, txs


def test_identical_runs_byte_for_byte(tmp_path):
    nodes, txs = random_graph(7)
    cfg = TracerConfig(D=4, frontier_cap=5)
    runs = [
        snapshot(trace([nodes[0]], "ethereum", cfg, ports_for(txs, ConstBackend(), tmp_path / name)), tmp_path / name)
        for name in ("a", "b")
    ]
    assert runs[0] == runs[1]
    assert (tmp_path / "a" / JOURNAL_NAME).read_bytes() == (tmp_path / "b" / JOURNAL_NAME).read_bytes()


class NetworkBoundBackend(ConstBackend):
    """Blocks briefly per call, as a remote model would, and records the
    threads its calls ran on. It does not claim `in_process`."""

    def __init__(self):
        self.threads = set()

    def complete(self, prompt, temperature, max_tokens):
        self.threads.add(threading.get_ident())
        time.sleep(0.005)
        return super().complete(prompt, temperature, max_tokens)


def test_workers_match_sequential(tmp_path):
    nodes, txs = random_graph(11)
    cfg = TracerConfig(D=4, frontier_cap=6)

    def run(workers):
        backend, out = NetworkBoundBackend(), tmp_path / str(workers)
        state = trace([nodes[0]], "ethereum", cfg, ports_for(txs, backend, out, workers=workers))
        return snapshot(state, out), backend.threads, (out / JOURNAL_NAME).read_bytes()

    seq, _, seq_journal = run(1)
    for workers in (2, 4):
        par, threads, journal = run(workers)
        assert par == seq  # the diagnostics.json the trace wrote included
        assert journal == seq_journal
        assert len(threads - {threading.get_ident()}) >= 2  # pool threads took the wide hops


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_in_process_backend_runs_in_the_calling_thread(monkeypatch, tmp_path, workers):
    nodes, txs = random_graph(11)
    threads = []
    complete = RuleBackend.complete

    def recording(backend, prompt, temperature, max_tokens):
        threads.append(threading.get_ident())
        return complete(backend, prompt, temperature, max_tokens)

    monkeypatch.setattr(RuleBackend, "complete", recording)
    trace([nodes[0]], "ethereum", TracerConfig(D=4), ports_for(txs, RuleBackend(), tmp_path, workers=workers))
    assert max(Counter(a.hop_depth for a in labels_in(tmp_path)).values()) > 1  # a hop the pool could take
    assert set(threads) == {threading.get_ident()}


# --- oracle agreement -----------------------------------------------------------


def rows_from(txs):
    return [
        {
            "hash": t.hash,
            "from": t.from_addr.hex,
            "to": t.to_addr.hex,
            "value": t.value,
            "ts": t.timeStamp,
            "failed": t.isError,
        }
        for t in txs
    ]


@pytest.mark.parametrize("depth", [1, 3, 10])
@pytest.mark.parametrize("cap", [None, 3])
def test_matches_brute_force_oracle(tmp_path, depth, cap):
    nodes, txs = random_graph(23, accounts=40, edges=120)
    cfg = TracerConfig(
        D=depth,
        frontier_cap=cap,
        value_weight=0.6,
        recency_weight=0.4,
        flag_weight=0.0,
    )
    trace([nodes[0]], "ethereum", cfg, ports_for(txs, ConstBackend(), tmp_path))
    got = {a.target_address.hex: a.hop_depth for a in labels_in(tmp_path)}
    want = bfs_oracle(rows_from(txs), [nodes[0].hex], depth, NOW, frontier_cap=cap)
    assert got == want
