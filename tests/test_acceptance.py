"""Release acceptance gate.

One test per release criterion; the pytest -v line for each test is the
pass/fail record. These intentionally re-derive expectations from scratch
(independent BFS oracle, closed-form coverage, hand-built rule table) so a
regression in the package cannot hide behind a matching regression here.
"""

import csv
import json
import random
import subprocess
import sys
import time

import pytest
import requests

from conftest import FIXTURES, GOLDEN, REPO_ROOT, labels_in
from oracle_bfs import bfs_levels, read_rows
from oracle_rules import assess, read_blacklist, rows_of
from risktagger.chaindata import EtherscanClient, FetchCache, FixtureChainClient, FixtureStore
from risktagger.cli import main
from risktagger.errors import BackendFailure
from risktagger.explainer import ChecklistEntity, coverage
from risktagger.extractor import extract_case_clues
from risktagger.model import SuspicionLevel, TracerConfig
from risktagger.reasoner import Blacklist, RuleBackend, decide_level, load_template, render
from risktagger.tracer import JOURNAL_NAME, TracerPorts, trace
from stub_chain_server import StubChainServer

SEED = "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"
NOW = 1_740_700_000
SYNTHETIC = FIXTURES / "synthetic"
BYBIT_DOC = FIXTURES / "bybit_incident.txt"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("RISKTAGGER_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("RISKTAGGER_CACHE_DIR", raising=False)


def synthetic_ports(out_dir, **overrides):
    client = FixtureChainClient(FixtureStore.load_dir(SYNTHETIC))
    blacklist = Blacklist.load(FIXTURES / "blacklist.txt")
    kwargs = dict(
        client=client,
        backend=RuleBackend(blacklist),
        now=NOW,
        out_dir=out_dir,
    )
    kwargs.update(overrides)
    return TracerPorts(**kwargs)


def synthetic_cfg(**overrides):
    kwargs = dict(
        D=20,
        k=100,
        frontier_cap=None,
        min_value_threshold="0",
        value_weight=0.6,
        recency_weight=0.4,
        flag_weight=0.0,
    )
    kwargs.update(overrides)
    return TracerConfig(**kwargs)


# --- 1. extraction fidelity ---------------------------------------------------


def test_criterion_1_extraction_recovers_all_gold_fields_under_5s():
    started = time.monotonic()
    clues, _audit = extract_case_clues(BYBIT_DOC.read_text())
    elapsed = time.monotonic() - started

    assert clues.chain == "ethereum"
    assert clues.stolen_usd == 1_500_000_000
    assert [a.hex for a in clues.attacker_addresses] == [SEED]
    assert [a.hex for a in clues.victim_addresses] == [
        "0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4"
    ]
    assert [a.hex for a in clues.contract_address] == [
        "0xbdd077f651ebe7f7b3ce16fe5f2b025be2969516",
        "0x96221423681a6d52e184d440a8efcebb105c7242",
    ]
    assert clues.stolen_token == {
        "ETH": "401000",
        "stETH": "90000",
        "mETH": "8000",
        "cmETH": "15000",
    }
    assert clues.attack_vector == (
        "Supply chain compromise via malicious JavaScript injection in "
        "Safe{Wallet} frontend. DELEGATECALL-based contract logic hijacking."
    )
    assert clues.affected_platform == "Bybit (via compromised Safe{Wallet} infrastructure)"
    assert elapsed < 5.0, f"extraction took {elapsed:.2f}s"


# --- 2. tracer against the independent oracle ---------------------------------


EXPAND = [{"High", "Medium", "Low", "No Suspicion"}, {"High", "Medium"}, {"High"}]
WEIGHTS = [(0.6, 0.4, 0.0), (0.3, 0.2, 0.5)]  # value, recency, flag: each triple sums to 1


def test_criterion_2_tracer_matches_independent_bfs_oracle_on_all_depth_cap_combos(tmp_path):
    """Hop depth and level of every analyzed account, against the BFS oracle
    with the rules oracle's levels, over expand_levels × weights × D × cap."""
    rows = read_rows(SYNTHETIC / "ethereum.csv")
    blacklist = read_blacklist(FIXTURES / "blacklist.txt")
    accounts = {row[side] for row in rows for side in ("from", "to")}
    levels = {a: assess(rows_of(rows, a), a, blacklist)[0] for a in accounts}
    started = time.monotonic()
    for expand in EXPAND:
        for value_weight, recency_weight, flag_weight in WEIGHTS:
            weights = dict(value_weight=value_weight, recency_weight=recency_weight, flag_weight=flag_weight)
            for depth_limit in (3, 20):
                for cap in (None, 5):
                    cfg = synthetic_cfg(
                        D=depth_limit, frontier_cap=cap, expand_levels={SuspicionLevel(v) for v in expand}, **weights
                    )
                    trace([SEED], "ethereum", cfg, synthetic_ports(tmp_path))
                    got = {a.target_address.hex: (a.hop_depth, a.suspicion_level.value) for a in labels_in(tmp_path)}
                    want = bfs_levels(
                        rows, [SEED], depth_limit, NOW, level_of=levels.get, expand_levels=expand,
                        frontier_cap=cap, min_value_threshold=0, **weights,
                    )
                    assert got == want, f"divergence at {sorted(expand)} {weights} D={depth_limit} cap={cap}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"24 traces took {elapsed:.2f}s"


# --- 3. coverage formula --------------------------------------------------------


def _entity(i: int) -> ChecklistEntity:
    # first 4 hex digits unique per index so shortened forms never collide
    return ChecklistEntity("attacker_addresses", "0x" + f"{i:04x}" + f"{i:036x}", "address")


def _scored(e_full: int, e_part: int, e_all: int) -> float:
    entities = [_entity(i) for i in range(e_all)]
    statuses = ["full"] * e_full + ["partial"] * e_part + ["missing"] * (e_all - e_full - e_part)
    lines = ["Audit narrative filler."]
    for ent, status in zip(entities, statuses):
        if status == "full":
            lines.append(f"Account {ent.value} moved funds onward.")
        elif status == "partial":
            lines.append(f"Account {ent.value[:6]}… moved funds onward.")
    report = coverage("\n".join(lines), entities)
    assert (report.e_full, report.e_part, report.e_all) == (e_full, e_part, e_all)
    return report.r_coverage


def test_criterion_3_coverage_formula_exact_on_1000_random_triples():
    assert _scored(8, 2, 10) == 0.9
    rng = random.Random(20260819)
    for _ in range(1000):
        e_all = rng.randint(1, 24)
        e_full = rng.randint(0, e_all)
        e_part = rng.randint(0, e_all - e_full)
        assert _scored(e_full, e_part, e_all) == (e_full + 0.5 * e_part) / e_all


# --- 4. prompt fidelity ---------------------------------------------------------


def test_criterion_4_rendered_prompts_are_byte_identical_to_goldens():
    for template_id in ("cot_part1", "cot_part2", "reflection", "explainer_part1", "explainer_part2"):
        template = load_template(template_id)
        blanked = render(template, {name: "" for name in template.placeholders})
        golden = (GOLDEN / f"{template_id}.golden.txt").read_bytes()
        assert blanked.encode("utf-8") == golden, f"{template_id} drifted from golden"


# --- 5. determinism and resume ---------------------------------------------------


def _run_config(tmp_path, out_dir):
    cfg = {
        "chain": "ethereum",
        "adapter": "fixture",
        "fixture_dir": str(SYNTHETIC),
        "blacklist_path": str(FIXTURES / "blacklist.txt"),
        "backend": "rules",
        "out_dir": str(out_dir),
        "seed": 7,
        "now": NOW,
        "tracer": {
            "D": 20,
            "k": 100,
            "frontier_cap": None,
            "min_value_threshold": "0",
            "value_weight": 0.6,
            "recency_weight": 0.4,
            "flag_weight": 0.0,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class CrashAfter:
    """Backend wrapper that fails hard once its call budget is spent."""

    def __init__(self, inner, allow: int):
        self.inner = inner
        self.name = inner.name
        self.allow = allow
        self.calls = 0

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        self.calls += 1
        if self.calls > self.allow:
            raise BackendFailure("simulated mid-hop crash")
        return self.inner.complete(prompt, temperature, max_tokens)


def test_criterion_5_pipeline_is_deterministic_and_resume_matches_uninterrupted(tmp_path):
    # full-pipeline determinism: rerunning into the same directory changes nothing
    out = tmp_path / "out"
    cfg = _run_config(tmp_path, out)
    assert main(["run", str(BYBIT_DOC), "--config", str(cfg)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert JOURNAL_NAME in names
    assert not [name for name in names if name.startswith("checkpoint_")]
    first = {name: (out / name).read_bytes() for name in names}
    assert main(["run", str(BYBIT_DOC), "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == first

    # interrupt inside hop 3, then resume from the run journal
    straight_dir = tmp_path / "straight"
    trace([SEED], "ethereum", synthetic_cfg(), synthetic_ports(straight_dir))
    straight = {name: (straight_dir / name).read_bytes() for name in ("labels.jsonl", "risky.jsonl")}
    before_hop_3 = sum(1 for line in straight["labels.jsonl"].splitlines() if json.loads(line)["hop_depth"] <= 2)

    work = tmp_path / "interrupted"
    work.mkdir()
    blacklist = Blacklist.load(FIXTURES / "blacklist.txt")
    crashing = CrashAfter(RuleBackend(blacklist), allow=before_hop_3 + 3)
    with pytest.raises(BackendFailure):
        trace(
            [SEED], "ethereum", synthetic_cfg(),
            synthetic_ports(work, backend=crashing, strict=True),
        )
    records = [json.loads(line) for line in (work / JOURNAL_NAME).read_text().splitlines()]
    assert {r["kind"] for r in records[1:]} == {"account"}
    depths = [r["assessment"]["hop_depth"] for r in records[1:]]
    # hops 0-2 are journaled whole, and the accounts hop 3 finished before the crash are kept
    assert sum(1 for d in depths if d <= 2) == before_hop_3
    assert depths.count(3) == 3

    assert not (work / "labels.jsonl").exists() and not (work / "risky.jsonl").exists()

    trace(
        [SEED], "ethereum", synthetic_cfg(),
        synthetic_ports(work), resume=True,
    )
    # the label files, High subset included, are byte for byte the straight run's
    assert {name: (work / name).read_bytes() for name in straight} == straight
    assert straight["risky.jsonl"]


# --- 6. fetch cache soundness ----------------------------------------------------


def _pages_from_fixture():
    pages = {}
    with open(SYNTHETIC / "ethereum.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            action = "tokentx" if row["tokenSymbol"] else "txlist"
            for endpoint in (row["from"], row["to"]):
                pages.setdefault((endpoint, action, 1), []).append(row)
    return pages


def test_criterion_6_warm_cache_live_rerun_issues_zero_upstream_requests(tmp_path):
    cache_dir = tmp_path / "cache"
    cfg = synthetic_cfg(D=2)

    def live_trace(server):
        client = EtherscanClient(
            server.url, "ethereum", api_key="test",
            cache=FetchCache(cache_dir),
            rate_limit_per_s=0.0, backoff_base_s=0.01,
        )
        trace([SEED], "ethereum", cfg, synthetic_ports(tmp_path / "out", client=client))
        return (tmp_path / "out" / "labels.jsonl").read_bytes()

    with StubChainServer(_pages_from_fixture()) as server:
        cold = live_trace(server)
        cold_requests = server.request_count
        assert cold_requests > 0
        warm = live_trace(server)
        assert server.request_count == cold_requests, "warm run hit the network"
    assert warm == cold


class PooledRules(RuleBackend):
    """The rule engine without `in_process`, so the tracer runs each hop on its pool."""

    in_process = False


def test_cold_misses_on_a_worker_pool_fetch_every_page_through_one_session(tmp_path, monkeypatch):
    sessions = []

    class CountedSession(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(requests, "Session", CountedSession)
    # the first two hops' accounts as seeds, analyzed alone: one hop of 16 that
    # the pool's threads start on together, every fetch a miss on a fresh client
    trace([SEED], "ethereum", synthetic_cfg(D=2), synthetic_ports(tmp_path / "seeds"))
    seeds = [a.target_address.hex for a in labels_in(tmp_path / "seeds")]
    cfg = synthetic_cfg(D=1)
    cache = FetchCache(tmp_path / "cache")
    with StubChainServer(_pages_from_fixture()) as server:
        client = EtherscanClient(
            server.url, "ethereum", api_key="test", cache=cache, rate_limit_per_s=20.0, backoff_base_s=0.01
        )
        backend = PooledRules(Blacklist.load(FIXTURES / "blacklist.txt"))
        state = trace(seeds, "ethereum", cfg, synthetic_ports(tmp_path / "pooled", client=client, backend=backend, workers=4))
        asked = [(r["address"], r["action"], r["page"]) for r in server.requests]
        times = sorted(server.request_times)
    trace(seeds, "ethereum", cfg, synthetic_ports(tmp_path / "expected"))
    assert (tmp_path / "pooled" / "labels.jsonl").read_bytes() == (tmp_path / "expected" / "labels.jsonl").read_bytes()
    assert state.labeled == len(seeds) == 16
    assert len(sessions) == 1 and client.upstream.session is sessions[0]
    assert len(asked) == len(set(asked)) == cache.misses == 2 * state.labeled
    cached = {(p.parent.name, p.stem) for p in (tmp_path / "cache" / "ethereum").glob("*/*.json")}
    assert cached == {(address, f"{action}_p{page}") for address, action, page in asked}
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    # the tolerance absorbs scheduling jitter between a request's slot and its arrival
    assert min(gaps) >= client.upstream.min_interval_s - 0.03, gaps


# --- 7. rule decision table --------------------------------------------------------


def test_criterion_7_rule_table_exhaustive_and_blacklist_monotone():
    def expected(fired: set) -> SuspicionLevel:
        if len(fired) >= 2:
            return SuspicionLevel.HIGH
        if fired & {"b", "c"}:
            return SuspicionLevel.MEDIUM
        if fired:
            return SuspicionLevel.LOW
        return SuspicionLevel.NO_SUSPICION

    ascending = [SuspicionLevel.NO_SUSPICION, SuspicionLevel.LOW, SuspicionLevel.MEDIUM, SuspicionLevel.HIGH]
    combos = []
    for mask in range(16):
        combos.append({dim for bit, dim in enumerate("abcd") if mask >> bit & 1})
    assert len(combos) == 16
    for fired in combos:
        assert decide_level(fired) is expected(fired), f"combo {sorted(fired)}"
        # flagging the counterparty list can only push the level up
        raised, before = decide_level(fired | {"c"}), decide_level(fired)
        assert ascending.index(raised) >= ascending.index(before), f"combo {sorted(fired)}"


# --- 8. golden label snapshot -------------------------------------------------------


def test_criterion_8_labels_match_committed_golden_snapshot_with_all_levels(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)

    extract_dir = tmp_path / "extract"
    assert main(["extract", str(BYBIT_DOC), "--out", str(extract_dir)]) == 0
    out = tmp_path / "trace"
    committed = REPO_ROOT / "fixtures" / "synthetic" / "config.json"
    assert main([
        "trace", str(extract_dir / "case_clues.json"),
        "--config", str(committed), "--out", str(out),
    ]) == 0

    got = (out / "labels.jsonl").read_bytes()
    assert got == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()

    levels = {json.loads(line)["suspicion_level"] for line in got.decode().splitlines()}
    assert levels == {"High", "Medium", "Low", "No Suspicion"}


def test_committed_fixture_is_what_its_generator_writes(tmp_path):
    out = tmp_path / "ethereum.csv"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "make_synthetic_fixture.py"), "--out", str(out)],
        check=True, capture_output=True,
    )
    assert out.read_bytes() == (SYNTHETIC / "ethereum.csv").read_bytes()
