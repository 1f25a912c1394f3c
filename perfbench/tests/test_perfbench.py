"""The benchmark's own tests: generator determinism, workload smoke runs with
their output checks, and the contract of perfbench/run.py.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
gen = sys.modules["gen_graph"]

from oracle_bfs import bfs_oracle, read_rows  # noqa: E402  (run.py put tests/ on the path)

SMALL = {"addresses": 1_200, "degree": 5}


@pytest.fixture
def small(monkeypatch):
    """Shrinks the seeded workloads so a smoke run takes about a second."""
    monkeypatch.setattr(bench, "GRAPH", SMALL)
    monkeypatch.setattr(bench, "SCALED_LOAD_D_CAP", (3, 30))
    monkeypatch.setattr(bench, "CACHE_RESUME_D_CAP", (6, 12))
    monkeypatch.setattr(bench, "MIN_SAMPLES", 2)


def test_generator_writes_the_same_bytes_for_the_same_seed(tmp_path):
    gen.write_fixture(tmp_path / "a", 5, **SMALL)
    gen.write_fixture(tmp_path / "b", 5, **SMALL)
    gen.write_fixture(tmp_path / "c", 6, **SMALL)
    first = (tmp_path / "a" / "ethereum.csv").read_bytes()
    assert first == (tmp_path / "b" / "ethereum.csv").read_bytes()
    assert first != (tmp_path / "c" / "ethereum.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["ethereum.csv"]


def test_generator_keeps_the_oracle_exact_and_the_trace_size_fixed(tmp_path):
    for seed in (1, 2):
        rows = gen.write_fixture(tmp_path / str(seed), seed, **SMALL)
        assert len(rows) == 40 + 400 + 1 + (SMALL["addresses"] - 2) * SMALL["degree"]
        touches = Counter()
        for row in rows:
            touches[row[1]] += 1
            touches[row[2]] += 1
        assert max(touches.values()) < 100
        assert len({row[2] for row in rows if row[1] == gen.ATTACKER}) == 40
        oracle = bfs_oracle(
            read_rows(tmp_path / str(seed) / "ethereum.csv"), [gen.ATTACKER], 3, gen.NOW,
            frontier_cap=40, min_value_threshold=0, value_weight=0.6, recency_weight=0.4,
        )
        assert sorted(Counter(oracle.values()).items()) == [(0, 1), (1, 40), (2, 40)]


def test_interrupt_budget_falls_mid_hop_at_two_thirds():
    sizes = [1, 40] + [100] * 10
    oracle = {f"a{depth}-{i}": depth for depth, size in enumerate(sizes) for i in range(size)}
    assert bench.interrupt_budget(oracle) == 641 + 50


def test_covered_merges_overlapping_child_spans():
    assert bench.covered([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10) == pytest.approx(5)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_passes_its_output_checks(small, workload):
    result, passed = bench.run_workload(workload, seed=3, seconds=0, traced=False)
    assert passed and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 2
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / bench.WORK / f"{os.getpid():07d}").exists()


def test_traced_smoke_run_reports_every_layer(small):
    result, passed = bench.run_workload("cache-resume", seed=3, seconds=0, traced=True)
    assert passed, result
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(bench.PER_LAYER)
    assert metrics["tracer.hops"] == 6
    assert metrics["chaindata.cache_misses"] == 0 and metrics["chaindata.cache_hits"] > 0
    assert metrics["chaindata.load_s"] == 0  # the live adapter loads nothing up front
    assert metrics["explainer.coverage_ratio"] == 1.0


def test_a_failed_output_check_fails_the_run(small, monkeypatch):
    monkeypatch.setattr(bench, "GOLDEN", "fixtures/blacklist.txt")
    result, passed = bench.run_workload("demo", seed=1, seconds=0, traced=False)
    assert not passed and not result["correct"]
    assert result["failed"] >= 1


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_harness_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["paths"] == ["perfbench"]
