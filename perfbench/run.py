"""Pipeline benchmark: seeded workloads of the full extract -> trace -> explain run.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                     # every workload, untraced

Each sample runs the pipeline through `risktagger.cli.main` in a fresh
interpreter (perfbench/sample.py), one sample at a time, into a fresh run
directory, and the outputs are checked after every sample. Samples repeat
until `--seconds` have passed. End-to-end metrics are medians over samples,
except `run_s` and `resume_s`, which are the fastest sample (see FASTEST).
`--trace 1` alternates untraced and traced samples and reports the per-layer
metrics from the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. An operation is each account the trace
attempts plus one per sample; an account skipped into diagnostics.json, and a
sample that exits wrongly or fails a check, count as failed. The exit code is
1 when a check fails and 2 when the checkout does not hold the program.

Everything the benchmark writes goes under `.perfbench-work/` in the
checkout, which is removed at the end. See perfbench/README.md for the
workloads and what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

from gen_graph import ATTACKER, COLUMNS, K, NOW, write_fixture  # noqa: E402

WORK = ".perfbench-work"
DOC = "fixtures/bybit_incident.txt"
BLACKLIST = "fixtures/blacklist.txt"
DEMO_CONFIG = "fixtures/synthetic/config.json"
GOLDEN = "tests/golden/synthetic_labels.golden.jsonl"
REQUIRED = ("src/risktagger/cli.py", DOC, BLACKLIST, DEMO_CONFIG, GOLDEN, "tests/oracle_bfs.py")
# Output files the README names; anything else in a run directory is tracer state.
OUTPUT_FILES = frozenset({
    "case_clues.json", "extract_audit.json", "labels.jsonl", "risky.jsonl",
    "diagnostics.json", "report.md", "coverage.json", "run.json",
})
ALL_LEVELS = ["High", "Medium", "Low", "No Suspicion"]
HARD_LIMIT_S = 170  # a run must end within 180 s
MIN_SAMPLES = 3
GRAPH = {"addresses": 20_000, "degree": 10}  # ~200k rows, for the last two workloads
SCALED_LOAD_D_CAP = (3, 300)  # 1 + 40 + 300 = 341 accounts
CACHE_RESUME_D_CAP = (12, 100)  # 1 + 40 + 10 * 100 = 1041 accounts

END_TO_END = {
    "run_s": "s", "setup_s": "s", "resume_s": "s", "peak_rss_mb": "MB",
    "out_bytes": "bytes", "backend_calls": "count", "prompt_bytes": "bytes",
}
PER_LAYER = {
    "cli.import_s": "s",
    "extractor.busy_s": "s",
    "chaindata.load_s": "s", "chaindata.load_rows_per_s": "rows/s",
    "chaindata.fetch_s": "s", "chaindata.fetch_calls": "count", "chaindata.fetch_rows": "count",
    "chaindata.cache_hits": "count", "chaindata.cache_misses": "count",
    "translator.subgraph_s": "s", "translator.payload_s": "s",
    "reasoner.prompt_s": "s", "reasoner.template_reads": "count", "reasoner.backend_s": "s",
    "reasoner.reply_bytes": "bytes", "reasoner.parse_s": "s",
    "tracer.self_s": "s", "tracer.frontier_s": "s", "tracer.resume_load_s": "s",
    "tracer.state_bytes": "bytes", "tracer.accounts_per_s": "accounts/s", "tracer.hops": "count",
    "explainer.report_s": "s", "explainer.coverage_s": "s", "explainer.coverage_ratio": "ratio",
    "bench.trace_overhead_s": "s",
    "repo.src_lines": "lines",
}
# Times reported as the fastest sample of the run rather than the median. The
# host's speed switches between a fast and a slow regime every 10-30 s, so a
# run's median depends on how long it spent in each; its fastest sample much
# less so (see README.md, "Noise"). The median is printed beside it.
FASTEST = ("run_s", "resume_s")
# Counts that must read the same in every sample of a run. On cache-resume,
# which accounts reach prompt rendering before the interrupt cancels queued
# work depends on thread timing, so prompt bytes and template reads are exempt
# there; backend completions stop at the budget and stay exact.
EXACT = ("out_bytes", "backend_calls", "prompt_bytes", "tracer.state_bytes", "reasoner.template_reads")


@dataclass
class Phase:
    """One fresh process: CLI calls run in order and the exit codes they must give."""

    calls: list
    expect_rc: list
    interrupt_after: int | None = None


@dataclass
class Workload:
    name: str
    phases: Callable[[str], list]  # run directory -> the Phase list of one sample
    check: Callable[[Path], list]  # run directory -> problems found in the outputs
    inexact: tuple = ()
    idle: tuple = ()  # per-layer metrics of a layer the workload never runs; they read 0
    notes: list = field(default_factory=list)


def tracer_config(D: int, cap: int) -> dict:
    # flag_weight 0, every level expanding and the generator's K keep
    # tests/oracle_bfs.py exact.
    return {
        "D": D, "k": K, "frontier_cap": cap, "min_value_threshold": "0",
        "value_weight": 0.6, "recency_weight": 0.4, "flag_weight": 0.0,
        "expand_levels": ALL_LEVELS,
    }


def label_depths(run_dir: Path) -> dict:
    lines = (run_dir / "labels.jsonl").read_text(encoding="utf-8").splitlines()
    return {row["target_address"]["hex"]: row["hop_depth"] for row in map(json.loads, lines)}


def oracle_for(fixture: Path, D: int, cap: int) -> dict:
    from oracle_bfs import bfs_oracle, read_rows

    return bfs_oracle(
        read_rows(fixture / "ethereum.csv"), [ATTACKER], D, NOW,
        frontier_cap=cap, min_value_threshold=0, value_weight=0.6, recency_weight=0.4,
    )


def oracle_check(oracle: dict):
    def check(run_dir: Path) -> list:
        got = label_depths(run_dir)
        if got == oracle:
            return []
        wrong = sum(1 for a in set(got) | set(oracle) if got.get(a) != oracle.get(a))
        return [f"labels disagree with the BFS oracle on {wrong} address(es); the oracle labels {len(oracle)}"]

    return check


def demo(seed: int, work: str) -> Workload:
    """The shipped case: committed fixture, document and config. The seed is unused."""
    golden = (ROOT / GOLDEN).read_bytes()

    def phases(run_dir: str) -> list:
        return [Phase([["run", DOC, "--config", DEMO_CONFIG, "--out", run_dir]], [0])]

    def check(run_dir: Path) -> list:
        problems = []
        if (run_dir / "labels.jsonl").read_bytes() != golden:
            problems.append(f"labels.jsonl differs from {GOLDEN}")
        cov = json.loads((run_dir / "coverage.json").read_text(encoding="utf-8"))
        if (cov["R_coverage"], cov["E_full"], cov["E_All"]) != (1.0, 17, 17):
            problems.append(f"coverage {cov['E_full']}/{cov['E_All']} = {cov['R_coverage']}, want 17/17")
        return problems

    return Workload("demo", phases, check, notes=[f"{len(golden.splitlines())} accounts"])


def write_config(path: Path, **settings) -> str:
    config = {"chain": "ethereum", "blacklist_path": BLACKLIST, "backend": "rules", "seed": 7, "now": NOW}
    config.update(settings)
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def scaled_load(seed: int, work: str) -> Workload:
    """The seeded graph replayed by the fixture adapter."""
    fixture = ROOT / work / "fixture"
    write_fixture(fixture, seed, **GRAPH)
    config = write_config(
        ROOT / work / "scaled-load.json", adapter="fixture",
        fixture_dir=str(fixture.relative_to(ROOT)), tracer=tracer_config(*SCALED_LOAD_D_CAP),
    )
    oracle = oracle_for(fixture, *SCALED_LOAD_D_CAP)

    def phases(run_dir: str) -> list:
        return [Phase([["run", DOC, "--config", config, "--out", run_dir]], [0])]

    return Workload("scaled-load", phases, oracle_check(oracle), notes=[f"{len(oracle)} accounts"])


def warm_cache(cache_root: Path, rows: list, accounts: set) -> None:
    """One txlist and one tokentx page per account, as the live adapter caches them."""
    from risktagger.chaindata.cache import FetchCache

    pages = {a: ([], []) for a in accounts}
    i_from, i_to, i_token = COLUMNS.index("from"), COLUMNS.index("to"), COLUMNS.index("tokenSymbol")
    for row in rows:
        for account in {row[i_from], row[i_to]}:
            if account in pages:
                pages[account][1 if row[i_token] else 0].append(dict(zip(COLUMNS, row)))
    cache = FetchCache(cache_root)
    for account, kinds in pages.items():
        for action, found in zip(("txlist", "tokentx"), kinds):
            if found:
                body = {"status": "1", "message": "OK", "result": found}
            else:
                body = {"status": "0", "message": "No transactions found", "result": []}
            cache.put("ethereum", account, f"{action}_p1", json.dumps(body).encode("utf-8"))


def interrupt_budget(oracle: dict) -> int:
    """Backend calls allowed before Ctrl-C: mid-way through the hop that holds
    two-thirds of the accounts (one rules-backend call per account)."""
    sizes = [0] * (max(oracle.values()) + 1)
    for depth in oracle.values():
        sizes[depth] += 1
    target = 2 * len(oracle) // 3
    before = 0
    for size in sizes:
        if before + size >= target:
            return before + size // 2
        before += size
    return before


def cache_resume(seed: int, work: str, closed_port: int) -> Workload:
    """The same seeded graph served from a warm FetchCache by the live adapter
    with two workers, interrupted once mid-hop and resumed."""
    fixture = ROOT / work / "fixture"
    rows = write_fixture(fixture, seed, **GRAPH)
    oracle = oracle_for(fixture, *CACHE_RESUME_D_CAP)
    cache_dir = ROOT / work / "cache"
    warm_cache(cache_dir, rows, set(oracle))
    del rows
    config = write_config(
        ROOT / work / "cache-resume.json", adapter="live",
        # nothing listens there, so any cache miss becomes a recorded failure
        api_base_url=f"http://127.0.0.1:{closed_port}/api",
        cache_dir=str(cache_dir.relative_to(ROOT)), workers=2, tracer=tracer_config(*CACHE_RESUME_D_CAP),
    )
    budget = interrupt_budget(oracle)
    check_oracle = oracle_check(oracle)

    def phases(run_dir: str) -> list:
        clues = f"{run_dir}/case_clues.json"
        return [
            Phase([["run", DOC, "--config", config, "--out", run_dir]], [130], budget),
            Phase([
                ["trace", clues, "--resume", "--config", config, "--out", run_dir],
                ["explain", clues, f"{run_dir}/labels.jsonl", "--config", config, "--out", run_dir],
            ], [0, 0]),
        ]

    return Workload(
        "cache-resume", phases, check_oracle, inexact=("prompt_bytes", "reasoner.template_reads"),
        idle=("chaindata.load_s", "chaindata.load_rows_per_s"),
        notes=[f"{len(oracle)} accounts", f"interrupt after {budget} backend calls"],
    )


# --- samples -------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISKTAGGER_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def dir_bytes(path: Path) -> tuple[int, int]:
    """(all bytes, bytes in files that are not named outputs)."""
    total = state = 0
    for item in path.rglob("*"):
        if item.is_file():
            size = item.stat().st_size
            total += size
            if item.name not in OUTPUT_FILES:
                state += size
    return total, state


def covered(intervals: list, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Absent(Exception):
    pass


def layer_metrics(results: list, facts: dict) -> dict:
    """Per-layer metrics of one traced sample; a metric whose hook target is
    gone from the program is left out."""
    absent = {name for r in results for name in r["absent"]}
    spans = defaultdict(list)
    for r in results:
        for name, start, end, size in r["spans"]:
            spans[name].append((start, end, size))

    def get(name):
        if name in absent:
            raise Absent(name)
        return spans[name]

    def busy(*names):
        return sum(end - start for name in names for start, end, _ in get(name))

    def sizes(name):
        return sum(size or 0 for _, _, size in get(name))

    def self_time():
        children = [(s, e) for name, items in spans.items() if name != "tracer.trace" for s, e, _ in items]
        return sum((e - s) - covered(children, s, e) for s, e, _ in get("tracer.trace"))

    def resume_load():
        start = max(s for s, _, _ in get("tracer.trace"))
        return min((s for s, _, _ in get("chaindata.fetch") if s >= start), default=start) - start

    def cache_count(key):
        if "risktagger.chaindata.cache:FetchCache.__init__" in absent:
            raise Absent(key)
        return sum(r[key] for r in results)

    formulas = {
        "cli.import_s": lambda: results[0]["import_s"],
        "extractor.busy_s": lambda: busy("extractor"),
        "chaindata.load_s": lambda: busy("chaindata.load"),
        "chaindata.load_rows_per_s": lambda: sizes("chaindata.load") / (busy("chaindata.load") or 1),
        "chaindata.fetch_s": lambda: busy("chaindata.fetch"),
        "chaindata.fetch_calls": lambda: len(get("chaindata.fetch")),
        "chaindata.fetch_rows": lambda: sizes("chaindata.fetch"),
        "chaindata.cache_hits": lambda: cache_count("cache_hits"),
        "chaindata.cache_misses": lambda: cache_count("cache_misses"),
        "translator.subgraph_s": lambda: busy("translator.subgraph"),
        "translator.payload_s": lambda: busy("translator.payload"),
        "reasoner.prompt_s": lambda: busy("reasoner.prompt"),
        "reasoner.template_reads": lambda: len(get("reasoner.template")),
        "reasoner.backend_s": lambda: busy("reasoner.backend"),
        "reasoner.reply_bytes": lambda: sizes("reasoner.backend"),
        "reasoner.parse_s": lambda: busy("reasoner.parse"),
        "tracer.self_s": self_time,
        "tracer.frontier_s": lambda: busy("tracer.frontier"),
        "tracer.resume_load_s": resume_load,
        "tracer.state_bytes": lambda: facts["state_bytes"],
        "tracer.accounts_per_s": lambda: facts["accounts"] / (busy("tracer.trace") or 1),
        "tracer.hops": lambda: get("tracer.trace")[-1][2],
        "explainer.report_s": lambda: busy("explainer.report"),
        "explainer.coverage_s": lambda: busy("explainer.coverage"),
        "explainer.coverage_ratio": lambda: facts["coverage_ratio"],
    }
    out = {}
    for metric, formula in formulas.items():
        try:
            out[metric] = formula()
        except Absent:
            pass
    return out


def measure_outputs(sample: dict, results: list, out_dir: Path, workload: Workload, traced: bool) -> None:
    """Fills in a finished sample's metrics and runs the output checks."""
    first, last = results[0], results[-1]
    ready = first["ready"]
    if ready is None:  # the chain-data hooks are gone; the trace start is next best
        ready = min(s for name, s, _, _ in first["spans"] if name == "tracer.trace")
    diagnostics = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
    skipped = len(diagnostics["errors"])
    accounts = len(label_depths(out_dir))
    total, state = dir_bytes(out_dir)
    sample.update(
        run_s=sum(r["calls"][-1]["end"] - r["began"] for r in results),
        setup_s=ready - first["began"],
        resume_s=last["calls"][-1]["end"] - max(s for name, s, _, _ in last["spans"] if name == "tracer.trace"),
        peak_rss_mb=max(r["maxrss_kb"] for r in results) / 1024,
        out_bytes=total,
        backend_calls=sum(r["backend_calls"] for r in results),
        prompt_bytes=sum(r["prompt_bytes"] for r in results),
    )
    sample["attempted"] += accounts + skipped
    sample["failed"] += skipped
    if skipped:
        sample["problems"].append(f"{skipped} account(s) skipped into diagnostics.json")
    misses = sum(r["cache_misses"] for r in results)
    if misses:
        sample["problems"].append(f"{misses} fetch cache miss(es)")
    sample["problems"] += workload.check(out_dir)
    sample["layers"] = {"tracer.state_bytes": state}
    if traced:
        coverage = json.loads((out_dir / "coverage.json").read_text(encoding="utf-8"))
        facts = {"state_bytes": state, "accounts": accounts, "coverage_ratio": coverage["R_coverage"]}
        sample["layers"] = layer_metrics(results, facts)


def run_sample(workload: Workload, work: str, index: int, traced: bool, deadline: float) -> dict:
    """Runs one sample and returns its metrics, counts and problems."""
    run_dir = f"{work}/runs/{index:04d}"  # fixed width, so run.json sizes repeat
    sample = {"traced": traced, "problems": [], "attempted": 1, "failed": 0}
    results = []
    for p, phase in enumerate(workload.phases(run_dir)):
        result_path = ROOT / work / f"sample-{index}-{p}.result.json"
        spec = {"calls": phase.calls, "interrupt_after": phase.interrupt_after,
                "trace": traced, "result": str(result_path)}
        with open(ROOT / work / "samples.log", "ab") as log:
            began = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "perfbench/sample.py", json.dumps(spec)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, deadline - began))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            sample["problems"].append(f"phase {p} process exited {proc.returncode}")
            break
        result = json.loads(result_path.read_text(encoding="utf-8"))
        got_rc = [c["rc"] for c in result["calls"]]
        if got_rc != phase.expect_rc:
            sample["problems"].append(f"phase {p} exit codes {got_rc}, want {phase.expect_rc}")
        result["began"] = began
        results.append(result)

    out_dir = ROOT / run_dir
    if not sample["problems"]:
        try:
            measure_outputs(sample, results, out_dir, workload, traced)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample["problems"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    if sample["problems"]:
        sample["failed"] += 1
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


# --- reporting -------------------------------------------------------------------


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def tail_percentile(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return f"max {ordered[-1]:.4f} (n={n})"
    return f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f} (n={n})"


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> tuple[dict, bool]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    work = f"{WORK}/{os.getpid():07d}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    holder = socket.socket()  # cache-resume's upstream: bound, never listening, so refused
    try:
        holder.bind(("127.0.0.1", 0))
        if name == "demo":
            workload = demo(seed, work)
        elif name == "scaled-load":
            workload = scaled_load(seed, work)
        else:
            workload = cache_resume(seed, work, holder.getsockname()[1])
        setup_done = time.monotonic()
        # compile bytecode once, as an installed program would have it
        subprocess.run([sys.executable, "-c", "import risktagger.cli"], cwd=ROOT, env=child_env(), check=True)
        samples = []
        measured_from = time.monotonic()
        minimum = 2 * MIN_SAMPLES if traced else MIN_SAMPLES
        while True:
            # start another sample if it should end nearer --seconds than stopping now
            now = time.monotonic()
            mean = (now - measured_from) / max(len(samples), 1)
            if len(samples) >= minimum and now + mean / 2 > measured_from + seconds:
                break
            if now + 2 * mean > deadline:
                break
            sample = run_sample(workload, work, len(samples), traced and len(samples) % 2 == 1, deadline)
            samples.append(sample)
            if sample["problems"]:
                break
    finally:
        holder.close()
        shutil.rmtree(ROOT / work, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass

    problems = [f"sample {i}: {p}" for i, s in enumerate(samples) for p in s["problems"]]
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if not s["traced"]]
    tracedset = [s for s in good if s["traced"]]
    if not plain or (traced and not tracedset):
        problems.append("no sample completed")
    for key in EXACT:
        if key in workload.inexact:
            continue
        seen = {s[key] if key in s else s["layers"].get(key) for s in good} - {None}
        if len(seen) > 1:
            problems.append(f"{key} differs between samples: {sorted(seen)}")

    print(f"workload {name}, seed {seed}: set-up {setup_done - started:.1f} s, "
          f"{len(plain)} untraced and {len(tracedset)} traced sample(s); " + ", ".join(workload.notes))
    metrics = {}
    if plain and not traced:
        for key, unit in END_TO_END.items():
            values = [s[key] for s in plain]
            if key in FASTEST:
                value, note = min(values), f"fastest; median {statistics.median(values):.4f}; "
            else:
                value, note = statistics.median(values), "median; "
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key:<16} {value:>14.4f} {unit:<6} {note}{tail_percentile(values)}")
    if tracedset:
        layers = {}
        for key in PER_LAYER:
            values = [s["layers"][key] for s in tracedset if key in s["layers"]]
            if values:
                layers[key] = statistics.median(values)
        layers["bench.trace_overhead_s"] = (
            statistics.median(s["run_s"] for s in tracedset) - statistics.median(s["run_s"] for s in plain))
        layers["repo.src_lines"] = src_lines()
        for key, unit in PER_LAYER.items():
            if key in layers:
                metrics[key] = {"value": layers[key], "unit": unit}
                idle = key in workload.idle and not layers[key]
                note = "  (not applicable: the workload never runs this layer)" if idle else ""
                print(f"  {key:<26} {layers[key]:>14.4f} {unit}{note}")
            else:
                print(f"  {key:<26} {'absent':>14} (hook target gone from the program)")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if problems and not failed:
        failed = 1  # a run-level check failed, such as counts that did not repeat
    print(f"  {'error_share':<16} {failed / max(attempted, 1):>14.4f} ratio  ({failed} failed of {attempted} operations)")
    if not traced:
        print(f"  {'src_lines':<16} {src_lines():>14d} lines  (informational, ungated)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, not problems


WORKLOADS = ("demo", "scaled-load", "cache-resume")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = parser.parse_args()
    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; nothing to measure", file=sys.stderr)
        return 2
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result, passed = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
