"""Command behavior end to end: exit codes, artifacts, determinism."""

import csv
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, GOLDEN, REPO_ROOT
from risktagger import cli
from risktagger.chaindata.cache import FetchCache
from risktagger.cli import main
from risktagger.config import load_config
from risktagger.errors import ParseError
from risktagger.reasoner.rules import RuleBackend
from risktagger.tracer import JOURNAL_NAME

DOC = str(FIXTURES / "bybit_incident.txt")
NOW = 1_740_700_000


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RISKTAGGER_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("RISKTAGGER_CACHE_DIR", raising=False)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_config(tmp_path, **over):
    cfg = {
        "chain": "ethereum",
        "adapter": "fixture",
        "fixture_dir": str(FIXTURES / "synthetic"),
        "blacklist_path": str(FIXTURES / "blacklist.txt"),
        "backend": "rules",
        "out_dir": str(tmp_path / "out"),
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
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def extract_clues(tmp_path):
    out = tmp_path / "extract"
    assert run_cli("extract", DOC, "--out", out) == 0
    return out / "case_clues.json"


# --- extract ------------------------------------------------------------------


def test_extract_bundled_document_is_complete(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("extract", DOC, "--out", out) == 0
    assert "stolen_usd: complete" in capsys.readouterr().out
    clues = json.loads((out / "case_clues.json").read_text())
    assert clues["chain"] == "ethereum"
    assert clues["stolen_usd"] == 1_500_000_000
    assert clues["attacker_addresses"] == ["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"]
    assert (out / "extract_audit.json").exists()
    assert (out / "run.json").exists()


def test_extract_empty_file_exits_one(tmp_path, capsys):
    doc = tmp_path / "empty.txt"
    doc.write_text("   \n\n  ")
    assert run_cli("extract", doc, "--out", tmp_path / "out") == 1
    assert "no text" in capsys.readouterr().err.lower()


def test_extract_missing_usd_exits_two_with_field_listing(tmp_path, capsys):
    text = (FIXTURES / "bybit_incident.txt").read_text()
    text = text.replace("$1.5 billion", "a vast sum").replace(
        "approximately 1.5 billion US dollars", "a fortune"
    )
    doc = tmp_path / "no_usd.txt"
    doc.write_text(text)
    assert run_cli("extract", doc, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert "stolen_usd: missing" in captured.out
    assert "stolen_usd" in captured.err


def test_extract_unreadable_path_exits_one(tmp_path, capsys):
    assert run_cli("extract", tmp_path / "absent.txt", "--out", tmp_path / "out") == 1
    assert "error" in capsys.readouterr().err.lower()


# --- trace ----------------------------------------------------------------


def test_trace_without_seeds_exits_two(tmp_path, capsys):
    clues = tmp_path / "clues.json"
    clues.write_text(json.dumps({"chain": "ethereum", "attacker_addresses": []}))
    cfg = write_config(tmp_path)
    assert run_cli("trace", clues, "--config", cfg) == 2
    assert "no seeds" in capsys.readouterr().err


def test_trace_writes_artifacts(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    assert run_cli("trace", clues, "--config", cfg, "--out", out) == 0
    for name in ("labels.jsonl", "risky.jsonl", "diagnostics.json", "run.json", JOURNAL_NAME):
        assert (out / name).exists(), name
    assert not list(out.glob("checkpoint_*"))
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["fetched"] == 140


def test_trace_matches_golden_labels(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    assert run_cli("trace", clues, "--config", cfg, "--out", out) == 0
    got = (out / "labels.jsonl").read_bytes()
    assert got == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()


def test_trace_deterministic_across_runs(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("trace", clues, "--config", cfg, "--out", out) == 0
        outputs.append(
            tuple((out / f).read_bytes() for f in ("labels.jsonl", "risky.jsonl", "diagnostics.json"))
        )
    assert outputs[0] == outputs[1]


def journal_through_hop(src, dst, hop):
    """Copies the run journal through the last account line of the given hop."""
    lines = (src / JOURNAL_NAME).read_text().splitlines(keepends=True)
    depths = [json.loads(line)["assessment"]["hop_depth"] for line in lines[1:]]
    dst.mkdir()
    (dst / JOURNAL_NAME).write_text("".join(lines[: 1 + sum(1 for d in depths if d <= hop)]))


def test_trace_resume_from_checkpoint_matches_straight_run(tmp_path, monkeypatch):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    straight = tmp_path / "straight"
    assert run_cli("trace", clues, "--config", cfg, "--out", straight) == 0

    resumed = tmp_path / "resumed"
    journal_through_hop(straight, resumed, 2)
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", clues, "--config", cfg, "--out", resumed, "--resume") == 0
    assert counted.calls > 0
    for name in ("labels.jsonl", "risky.jsonl"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes()


def test_resume_after_a_shallower_rerun_reports_the_shallow_run(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    shallow = tmp_path / "shallow"
    assert run_cli("trace", clues, "--config", cfg, "--out", shallow, "--max-depth", 3) == 0
    out = tmp_path / "reused"
    assert run_cli("trace", clues, "--config", cfg, "--out", out) == 0
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 3) == 0
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 3, "--resume") == 0
    assert "over 3 hop(s)" in capsys.readouterr().out
    for name in ("labels.jsonl", "risky.jsonl", "diagnostics.json", JOURNAL_NAME):
        assert (out / name).read_bytes() == (shallow / name).read_bytes(), name


@pytest.mark.parametrize(
    "extra, edit_prompt, named",
    [
        (["--max-depth", 3], False, "config.tracer.D"),
        (["--max-depth", 4, "--seed-victims"], False, "seeds"),
        (["--max-depth", 4], True, "prompts.reflection"),
    ],
)
def test_resume_of_another_run_exits_one_naming_the_change(
    tmp_path, capsys, monkeypatch, extra, edit_prompt, named
):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 4) == 0
    journal = (out / JOURNAL_NAME).read_bytes()
    if edit_prompt:
        from risktagger import tracer

        edited = dict(tracer.template_hashes(), reflection="0" * 64)
        monkeypatch.setattr(tracer, "template_hashes", lambda: edited)
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume", *extra) == 1
    err = capsys.readouterr().err
    assert named in err and "--resume" in err
    assert (out / JOURNAL_NAME).read_bytes() == journal


def test_resume_refuses_a_journal_with_hop_end_lines(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 3) == 0
    journal = out / JOURNAL_NAME
    lines = journal.read_text().splitlines(keepends=True)
    accounts = [(line, json.loads(line)) for line in lines[1:]]
    accounts = [(line, r) for line, r in accounts if r["kind"] == "account"]
    hop_0 = [line for line, r in accounts if r["assessment"]["hop_depth"] == 0]
    # an older journal format closed each hop with its frontier and counters
    hop_end = {
        "kind": "hop_end",
        "hop": 0,
        "frontier": [r["address"] for _, r in accounts if r["assessment"]["hop_depth"] == 1],
        "counters": {"fetched": len(hop_0), "pruned_dup": 0, "pruned_visited": 0,
                     "pruned_low_value": 0, "pruned_cap": 0},
    }
    journal.write_text(lines[0] + "".join(hop_0) + json.dumps(hop_end) + "\n")
    before = journal.read_bytes()
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 3, "--resume") == 1
    assert f"line {2 + len(hop_0)}" in capsys.readouterr().err
    assert journal.read_bytes() == before


def drop_a_blacklist_entry(inputs):
    path = inputs / "blacklist.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if "Bybit exploiter" not in line))


def change_a_fixture_byte(inputs):
    path = inputs / "synthetic" / "ethereum.csv"
    data = path.read_bytes()
    at = data.index(b",320000000000000000000,") + len(b",32000000000000000000")
    path.write_bytes(data[:at] + b"1" + data[at + 1 :])


@pytest.mark.parametrize(
    "edit, named",
    [
        (drop_a_blacklist_entry, "config.inputs.blacklist"),
        (change_a_fixture_byte, "config.inputs.fixtures.ethereum.csv"),
    ],
)
def test_resume_after_an_input_edit_exits_one_naming_it(tmp_path, capsys, monkeypatch, edit, named):
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURES / "synthetic", inputs / "synthetic")
    shutil.copy(FIXTURES / "blacklist.txt", inputs / "blacklist.txt")
    clues = extract_clues(tmp_path)
    cfg = write_config(
        tmp_path, fixture_dir=str(inputs / "synthetic"), blacklist_path=str(inputs / "blacklist.txt")
    )
    out = tmp_path / "trace"
    with monkeypatch.context() as patch:
        InterruptingRules(patch, budget=60)
        assert run_cli("trace", clues, "--config", cfg, "--out", out) == 130
    journal = (out / JOURNAL_NAME).read_bytes()
    edit(inputs)
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 1
    err = capsys.readouterr().err
    assert named in err and "--resume" in err
    assert (out / JOURNAL_NAME).read_bytes() == journal


class InterruptingRules:
    """Counts rules-backend completions; past the budget each call raises
    KeyboardInterrupt, as Ctrl-C would."""

    def __init__(self, monkeypatch, budget=None):
        self.budget = budget
        self.calls = 0
        self.lock = threading.Lock()
        inner = RuleBackend.complete

        def complete(backend, prompt, temperature, max_tokens):
            with self.lock:
                if self.budget is not None and self.calls >= self.budget:
                    raise KeyboardInterrupt
                self.calls += 1
            return inner(backend, prompt, temperature, max_tokens)

        monkeypatch.setattr(RuleBackend, "complete", complete)


def test_mid_hop_interrupt_with_workers_resumes_to_the_straight_run(tmp_path, monkeypatch):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path, workers=2)
    straight = tmp_path / "straight"
    with monkeypatch.context() as patch:
        counted = InterruptingRules(patch)
        assert run_cli("trace", clues, "--config", cfg, "--out", straight) == 0
    depths = [json.loads(line)["hop_depth"] for line in (straight / "labels.jsonl").read_text().splitlines()]
    widest = max(set(depths), key=depths.count)
    budget = sum(1 for d in depths if d < widest) + depths.count(widest) // 2

    out = tmp_path / "resumed"
    with monkeypatch.context() as patch:
        interrupted = InterruptingRules(patch, budget)
        assert run_cli("trace", clues, "--config", cfg, "--out", out) == 130
    with monkeypatch.context() as patch:
        resumed = InterruptingRules(patch)
        assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 0
    for name in ("labels.jsonl", "risky.jsonl", "diagnostics.json"):
        assert (out / name).read_bytes() == (straight / name).read_bytes(), name
    assert interrupted.calls + resumed.calls == counted.calls


def test_resume_without_a_clock_reuses_the_journaled_one(tmp_path, capsys, monkeypatch):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path, now=None)
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: NOW))
    straight = tmp_path / "straight"
    assert run_cli("trace", clues, "--config", cfg, "--out", straight) == 0

    out = tmp_path / "resumed"
    with monkeypatch.context() as patch:
        InterruptingRules(patch, budget=70)
        assert run_cli("trace", clues, "--config", cfg, "--out", out) == 130
    journal = (out / JOURNAL_NAME).read_bytes()
    assert json.loads(journal.splitlines()[0])["config"]["now"] == NOW
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: NOW + 30 * 86_400))
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume", "--now", NOW + 1) == 1
    assert "config.now" in capsys.readouterr().err
    assert (out / JOURNAL_NAME).read_bytes() == journal
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 0
    for name in ("labels.jsonl", "risky.jsonl", "diagnostics.json"):
        assert (out / name).read_bytes() == (straight / name).read_bytes(), name


def test_trace_flag_overrides_config_depth(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "shallow"
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 1) == 0
    labels = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()]
    assert len(labels) == 1 and labels[0]["hop_depth"] == 0


def test_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("risktagger.cli.trace", boom)
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    assert run_cli("trace", clues, "--config", cfg) == 130
    assert "--resume" in capsys.readouterr().err


# --- explain / run ----------------------------------------------------------


def traced(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    assert run_cli("trace", clues, "--config", cfg, "--out", out) == 0
    return clues, cfg, out


def test_explain_writes_report_with_full_fallback_coverage(tmp_path):
    clues, cfg, trace_out = traced(tmp_path)
    out = tmp_path / "explain"
    assert run_cli("explain", clues, trace_out, "--config", cfg, "--out", out) == 0
    report = (out / "report.md").read_text()
    assert len([l for l in report.splitlines() if l.startswith("## ")]) == 8
    scored = json.loads((out / "coverage.json").read_text())
    assert scored["R_coverage"] == 1.0
    assert scored["E_full"] == scored["E_All"]
    assert "entity_counting" in scored["metadata"]
    assert (scored["report_source"], scored["fallback_reason"]) == ("template", None)


def test_explain_into_the_trace_directory_keeps_its_input_digests(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("trace", clues, "--config", cfg, "--max-depth", 2) == 0
    inputs = json.loads((out / "run.json").read_text())["inputs"]
    assert set(inputs) == {"fixtures", "blacklist"}
    assert run_cli("explain", clues, out, "--config", cfg) == 0
    assert json.loads((out / "run.json").read_text())["inputs"] == inputs


def test_explain_empty_labels_exits_two(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    empty = tmp_path / "labels.jsonl"
    empty.write_text("")
    assert run_cli("explain", clues, empty, "--config", cfg, "--out", tmp_path / "x") == 2
    assert "nothing to report" in capsys.readouterr().err


def test_run_composes_and_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    names = sorted(p.name for p in out.iterdir())
    assert {"case_clues.json", "labels.jsonl", "report.md", "coverage.json", "run.json"} <= set(names)
    first = {name: (out / name).read_bytes() for name in names}
    assert run_cli("run", DOC, "--config", cfg) == 0
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == first


def test_run_leaves_no_file_open(tmp_path):
    cfg = write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    argv = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "risktagger", "run", DOC, "--config", cfg]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    assert (tmp_path / "out" / "labels.jsonl").read_bytes() == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()


def test_run_stops_on_incomplete_extraction(tmp_path):
    text = (FIXTURES / "bybit_incident.txt").read_text()
    doc = tmp_path / "no_usd.txt"
    doc.write_text(text.replace("$1.5 billion", "x").replace("1.5 billion US dollars", "y"))
    cfg = write_config(tmp_path)
    assert run_cli("run", doc, "--config", cfg) == 2
    assert not (tmp_path / "out" / "labels.jsonl").exists()


def test_bad_row_no_trace_reaches_still_fails_the_run_with_its_line(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    lines = (FIXTURES / "synthetic" / "ethereum.csv").read_text().splitlines()
    # addresses nothing else touches; timeStamp 0 is invalid
    bad = f"0x{'e' * 64},0x{'d' * 40},0x{'c' * 40},5,0,1,,,0,0x,0,,21000,1,21000,1"
    (fixture / "ethereum.csv").write_text("\n".join(lines + [bad]) + "\n")
    cfg = write_config(tmp_path, fixture_dir=str(fixture))
    assert run_cli("run", DOC, "--config", cfg, "--out", tmp_path / "out") == 1
    assert f"ethereum.csv:{len(lines) + 1}: bad fixture row: timeStamp" in capsys.readouterr().err
    assert not (tmp_path / "out" / "labels.jsonl").exists()


# --- sample-controls / score-coverage ----------------------------------------


def test_sample_controls_seeded_and_disjoint(tmp_path):
    _, cfg, trace_out = traced(tmp_path)
    picks = []
    for name in ("c1.json", "c2.json"):
        out_file = tmp_path / name
        rc = run_cli(
            "sample-controls", "--labels", trace_out, "-n", 1000, "--seed", 7,
            "--config", cfg, "--out-file", out_file,
        )
        assert rc == 0
        picks.append(json.loads(out_file.read_text())["addresses"])
    assert picks[0] == picks[1]
    assert len(picks[0]) == 1000
    labels = (trace_out / "labels.jsonl").read_text().splitlines()
    labeled = {json.loads(l)["target_address"]["hex"] for l in labels}
    assert not set(picks[0]) & labeled


def test_sample_controls_distinct_when_pool_sufficient(tmp_path):
    _, cfg, trace_out = traced(tmp_path)
    out_file = tmp_path / "c.json"
    assert run_cli(
        "sample-controls", "--labels", trace_out, "-n", 10, "--seed", 3,
        "--config", cfg, "--out-file", out_file,
    ) == 0
    addresses = json.loads(out_file.read_text())["addresses"]
    assert len(addresses) == len(set(addresses)) == 10


def test_score_coverage_agrees_with_explain(tmp_path):
    clues, cfg, trace_out = traced(tmp_path)
    out = tmp_path / "explain"
    assert run_cli("explain", clues, trace_out, "--config", cfg, "--out", out) == 0
    scored_file = tmp_path / "cov.json"
    assert run_cli("score-coverage", out / "report.md", clues, "--out-file", scored_file) == 0
    direct = json.loads(scored_file.read_text())
    via_explain = json.loads((out / "coverage.json").read_text())
    # only explain knows where the report came from
    assert via_explain.pop("report_source") == "template"
    assert via_explain.pop("fallback_reason") is None
    assert direct == via_explain


def test_score_coverage_rejects_the_config_flags_it_never_reads(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    report = tmp_path / "report.md"
    report.write_text("report")
    with pytest.raises(SystemExit) as exc:
        run_cli("score-coverage", report, clues, "--config", "x")
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


# --- config loading -----------------------------------------------------------


def test_config_flags_override_file(tmp_path):
    cfg = write_config(tmp_path)
    config = load_config(cfg, {"out_dir": "elsewhere", "tracer.D": 2})
    assert config.out_dir == "elsewhere"
    assert config.tracer.D == 2
    assert config.tracer.value_weight == 0.6  # untouched file value survives


def test_env_overrides_flags(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, backend="llm", llm_endpoint="http://file.example/v1")
    monkeypatch.setenv("RISKTAGGER_LLM_ENDPOINT", "http://env.example/v1")
    monkeypatch.setenv("RISKTAGGER_CACHE_DIR", str(tmp_path / "cache"))
    config = load_config(cfg, {"llm_endpoint": "http://flag.example/v1"})
    assert config.llm_endpoint == "http://env.example/v1"
    assert config.cache_dir == str(tmp_path / "cache")


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fixture_dri": "typo"}))
    with pytest.raises(ParseError, match="unknown config keys"):
        load_config(path)


def test_fixture_adapter_requires_fixture_dir():
    with pytest.raises(ParseError, match="fixture_dir"):
        load_config(None, {"adapter": "fixture"})
    load_config(None, {"adapter": "fixture"}, need_adapter=False)  # extraction-only path


def test_llm_backend_requires_endpoint():
    with pytest.raises(ParseError, match="endpoint"):
        load_config(None, {"backend": "llm"}, need_adapter=False)


def test_unknown_config_key_exits_one_via_cli(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"not_a_key": 1}))
    assert run_cli("extract", DOC, "--config", path, "--out", tmp_path / "out") == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_manifest_records_config_hash_and_prompt_hashes(tmp_path):
    out = tmp_path / "out"
    assert run_cli("extract", DOC, "--out", out) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert len(manifest["config_sha256"]) == 64
    assert "cot_part1" in manifest["prompts"]
    assert manifest["versions"]["risktagger"]


def test_importing_the_cli_leaves_requests_unloaded():
    # only a live fetch that misses the cache and the llm backend need it; they import it then
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    probe = "import sys, risktagger.cli; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def warm_cache_from_fixture(root):
    """One txlist and one tokentx page for every synthetic fixture account, as
    the live adapter caches them."""
    pages = {}
    with open(FIXTURES / "synthetic" / "ethereum.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for account in {row["from"], row["to"]}:
                kinds = pages.setdefault(account, ([], []))
                kinds[1 if row["tokenSymbol"] else 0].append(row)
    cache = FetchCache(root)
    for account, kinds in pages.items():
        for action, rows in zip(("txlist", "tokentx"), kinds):
            body = {"status": "1", "message": "OK", "result": rows} if rows else {
                "status": "0", "message": "No transactions found", "result": []
            }
            cache.put("ethereum", account, f"{action}_p1", json.dumps(body).encode())


WARM_TRACE_PROBE = """
import json, sys
from risktagger import cli
from risktagger.chaindata.cache import FetchCache

caches = []
build = FetchCache.__init__

def recording(self, root):
    build(self, root)
    caches.append(self)

FetchCache.__init__ = recording
rc = cli.main(sys.argv[1:])
print(json.dumps({
    "rc": rc,
    "hits": sum(c.hits for c in caches),
    "misses": sum(c.misses for c in caches),
    "loaded": sorted(m for m in ("requests", "urllib3") if m in sys.modules),
}))
"""


@pytest.fixture
def refused_api_url():
    holder = socket.socket()  # bound, never listening: any request there is refused
    holder.bind(("127.0.0.1", 0))
    yield f"http://127.0.0.1:{holder.getsockname()[1]}/api"
    holder.close()


def test_a_warm_cache_live_trace_never_loads_the_http_stack(tmp_path, refused_api_url):
    clues = extract_clues(tmp_path)
    warm_cache_from_fixture(tmp_path / "cache")
    cfg = write_config(tmp_path, adapter="live", cache_dir=str(tmp_path / "cache"), api_base_url=refused_api_url)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    argv = [sys.executable, "-c", WARM_TRACE_PROBE, "trace", str(clues), "--config", cfg, "--out", str(out)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["rc"] == 0
    assert probe["misses"] == 0 and probe["hits"] > 0
    assert probe["loaded"] == []
    assert json.loads((out / "diagnostics.json").read_text())["errors"] == []
    assert (out / "labels.jsonl").read_bytes() == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()


def test_live_adapter_with_a_bridge_table_exits_one_naming_both(tmp_path, capsys, refused_api_url):
    clues = extract_clues(tmp_path)
    bridges = tmp_path / "bridges.txt"
    bridges.write_text("")
    cfg = write_config(
        tmp_path, adapter="live", bridges_path=str(bridges), cache_dir=str(tmp_path / "cache"),
        api_base_url=refused_api_url,
    )
    assert run_cli("trace", clues, "--config", cfg, "--max-depth", 1) == 1
    err = capsys.readouterr().err
    assert "bridges_path" in err and "live adapter" in err
    assert not (tmp_path / "out" / "labels.jsonl").exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
