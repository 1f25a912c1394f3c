"""Command behavior end to end: exit codes, artifacts, determinism."""

import argparse
import ast
import csv
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import FIXTURES, GOLDEN, REPO_ROOT
from risktagger import cli, tracer
from risktagger.chaindata.cache import FetchCache
from risktagger.cli import main
from risktagger.config import RunConfig, load_config
from risktagger.errors import BackendFailure, ParseError
from risktagger.reasoner.rules import RuleBackend
from risktagger.tracer import JOURNAL_NAME
from risktagger.translator import PAYLOAD_VERSION

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
    audit = json.loads((out / "extract_audit.json").read_text())
    assert audit["document"] == hashlib.sha256(Path(DOC).read_bytes()).hexdigest()
    assert not (out / "run.json").exists()  # only a trace writes it


def test_an_llm_extract_drops_malformed_values_and_writes_the_rest(tmp_path, monkeypatch, caplog):
    doc = tmp_path / "incident.txt"
    doc.write_text("On Ethereum the attacker 0x" + "ab" * 20 + " stole $1,500,000,000.\n", encoding="utf-8")
    reply = {
        "chain": [["Ethereum", "On Ethereum"]],
        "attacker_addresses": [["0x" + "AB" * 20, "the attacker 0x"], ["0xZZ", "the attacker 0x"]],
        "stolen_usd": [["1,500,000,000", "$1,500,000,000"]],
        "stolen_token": 15,
    }
    prompts = []

    class ScriptedPort:
        def complete(self, prompt, temperature, max_tokens):
            prompts.append(prompt)
            return json.dumps(reply)

    monkeypatch.setattr(cli, "_llm_backend", lambda config: ScriptedPort())
    cfg = write_config(tmp_path, backend="llm", llm_endpoint="http://127.0.0.1:9/v1")
    out = tmp_path / "out"
    assert run_cli("extract", doc, "--config", cfg, "--out", out) == 2
    assert len(prompts) == 1
    clues = json.loads((out / "case_clues.json").read_text())
    assert (clues["chain"], clues["attacker_addresses"]) == ("ethereum", ["0x" + "ab" * 20])
    assert (clues["stolen_usd"], clues["status"]["stolen_usd"]) == (0, "missing")
    assert "dropping malformed stolen_usd candidate '1,500,000,000'" in caplog.text
    assert "dropping malformed attacker_addresses candidate '0xZZ'" in caplog.text


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


def test_trace_on_clues_that_are_not_an_object_exits_one_naming_the_file(tmp_path, capsys):
    clues = tmp_path / "clues.json"
    clues.write_text("[]")
    cfg = write_config(tmp_path)
    assert run_cli("trace", clues, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {clues}: bad case clues")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["trace", "explain"])
def test_a_malformed_clue_value_fails_at_load_naming_the_file_and_field(tmp_path, capsys, command):
    good = extract_clues(tmp_path)
    clues = tmp_path / "clues.json"
    clues.write_text(json.dumps({**json.loads(good.read_text()), "stolen_token": {"ETH": "about 401k"}}))
    cfg = write_config(tmp_path)
    labels = GOLDEN / "synthetic_labels.golden.jsonl"
    argv = [clues, "--config", cfg] if command == "trace" else [clues, labels, "--config", cfg]
    capsys.readouterr()
    assert run_cli(command, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {clues}: bad case clues: ParseError: stolen_token: 'ETH:about 401k'")
    assert not (tmp_path / "out" / "labels.jsonl").exists() and not (tmp_path / "out" / "report.md").exists()


def test_a_cached_rate_limit_page_is_a_recorded_skip(tmp_path, refused_api_url):
    clues = extract_clues(tmp_path)
    warm_cache_from_fixture(tmp_path / "cache")
    golden = [json.loads(l) for l in (GOLDEN / "synthetic_labels.golden.jsonl").read_text().splitlines()]
    victim = next(l["target_address"]["hex"] for l in golden if l["hop_depth"] == 1)
    body = {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"}
    FetchCache(tmp_path / "cache").put("ethereum", victim, "txlist_p1", json.dumps(body).encode())
    cfg = write_config(tmp_path, adapter="live", cache_dir=str(tmp_path / "cache"), api_base_url=refused_api_url)
    out = tmp_path / "out"
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 2) == 0
    errors = json.loads((out / "diagnostics.json").read_text())["errors"]
    assert [(e["address"], e["error"]) for e in errors] == [(victim, "RateLimited")]
    labeled = {json.loads(l)["target_address"]["hex"] for l in (out / "labels.jsonl").read_text().splitlines()}
    assert victim not in labeled


def test_diagnostics_are_written_as_utf8_under_an_ascii_locale(tmp_path, refused_api_url):
    clues = extract_clues(tmp_path)
    warm_cache_from_fixture(tmp_path / "cache")
    golden = [json.loads(l) for l in (GOLDEN / "synthetic_labels.golden.jsonl").read_text().splitlines()]
    victim = next(l["target_address"]["hex"] for l in golden if l["hop_depth"] == 1)
    body = {"status": "0", "message": "clé refusée", "result": "NOTOK"}
    FetchCache(tmp_path / "cache").put("ethereum", victim, "txlist_p1", json.dumps(body).encode())
    cfg = write_config(tmp_path, adapter="live", cache_dir=str(tmp_path / "cache"), api_base_url=refused_api_url)
    out = tmp_path / "out"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("RISKTAGGER_", "LC_", "LANG"))}
    env.update(PYTHONPATH=str(REPO_ROOT / "src"), LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    argv = ["trace", clues, "--config", cfg, "--out", out, "--max-depth", 2]
    result = subprocess.run(
        [sys.executable, "-m", "risktagger", *map(str, argv)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode("ascii", "backslashreplace")
    errors = json.loads((out / "diagnostics.json").read_bytes().decode("utf-8"))["errors"]
    assert [(e["address"], e["error"], e["detail"]) for e in errors] == [
        (victim, "ChainUnavailable", "upstream error: clé refusée NOTOK")
    ]


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
    """Copies the run journal of a trace stopped before it completed through
    the last account line of the given hop."""
    lines = (src / JOURNAL_NAME).read_text().splitlines(keepends=True)
    depths = [json.loads(line)["assessment"]["hop_depth"] for line in lines[1:]]
    dst.mkdir()
    (dst / JOURNAL_NAME).write_text("".join(lines[: 1 + sum(1 for d in depths if d <= hop)]))


def test_trace_resume_from_checkpoint_matches_straight_run(tmp_path, monkeypatch):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    straight = tmp_path / "straight"
    assert run_cli("trace", clues, "--config", cfg, "--out", straight) == 0
    # Ctrl-C as the last verdict is due
    stopped = tmp_path / "stopped"
    with monkeypatch.context() as patch:
        InterruptingRules(patch, budget=len((straight / "labels.jsonl").read_text().splitlines()) - 1)
        assert run_cli("trace", clues, "--config", cfg, "--out", stopped) == 130

    resumed = tmp_path / "resumed"
    journal_through_hop(stopped, resumed, 2)
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", clues, "--config", cfg, "--out", resumed, "--resume") == 0
    assert counted.calls > 0
    for name in ("labels.jsonl", "risky.jsonl"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes()


def test_a_resume_of_a_finished_trace_analyzes_nothing_and_changes_no_output(tmp_path, capsys, monkeypatch):
    clues, cfg, out = traced(tmp_path)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("analyzed 140 accounts over ")
    names = ("labels.jsonl", "risky.jsonl", "diagnostics.json", JOURNAL_NAME)
    before = {name: (out / name).read_bytes() for name in names}
    assert len(before[JOURNAL_NAME].splitlines()) == 2  # the header and the done line
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 0
    assert counted.calls == 0
    assert capsys.readouterr().out == summary + "\n"
    assert {name: (out / name).read_bytes() for name in names} == before


def change_the_first_byte(path):
    path.write_bytes(b" " + path.read_bytes()[1:])


def delete(path):
    path.unlink()


@pytest.mark.parametrize(
    "name, tamper",
    [("labels.jsonl", change_the_first_byte), ("risky.jsonl", delete), ("diagnostics.json", change_the_first_byte)],
)
def test_a_resume_of_a_finished_trace_whose_output_changed_exits_one_naming_it(tmp_path, capsys, name, tamper):
    clues, cfg, out = traced(tmp_path)
    tamper(out / name)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name} ") and "--resume" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


# the hash extractor_consolidate.txt had while the extractor registered it
EXTRACTOR_CONSOLIDATE_SHA256 = "2aec853a97796d1e090aa6edb72c7bc70f09c379fd79e9d9a4ea62ae4877a394"


@pytest.mark.parametrize(
    "extra, written_with, resumed_with, named",
    [
        (["--max-depth", 3], {}, {}, "config.tracer.D"),
        (["--max-depth", 4, "--seed-victims"], {}, {}, "seeds"),
        (["--max-depth", 4], {}, {"reflection": "0" * 64}, "prompts.reflection"),
        # a journal written while extractor_consolidate was a registered template
        (["--max-depth", 4], {"extractor_consolidate": EXTRACTOR_CONSOLIDATE_SHA256}, {},
         "prompts.extractor_consolidate"),
    ],
)
def test_resume_of_another_run_exits_one_naming_the_change(
    tmp_path, capsys, monkeypatch, extra, written_with, resumed_with, named
):
    hashes = tracer.template_hashes()
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace"
    monkeypatch.setattr(tracer, "template_hashes", lambda: {**hashes, **written_with})
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--max-depth", 4) == 0
    journal = (out / JOURNAL_NAME).read_bytes()
    monkeypatch.setattr(tracer, "template_hashes", lambda: {**hashes, **resumed_with})
    capsys.readouterr()
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume", *extra) == 1
    err = capsys.readouterr().err
    assert f"{named} changed" in err and "--resume" in err
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


def test_run_and_extract_record_the_documents_digest_which_a_resume_does_not_check(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "incident.txt"
    shutil.copy(DOC, doc)
    digest = hashlib.sha256(doc.read_bytes()).hexdigest()
    assert run_cli("extract", doc, "--out", tmp_path / "extract") == 0
    assert json.loads((tmp_path / "extract" / "extract_audit.json").read_text())["document"] == digest
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        InterruptingRules(patch, budget=60)
        assert run_cli("run", doc, "--config", cfg) == 130
    audit = (out / "extract_audit.json").read_bytes()
    assert json.loads(audit)["document"] == digest
    assert not (out / "run.json").exists()
    header = json.loads((out / JOURNAL_NAME).read_text(encoding="utf-8").split("\n", 1)[0])
    assert set(header["config"]["inputs"]) == {"fixtures", "blacklist"}
    doc.write_text(doc.read_text(encoding="utf-8") + "\nA line added after the run.\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--resume") == 0
    assert capsys.readouterr().out.startswith("analyzed 140 accounts over 16 hop(s)")
    assert (out / "labels.jsonl").read_bytes() == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()
    assert json.loads((out / "run.json").read_text())["config"]["inputs"] == header["config"]["inputs"]
    assert (out / "extract_audit.json").read_bytes() == audit


def test_explain_into_the_trace_directory_leaves_its_run_json_byte_equal(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("trace", clues, "--config", cfg, "--max-depth", 2) == 0
    manifest = (out / "run.json").read_bytes()
    assert set(json.loads(manifest)["config"]["inputs"]) == {"fixtures", "blacklist"}
    assert run_cli("explain", clues, out, "--config", cfg) == 0
    assert (out / "run.json").read_bytes() == manifest


def test_explain_empty_labels_exits_two(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    empty = tmp_path / "labels.jsonl"
    empty.write_text("")
    assert run_cli("explain", clues, empty, "--config", cfg, "--out", tmp_path / "x") == 2
    assert "nothing to report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, named",
    [
        (lambda good: json.dumps({k: v for k, v in json.loads(good).items() if k != "transaction_patterns"}),
         "KeyError: 'transaction_patterns'"),
        (lambda good: "{not json", "JSONDecodeError"),
    ],
    ids=["missing-dimension", "not-json"],
)
def test_explain_on_a_malformed_label_line_exits_one_naming_it(tmp_path, capsys, bad_line, named):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    good = (GOLDEN / "synthetic_labels.golden.jsonl").read_text().splitlines()[0]
    labels = tmp_path / "labels.jsonl"
    labels.write_text(good + "\n" + bad_line(good) + "\n")
    assert run_cli("explain", clues, labels, "--config", cfg, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labels}:2: bad label: {named}")
    assert "Traceback" not in err


def test_a_label_holding_unicode_line_separators_passes_explain_and_sample_controls(tmp_path):
    # labels.jsonl is written with ensure_ascii=False, so these stay raw in the file
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    label = json.loads((GOLDEN / "synthetic_labels.golden.jsonl").read_text().splitlines()[0])
    label["justification"] = "first\u2028second\u2029third\x85fourth"
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps(label, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in labels.read_text(encoding="utf-8")
    assert [a.justification for a in cli._load_labels(str(labels))] == [label["justification"]]
    assert run_cli("explain", clues, labels, "--config", cfg, "--out", tmp_path / "x") == 0
    out_file = tmp_path / "c.json"
    assert run_cli(
        "sample-controls", "--labels", labels, "-n", 10, "--seed", 3, "--config", cfg, "--out-file", out_file,
    ) == 0
    assert label["target_address"]["hex"] not in json.loads(out_file.read_text())["addresses"]


def test_loading_labels_holds_no_copy_of_the_file(tmp_path):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    golden = (GOLDEN / "synthetic_labels.golden.jsonl").read_text(encoding="utf-8")
    copies = 500_000 // len(golden) + 1
    labels = tmp_path / "labels.jsonl"
    labels.write_text(golden * copies, encoding="utf-8")
    size = labels.stat().st_size
    argv = ["explain", clues, labels, "--config", cfg, "--out", tmp_path / "x"]
    args = cli.build_parser().parse_args([str(a) for a in argv])
    # the whole explain past argument parsing, the labels it holds included
    tracemalloc.start()
    try:
        assert args.func(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"The trace labeled {golden.count(chr(10)) * copies} accounts" in (tmp_path / "x" / "report.md").read_text()
    assert peak < size / 4


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


def test_an_interrupted_run_and_its_resume_leave_no_file_open(tmp_path):
    # the resume reads the journal hop by hop, holding it open across hops
    cfg = write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    python = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning"]
    ctrl_c_in_hop_3 = (
        "import sys\n"
        "from risktagger import cli\n"
        "from risktagger.reasoner.rules import RuleBackend\n"
        "inner, calls = RuleBackend.complete, []\n"
        "def complete(backend, *args):\n"
        "    if len(calls) == 70:\n"
        "        raise KeyboardInterrupt\n"
        "    calls.append(None)\n"
        "    return inner(backend, *args)\n"
        "RuleBackend.complete = complete\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = [*python, "-c", ctrl_c_in_hop_3, "run", DOC, "--config", cfg]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 130, result.stderr
    assert "ResourceWarning" not in result.stderr
    out = tmp_path / "out"
    assert not {"labels.jsonl", "risky.jsonl"} & {p.name for p in out.iterdir()}

    argv = [*python, "-m", "risktagger", "trace", out / "case_clues.json", "--resume", "--config", cfg]
    result = subprocess.run([str(a) for a in argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    assert (out / "labels.jsonl").read_bytes() == (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes()


def test_a_run_interrupted_mid_hop_leaves_no_label_files(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    InterruptingRules(monkeypatch, budget=70)  # inside hop 3, the widest
    assert run_cli("run", DOC, "--config", cfg) == 130
    names = sorted(p.name for p in out.iterdir())
    assert names == ["case_clues.json", "extract_audit.json", JOURNAL_NAME]


# what a run directory holds of one finished run besides its journal and manifest
RUN_OUTPUTS = ("labels.jsonl", "risky.jsonl", "diagnostics.json", "report.md", "coverage.json")


def test_a_rerun_interrupted_in_a_finished_run_directory_leaves_none_of_its_outputs(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    assert all((out / name).exists() for name in RUN_OUTPUTS)
    InterruptingRules(monkeypatch, budget=10)
    assert run_cli("run", DOC, "--config", cfg, "--max-depth", 3) == 130
    assert not {p.name for p in out.iterdir()} & set(RUN_OUTPUTS)
    assert len((out / JOURNAL_NAME).read_text().splitlines()) == 11


def test_a_refused_resume_changes_no_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--resume", "--max-depth", 3) == 1
    assert "config.tracer.D" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_refused_resume_changes_no_file_but_the_part_files_a_killed_trace_left(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        InterruptingRules(patch, budget=60)
        assert run_cli("run", DOC, "--config", cfg) == 130
    # the partial label files a trace killed mid-run leaves beside its journal
    golden = (GOLDEN / "synthetic_labels.golden.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[:20]
    (out / "labels.jsonl.part").write_text("".join(golden), encoding="utf-8")
    (out / "risky.jsonl.part").write_text("".join(l for l in golden if '"High"' in l), encoding="utf-8")
    journal = out / JOURNAL_NAME
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    journal.write_text("".join(lines[:5] + lines[6:]), encoding="utf-8")  # line 6 gone
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".part"}
    capsys.readouterr()
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--resume") == 1
    assert "line 17 journals account" in capsys.readouterr().err
    assert counted.calls == 0
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".part"} == before


def test_a_resume_onto_a_done_journal_without_a_run_json_digest_exits_one_naming_it(tmp_path, capsys, monkeypatch):
    clues, cfg, out = traced(tmp_path)
    # the done line of a trace that did not write run.json
    journal = out / JOURNAL_NAME
    header, done = journal.read_text(encoding="utf-8").splitlines()
    done = json.loads(done)
    del done["outputs"]["run.json"]
    journal.write_text(header + "\n" + json.dumps(done, separators=(",", ":")) + "\n", encoding="utf-8")
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {journal}: malformed line 2: ") and "run.json" in err
    assert counted.calls == 0
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


def test_a_resume_of_a_finished_trace_leaves_every_files_bytes_and_mtime(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--resume") == 0
    assert counted.calls == 0
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


def test_a_resume_of_a_finished_trace_whose_run_json_changed_exits_one_naming_it(tmp_path, capsys, monkeypatch):
    clues, cfg, out = traced(tmp_path)
    manifest = out / "run.json"
    manifest.write_text(manifest.read_text(encoding="utf-8").replace('"D": 20', '"D": 3'), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    counted = InterruptingRules(monkeypatch)
    assert run_cli("trace", clues, "--config", cfg, "--out", out, "--resume") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} changed since ") and "--resume" in err
    assert counted.calls == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("second", ["bare explain", "extract"])
def test_an_explain_or_extract_into_a_finished_run_directory_leaves_run_json_byte_equal(tmp_path, second):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    manifest = (out / "run.json").read_bytes()
    if second == "extract":
        assert run_cli("extract", DOC, "--out", out) == 0
    else:  # no --config: every setting at its default
        assert run_cli("explain", out / "case_clues.json", out / "labels.jsonl", "--out", out) == 0
    assert (out / "run.json").read_bytes() == manifest


def test_a_fresh_trace_interrupted_in_a_finished_run_directory_leaves_no_run_json(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    assert json.loads((out / "run.json").read_text())["config"]["tracer"]["D"] == 20
    InterruptingRules(monkeypatch, budget=10)
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--max-depth", 3) == 130
    assert not (out / "run.json").exists()
    assert json.loads((out / JOURNAL_NAME).read_text().split("\n", 1)[0])["config"]["tracer"]["D"] == 3


def test_the_quick_starts_stages_leave_the_files_of_a_one_shot_run(tmp_path, monkeypatch):
    # the README's commands, with each run directory under tmp_path
    monkeypatch.chdir(REPO_ROOT)
    doc, config = "fixtures/bybit_incident.txt", "fixtures/synthetic/config.json"
    staged, one_shot = tmp_path / "staged", tmp_path / "one-shot"
    assert run_cli("extract", doc, "--out", staged) == 0
    assert run_cli("trace", staged / "case_clues.json", "--config", config, "--out", staged) == 0
    assert run_cli("explain", staged / "case_clues.json", staged / "labels.jsonl", "--out", staged) == 0
    assert run_cli("run", doc, "--config", config, "--out", one_shot) == 0
    names = sorted(p.name for p in one_shot.iterdir())
    assert {"run.json", "extract_audit.json", "labels.jsonl", "risky.jsonl"} <= set(names)
    assert sorted(p.name for p in staged.iterdir()) == names
    for name in names:
        assert (staged / name).read_bytes() == (one_shot / name).read_bytes(), name


@pytest.mark.parametrize("earlier", [None, 2], ids=["unversioned", "version-2"])
def test_a_resume_onto_a_journal_of_another_payload_form_exits_one_naming_it(tmp_path, capsys, earlier):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0
    assert json.loads((out / "run.json").read_text())["prompts"]["payload_version"] == PAYLOAD_VERSION
    journal = out / JOURNAL_NAME
    first, rest = journal.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(first)
    assert header["prompts"]["payload_version"] == PAYLOAD_VERSION
    if earlier is None:  # the header of a journal written before the payload version was recorded
        del header["prompts"]["payload_version"]
    else:  # the header of a journal written with the `from`/`to` transfer rows
        header["prompts"]["payload_version"] = earlier
    parts = {part: header[part] for part in ("config", "seeds", "prompts")}
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    header["fingerprint"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    journal.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli("trace", out / "case_clues.json", "--config", cfg, "--resume") == 1
    err = capsys.readouterr().err
    assert "prompts.payload_version changed" in err and "--resume" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_run_whose_every_account_is_skipped_exits_two_without_a_report(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", DOC, "--config", cfg) == 0

    def failing(backend, prompt, temperature, max_tokens):
        raise BackendFailure("model down")

    monkeypatch.setattr(RuleBackend, "complete", failing)
    capsys.readouterr()
    assert run_cli("run", DOC, "--config", cfg) == 2
    assert "labels are empty; nothing to report" in capsys.readouterr().err
    assert (out / "labels.jsonl").read_text() == ""
    assert not (out / "report.md").exists() and not (out / "coverage.json").exists()
    errors = json.loads((out / "diagnostics.json").read_text())["errors"]
    assert [e["error"] for e in errors] == ["BackendFailure"]


def test_a_fixture_row_of_10_to_the_70_wei_runs_to_a_report(tmp_path):
    # 10^52 ETH: a round number past what a 28-digit decimal context divides
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    lines = (FIXTURES / "synthetic" / "ethereum.csv").read_text().splitlines()
    attacker = "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"
    huge = f"0x{'e' * 64},{attacker},0x{'d' * 40},{10**70},1740062242,21004386,,,0,0x,1,,21000,1,21000,1"
    (fixture / "ethereum.csv").write_text("\n".join(lines + [huge]) + "\n")
    cfg = write_config(tmp_path, fixture_dir=str(fixture))
    assert run_cli("run", DOC, "--config", cfg) == 0
    labels = [json.loads(line) for line in (tmp_path / "out" / "labels.jsonl").read_text().splitlines()]
    by_address = {label["target_address"]["hex"]: label for label in labels}
    assert "round-number" in by_address[attacker]["transaction_patterns"]["result"]
    assert by_address["0x" + "d" * 40]["hop_depth"] == 1


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


def test_a_fixture_field_over_the_csv_limit_fails_the_run_naming_its_line(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    header = (FIXTURES / "synthetic" / "ethereum.csv").read_text().splitlines()[0]
    huge = f"0x{'e' * 64},0x{'d' * 40},0x{'c' * 40},5,1700000000,1,{'A' * 200_000},,0,0x,0,,21000,1,21000,1"
    (fixture / "ethereum.csv").write_text(header + "\n" + huge + "\n")
    cfg = write_config(tmp_path, fixture_dir=str(fixture))
    assert run_cli("run", DOC, "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fixture / 'ethereum.csv'}:2: ")
    assert "Traceback" not in err


BAD_BYTE_INPUTS = {
    # input: (its valid bytes given the config file, the command reading the corrupt copy `bad`)
    "labels": (
        lambda cfg: (GOLDEN / "synthetic_labels.golden.jsonl").read_bytes(),
        lambda bad, clues, cfg: ("explain", clues, bad, "--config", cfg),
    ),
    "blacklist": (
        lambda cfg: (FIXTURES / "blacklist.txt").read_bytes(),
        lambda bad, clues, cfg: ("trace", clues, "--config", cfg, "--blacklist", bad),
    ),
    "bridges": (
        lambda cfg: b"ethereum,0x" + b"b1" * 20 + b",hoplink\n",
        lambda bad, clues, cfg: ("trace", clues, "--config", cfg, "--bridges", bad),
    ),
    "config": (lambda cfg: Path(cfg).read_bytes(), lambda bad, clues, cfg: ("extract", DOC, "--config", bad)),
    "document": (
        lambda cfg: Path(DOC).read_bytes(),
        lambda bad, clues, cfg: ("extract", bad, "--config", cfg),
    ),
    "fixture": (
        lambda cfg: (FIXTURES / "synthetic" / "ethereum.csv").read_bytes(),
        lambda bad, clues, cfg: ("trace", clues, "--config", cfg, "--fixture-dir", bad.parent),
    ),
    "report": (
        lambda cfg: b"# Fund Flow Audit Report\n\nNarrative.\n",
        lambda bad, clues, cfg: ("score-coverage", bad, clues),
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_BYTE_INPUTS))
def test_a_byte_that_is_not_utf8_fails_naming_its_file(tmp_path, capsys, name):
    clues = extract_clues(tmp_path)
    cfg = write_config(tmp_path)
    valid, command = BAD_BYTE_INPUTS[name]
    data = valid(cfg)
    bad = tmp_path / "bad" / ("ethereum.csv" if name == "fixture" else name)
    bad.parent.mkdir()
    bad.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    capsys.readouterr()
    assert run_cli(*command(bad, clues, cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "byte 0xff" in err, err


# --- sample-controls / score-coverage ----------------------------------------


@pytest.mark.parametrize("n", [0, -1])
def test_sample_controls_refuses_fewer_than_one_address(tmp_path, capsys, n):
    _, cfg, trace_out = traced(tmp_path)
    out_file = tmp_path / "c.json"
    assert run_cli("sample-controls", "--labels", trace_out, "-n", n, "--config", cfg, "--out-file", out_file) == 1
    assert capsys.readouterr().err == f"error: -n must be at least 1, got {n}\n"
    assert not out_file.exists()


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


def test_chain_ids_are_normalized(tmp_path):
    _, cfg, trace_out = traced(tmp_path)
    written = []
    for chain in ("ethereum", " Ethereum"):
        out_file = tmp_path / f"c{len(written)}.json"
        assert run_cli(
            "sample-controls", "--labels", trace_out, "-n", 10, "--seed", 3,
            "--config", cfg, "--chain", chain, "--out-file", out_file,
        ) == 0
        written.append(out_file.read_bytes())
    assert written[0] == written[1]


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


@pytest.mark.parametrize("key, value", [("llm_temperature", 0.3), ("reflection_rounds", 2), ("chain", "eth-mainnet")])
def test_a_removed_key_or_bad_chain_in_the_config_exits_one_naming_it(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run_cli("trace", extract_clues(tmp_path), "--config", cfg) == 1
    assert key in capsys.readouterr().err


def test_every_config_flag_reaches_load_config():
    flags = argparse.ArgumentParser()
    cli._add_config_flags(flags)
    tracer_flags = {"max_depth": "tracer.D", "frontier_cap": "tracer.frontier_cap"}
    field_names = {f.name for f in fields(RunConfig)}
    checked = set()
    for action in flags._actions:
        if action.dest in ("help", "config"):
            continue
        if action.choices:
            argv, value = [action.option_strings[0], action.choices[0]], action.choices[0]
        elif action.nargs == 0:
            argv, value = [action.option_strings[0]], action.const
        elif action.type is int:
            argv, value = [action.option_strings[0], "3"], 3
        else:
            argv, value = [action.option_strings[0], "abc"], "abc"
        overrides = cli._overrides(flags.parse_args(argv))
        if action.dest in tracer_flags:
            assert overrides[tracer_flags[action.dest]] == value
            continue
        assert action.dest in field_names, action.option_strings
        assert overrides[action.dest] == value, action.option_strings
        config = load_config(None, overrides, need_adapter=False)
        assert getattr(config, action.dest) == value, action.option_strings
        checked.add(action.dest)
    assert checked == field_names - {"tracer", "api_base_url"}


def test_manifest_records_config_hash_and_prompt_hashes(tmp_path):
    clues, cfg, out = traced(tmp_path)
    manifest = json.loads((out / "run.json").read_text())
    header = json.loads((out / JOURNAL_NAME).read_text(encoding="utf-8").split("\n", 1)[0])
    assert len(manifest["fingerprint"]) == 64
    assert {key: manifest[key] for key in ("fingerprint", "config", "seeds", "prompts")} == {
        key: header[key] for key in ("fingerprint", "config", "seeds", "prompts")
    }
    assert "cot_part1" in manifest["prompts"]
    assert manifest["versions"]["risktagger"]


def test_importing_the_cli_leaves_requests_unloaded():
    # only a live fetch that misses the cache and the llm backend need it; they import it then
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    probe = "import sys, risktagger.cli; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_constructing_the_llm_backend_leaves_requests_unloaded():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    probe = (
        "import sys; from risktagger.reasoner.backends import HttpLlmBackend; "
        "HttpLlmBackend('http://llm.test/v1'); print('requests' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_only_the_upstream_module_imports_requests():
    # the retry policy and its deferred import of the HTTP stack live in one place;
    # ast.walk also sees imports under TYPE_CHECKING and inside functions
    src = REPO_ROOT / "src"
    importers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.partition(".")[0] == "requests" for module in modules):
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"risktagger/upstream.py"}


def test_only_the_upstream_module_sleeps():
    # every wait on an upstream (throttle, backoff, rate-limit pause) is the one
    # policy's; a reference to time.sleep or an import of it counts as a call
    src = REPO_ROOT / "src"
    sleepers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "sleep"
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name == "sleep" for alias in node.names)
            ):
                sleepers.add(path.relative_to(src).as_posix())
    assert sleepers == {"risktagger/upstream.py"}


def test_every_text_file_the_program_opens_names_its_encoding():
    # open, Path.open, read_text and write_text in text mode pass encoding=;
    # a mode string holding "b" is binary and exempt. A method named open with
    # more than one positional argument is not Path.open.
    src = REPO_ROOT / "src"
    unnamed = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else None
            elif isinstance(func, ast.Attribute) and func.attr == "open" and len(node.args) <= 1:
                mode = node.args[0] if node.args else None
            elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
                mode = None
            else:
                continue
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and not any(kw.arg == "encoding" for kw in node.keywords):
                unnamed.add(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    assert unnamed == set()


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


def test_a_bridge_endpoint_on_a_chain_with_no_fixture_exits_one_naming_both(tmp_path, capsys):
    clues = extract_clues(tmp_path)
    bridges = tmp_path / "bridges.txt"
    bridges.write_text("ethereum,0x" + "b1" * 20 + ",hoplink\npolygon,0x" + "b2" * 20 + ",hoplink\n")
    cfg = write_config(tmp_path, bridges_path=str(bridges))
    assert run_cli("trace", clues, "--config", cfg, "--max-depth", 1) == 1
    err = capsys.readouterr().err
    assert str(bridges) in err and "'polygon'" in err
    assert not (tmp_path / "out" / "labels.jsonl").exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
