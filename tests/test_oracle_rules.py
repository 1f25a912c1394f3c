"""Every demo label against the independent rule oracle (tests/oracle_rules.py).

A verdict passes through the payload renderer (display amounts, ISO
timestamps), the prompt, the rule engine's reading of the prompt, the verdict
JSON and its parser; the oracle reads the raw fixture rows, so a fault in any
of those steps that changes a level or a fired dimension fails here.
"""

import json

import pytest

from conftest import FIXTURES, GOLDEN
from oracle_bfs import read_rows
from oracle_rules import assess, read_blacklist, rows_of
from risktagger.cli import main

DIMENSIONS = {
    "transaction_patterns": "a",
    "fund_flows": "b",
    "associated_addresses": "c",
    "temporal_signs": "d",
}
K = json.loads((FIXTURES / "synthetic" / "config.json").read_text())["tracer"]["k"]


def fired_in(label):
    """The dimension letters a label reports as risky: a result that does not begin with "No"."""
    return {
        letter
        for key, letter in DIMENSIONS.items()
        if not label[key]["result"].lower().startswith("no ")
    }


@pytest.fixture(scope="module")
def demo_labels(tmp_path_factory):
    """The committed snapshot, and the labels a fresh trace of the demo writes."""
    work = tmp_path_factory.mktemp("demo")
    out = work / "trace"
    assert main(["extract", str(FIXTURES / "bybit_incident.txt"), "--out", str(work / "extract")]) == 0
    assert main([
        "trace", str(work / "extract" / "case_clues.json"),
        "--config", str(FIXTURES / "synthetic" / "config.json"),
        "--fixture-dir", str(FIXTURES / "synthetic"),
        "--blacklist", str(FIXTURES / "blacklist.txt"),
        "--out", str(out),
    ]) == 0
    return {
        name: [json.loads(line) for line in path.read_text().splitlines()]
        for name, path in (("golden", GOLDEN / "synthetic_labels.golden.jsonl"), ("trace", out / "labels.jsonl"))
    }


@pytest.mark.parametrize("source", ["golden", "trace"])
def test_every_demo_label_agrees_with_the_rule_oracle(demo_labels, source):
    rows = read_rows(FIXTURES / "synthetic" / "ethereum.csv")
    blacklist = read_blacklist(FIXTURES / "blacklist.txt")
    labels = demo_labels[source]
    assert len(labels) == 140
    disagree = []
    for label in labels:
        account = label["target_address"]["hex"]
        account_rows = rows_of(rows, account)
        assert 0 < len(account_rows) < K, account  # the oracle ignores retention
        want = assess(account_rows, account, blacklist)
        got = (label["suspicion_level"], fired_in(label))
        if got != want:
            disagree.append((account, got, want))
    assert disagree == []


def test_the_demo_exercises_every_level_and_dimension(demo_labels):
    rows = read_rows(FIXTURES / "synthetic" / "ethereum.csv")
    blacklist = read_blacklist(FIXTURES / "blacklist.txt")
    verdicts = [
        assess(rows_of(rows, label["target_address"]["hex"]), label["target_address"]["hex"], blacklist)
        for label in demo_labels["golden"]
    ]
    assert {level for level, _ in verdicts} == {"High", "Medium", "Low", "No Suspicion"}
    assert set().union(*(fired for _, fired in verdicts)) == set(DIMENSIONS.values())
