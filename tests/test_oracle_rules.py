"""Rule verdicts against the independent rule oracle (tests/oracle_rules.py):
every demo label, and generated accounts.

A verdict passes through the payload renderer (display amounts, ISO
timestamps), the prompt, the rule engine's reading of the prompt, the verdict
JSON and its parser; the oracle reads the raw rows, so a fault in any of
those steps that changes a level or a fired dimension fails here.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GOLDEN, addr, make_tx
from oracle_bfs import read_rows
from oracle_rules import assess, read_blacklist, rows_of
from risktagger.cli import main
from risktagger.model import TracerConfig
from risktagger.reasoner import Blacklist, RuleBackend, infer_risk
from risktagger.translator import build_subgraph

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


# --- generated accounts, each under k rows -----------------------------------

CENTER = addr(0xCE)
BAD = addr(0xBAD)
HOUR = 3600
DAY = 1_740_009_600  # 2025-02-20 00:00:00 UTC
# the night window's edges on either side, and midday
ANCHORS = [DAY + 2 * HOUR - 1, DAY + 2 * HOUR, DAY + 4 * HOUR - 1, DAY + 4 * HOUR, DAY + 12 * HOUR]
# cluster offsets just inside, on and just outside one hour
OFFSETS = [0, 1, HOUR - 1, HOUR, HOUR + 1]
ROUND = 10**21  # 1000 ETH in wei, and the raw round unit of a token of unknown decimals
AMOUNTS = st.sampled_from([0, 1, ROUND - 1, ROUND, ROUND + 1, 3 * ROUND, ROUND // 1000]) | st.integers(0, 10**24)
TIMES = st.builds(lambda anchor, offset: anchor + offset, st.sampled_from(ANCHORS), st.sampled_from(OFFSETS))
PEERS = st.sampled_from([CENTER, BAD] + [addr(n) for n in range(1, 4)])
EDGES = st.tuples(st.just(CENTER), PEERS) | st.tuples(PEERS, st.just(CENTER))  # out, in or to itself
TOKENS = st.sampled_from(["", "USDT"])  # native and USDT: the oracle's decimals scope


def row(src, dst, value, ts, token="", failed=False, tx=None):
    """One transfer; rows given the same `tx` share a transaction hash."""
    return (src, dst, value, ts, token, failed, tx)


@st.composite
def accounts(draw):
    """(from, to, value, ts, token, failed) rows that all touch CENTER."""
    fan_in = [
        row(addr(0x100 + i), CENTER, draw(AMOUNTS), draw(TIMES), draw(TOKENS), draw(st.booleans()))
        for i in range(draw(st.sampled_from([0, 9, 10, 11])))
    ]
    others = [
        row(*draw(EDGES), draw(AMOUNTS), draw(TIMES), draw(TOKENS), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 12)))
    ]
    return fan_in + others


SENDERS = [row(addr(0x100 + i), CENTER, 777, DAY + 9 * HOUR + 60 * i) for i in range(10)]


@settings(max_examples=200, deadline=None)
@given(accounts())
# a self-transfer and one transfer out inside the hour: one receiver, no dispersal
@example(SENDERS + [row(CENTER, CENTER, 555, DAY + 11 * HOUR), row(CENTER, addr(1), 555, DAY + 11 * HOUR + 1800)])
# two receivers exactly one hour apart: inside the closed window
@example(SENDERS + [row(CENTER, addr(1), 555, DAY + 11 * HOUR), row(CENTER, addr(2), 555, DAY + 12 * HOUR)])
# ten transactions inside one hour, each moving ETH and USDT: 20 rows, no burst
@example([
    row(CENTER, addr(1), 555, DAY + 12 * HOUR + 60 * i, token, tx=0x1000 + i)
    for i in range(10) for token in ("", "USDT")
])
def test_rules_agree_with_the_oracle_on_generated_accounts(rows):
    txs = [
        make_tx(tx or n, src, dst, value=str(value), ts=ts, token=token, is_error=failed)
        for n, (src, dst, value, ts, token, failed, tx) in enumerate(rows, start=1)
    ]
    cfg = TracerConfig()
    assert len(txs) < cfg.k  # the oracle ignores retention
    sub = build_subgraph(CENTER, txs, [], cfg, DAY + 2 * 86400)
    verdict = infer_risk(sub, RuleBackend(Blacklist({BAD.hex: "exploit"})))
    dims = (verdict.transaction_patterns, verdict.fund_flows, verdict.associated_addresses, verdict.temporal_signs)
    got = (
        verdict.suspicion_level.value,
        {letter for letter, dim in zip("abcd", dims) if not dim.result.lower().startswith("no ")},
    )
    oracle_rows = [
        {"hash": tx.hash, "from": tx.from_addr.hex, "to": tx.to_addr.hex, "value": tx.value,
         "ts": tx.timeStamp, "failed": tx.isError, "token": tx.tokenSymbol}
        for tx in txs
    ]
    assert got == assess(oracle_rows, CENTER.hex, {BAD.hex: "exploit"})


# --- amounts past a 28-digit decimal context ----------------------------------


@pytest.mark.parametrize("value", [10**49, 10**70, 2**256 - 1], ids=["1e49", "1e70", "2^256-1"])
@pytest.mark.parametrize("token", ["", "USDT"])
def test_rules_agree_with_the_oracle_on_amounts_of_10_to_the_31_display_units_and_more(value, token):
    # 10^49 wei is 10^31 ETH: Decimal % 1000 on it raised DivisionImpossible
    txs = [
        make_tx(1, addr(1), CENTER, value=str(value), ts=DAY + 9 * HOUR, token=token),
        make_tx(2, CENTER, addr(2), value=str(value), ts=DAY + 12 * HOUR, token=token),
    ]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(), DAY + 2 * 86400)
    verdict = infer_risk(sub, RuleBackend())
    dims = (verdict.transaction_patterns, verdict.fund_flows, verdict.associated_addresses, verdict.temporal_signs)
    got = (
        verdict.suspicion_level.value,
        {letter for letter, dim in zip("abcd", dims) if not dim.result.lower().startswith("no ")},
    )
    oracle_rows = [
        {"hash": tx.hash, "from": tx.from_addr.hex, "to": tx.to_addr.hex, "value": tx.value,
         "ts": tx.timeStamp, "failed": tx.isError, "token": tx.tokenSymbol}
        for tx in txs
    ]
    assert got == assess(oracle_rows, CENTER.hex, {})
    assert ("a" in got[1]) == (value % 10**21 == 0)
