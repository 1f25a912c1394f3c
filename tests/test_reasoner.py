"""Verdict parsing, rule table, and the reflect-then-reissue loop."""

import itertools
import json
import threading
import time
from datetime import datetime, timezone
from types import SimpleNamespace

import pytest

from conftest import addr, make_tx
from risktagger import upstream
from risktagger.errors import BackendFailure, ParseError, RateLimited, SchemaViolation, UnparseableVerdict
from risktagger.explainer import LEVEL_ORDER
from risktagger.model import SuspicionLevel, TracerConfig
from risktagger.reasoner import (
    Blacklist,
    RuleBackend,
    build_cot_prompt,
    decide_level,
    infer_risk,
    parse_verdict,
    rule_backend_assess,
)
from risktagger.reasoner import backends
from risktagger.reasoner.infer import consistency_trigger, parse_reflection
from risktagger.translator import build_subgraph, to_reasoner_payload

CENTER = addr(0xCE)
NOW = 1_740_100_000


def verdict_json(level="High", a="", b="", c="", d="", **extra):
    obj = {
        "suspicion_level": level,
        "a_transaction_patterns": {"result": a, "evidence": ""},
        "b_fund_flows": {"result": b, "evidence": ""},
        "c_associated_addresses": {"result": c, "evidence": ""},
        "d_temporal_behavioral_signs": {"result": d, "evidence": ""},
    }
    obj.update(extra)
    return json.dumps(obj)


# --- parse_verdict -----------------------------------------------------------


def test_parse_clean_json():
    frag = parse_verdict(verdict_json("High", a="burst detected"))
    assert frag.suspicion_level is SuspicionLevel.HIGH
    assert frag.repaired is False
    assert frag.dimensions["transaction_patterns"].result == "burst detected"


def test_parse_json_inside_prose():
    raw = "Here is my assessment.\n" + verdict_json("Low") + "\nHope this helps!"
    frag = parse_verdict(raw)
    assert frag.suspicion_level is SuspicionLevel.LOW
    assert frag.repaired is False


def test_parse_level_with_surrounding_prose():
    frag = parse_verdict(verdict_json("Suspicion Level: High"))
    assert frag.suspicion_level is SuspicionLevel.HIGH


def test_parse_no_suspicion_case_insensitive():
    frag = parse_verdict(verdict_json("nO sUsPiCiOn"))
    assert frag.suspicion_level is SuspicionLevel.NO_SUSPICION


def test_parse_fence_mid_object_repaired():
    parts = verdict_json("Medium").rsplit(",", 1)
    raw = parts[0] + ",\n```\n" + parts[1]  # stray fence line inside the object
    frag = parse_verdict(raw)
    assert frag.suspicion_level is SuspicionLevel.MEDIUM
    assert frag.repaired is True


def test_parse_missing_dimension_key_names_it():
    obj = json.loads(verdict_json())
    del obj["b_fund_flows"]
    with pytest.raises(SchemaViolation) as err:
        parse_verdict(json.dumps(obj))
    assert "b_fund_flows" in str(err.value)


def test_parse_missing_level_key():
    obj = json.loads(verdict_json())
    del obj["suspicion_level"]
    with pytest.raises(SchemaViolation):
        parse_verdict(json.dumps(obj))


def test_parse_unknown_level_rejected():
    with pytest.raises(SchemaViolation):
        parse_verdict(verdict_json("severe"))


def test_parse_dimension_must_be_object():
    obj = json.loads(verdict_json())
    obj["a_transaction_patterns"] = "fine"
    with pytest.raises(SchemaViolation):
        parse_verdict(json.dumps(obj))


def test_parse_nothing_recoverable():
    with pytest.raises(UnparseableVerdict):
        parse_verdict("I could not analyze this address, sorry.")


def test_parse_justification_and_gaps_passthrough():
    frag = parse_verdict(verdict_json(justification="because", gaps="unknown mixers"))
    assert frag.justification == "because"
    assert frag.gaps == "unknown mixers"


@pytest.mark.parametrize(
    "prose, extra, justification, gaps",
    [
        ("Justification: burst then fan-out\nGaps: none verified", {}, "burst then fan-out", "none verified"),
        ("- **Justification:** burst then fan-out\n* GAPS: none verified", {}, "burst then fan-out", "none verified"),
        ("Justification: from the prose\nGaps: from the prose", {"gaps": "from the JSON"}, "from the prose", "from the JSON"),
        ("Justification: the first line\nJustification: a later line", {}, "the first line", ""),
        # controls: a JSON key wins, even an empty one, and no line means ""
        ("Justification: from the prose", {"justification": "", "gaps": "g"}, "", "g"),
        ("Risk Details: nothing else", {}, "", ""),
    ],
    ids=["plain", "bulleted-bold", "one-json-key", "first-line-wins", "json-keys-win", "no-lines"],
)
def test_parse_takes_justification_and_gaps_from_prose_lines(prose, extra, justification, gaps):
    frag = parse_verdict(prose + "\n\n" + verdict_json("High", **extra))
    assert (frag.justification, frag.gaps) == (justification, gaps)


# --- rule table --------------------------------------------------------------


def test_decide_level_exhaustive_16_combos():
    # independent expectation table, written out by hand
    def expected(fired):
        if len(fired) >= 2:
            return SuspicionLevel.HIGH
        if fired == {"b"} or fired == {"c"}:
            return SuspicionLevel.MEDIUM
        if fired == {"a"} or fired == {"d"}:
            return SuspicionLevel.LOW
        return SuspicionLevel.NO_SUSPICION

    for bits in itertools.product([0, 1], repeat=4):
        fired = {letter for letter, bit in zip("abcd", bits) if bit}
        assert decide_level(fired) is expected(fired), f"combo {fired}"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_a_blacklist_label_holding_a_line_separator_stays_on_its_line(tmp_path, ending):
    path = tmp_path / "blacklist.txt"
    lines = ["# exploiters", f"{addr(1).hex},Lazarus\u2028Group\x85Wallet"]
    path.write_text(ending.join(lines) + ending, encoding="utf-8", newline="")
    assert Blacklist.load(path).label_of(addr(1).hex) == "Lazarus\u2028Group\x85Wallet"
    path.write_text(ending.join(lines + ["0xnothex,x"]) + ending, encoding="utf-8", newline="")
    with pytest.raises(ParseError) as err:
        Blacklist.load(path)
    assert str(err.value).startswith(f"{path}:3: malformed address")


def test_blacklist_hit_never_lowers_level():
    for bits in itertools.product([0, 1], repeat=4):
        fired = {letter for letter, bit in zip("abcd", bits) if bit}
        before = decide_level(fired)
        after = decide_level(fired | {"c"})
        assert LEVEL_ORDER.index(after) <= LEVEL_ORDER.index(before)  # High first


def ts_at(hour, minute=0, day=21):
    return int(datetime(2025, 2, day, hour, minute, tzinfo=timezone.utc).timestamp())


def payload_from(txs, center=CENTER, k=100):
    sub = build_subgraph(center, txs, [], TracerConfig(k=k), NOW)
    return json.loads(to_reasoner_payload(sub))


def assess(txs, blacklist=None, center=CENTER):
    return rule_backend_assess(payload_from(txs, center), blacklist or Blacklist())


def test_rule_no_activity():
    verdict = assess([])
    assert verdict["suspicion_level"] == "No Suspicion"
    for key in (
        "a_transaction_patterns",
        "b_fund_flows",
        "c_associated_addresses",
        "d_temporal_behavioral_signs",
    ):
        assert verdict[key]["result"] == "no activity"


def test_rule_blacklist_alone_is_medium():
    bad = addr(0xBAD)
    txs = [make_tx(1, bad, CENTER, value="12345", ts=ts_at(10))]
    blk = Blacklist({bad.hex: "exploit wallet"})
    verdict = assess(txs, blk)
    assert verdict["suspicion_level"] == "Medium"
    assert bad.hex in verdict["c_associated_addresses"]["result"]
    assert "exploit wallet" in verdict["c_associated_addresses"]["result"]


def test_rule_aggregation_dispersion_with_round_amounts_is_high():
    # 12 scattered senders, then 3 receivers inside 10 minutes; round inbound
    # amounts also fire the pattern dimension, so the level lands on High
    round_wei = str(1000 * 10**18)
    txs = [
        make_tx(i, addr(0x300 + i), CENTER, value=round_wei, ts=ts_at(9) + i * 400)
        for i in range(12)
    ]
    base = ts_at(11)
    txs += [
        make_tx(100 + j, CENTER, addr(0x400 + j), value=str(4000 * 10**18), ts=base + j * 200)
        for j in range(3)
    ]
    verdict = assess(txs)
    assert verdict["suspicion_level"] == "High"
    assert "Aggregation-dispersion" in verdict["b_fund_flows"]["result"]
    assert "12 distinct senders" in verdict["b_fund_flows"]["result"]


def test_rule_fan_in_without_dispersal_stays_quiet():
    txs = [
        make_tx(i, addr(0x300 + i), CENTER, value="777", ts=ts_at(9) + i * 400)
        for i in range(12)
    ]
    txs.append(make_tx(50, CENTER, addr(0x450), value="555", ts=ts_at(11)))
    verdict = assess(txs)
    assert verdict["b_fund_flows"]["result"].startswith("No aggregation-dispersion")


def test_rule_self_transfer_is_no_dispersal_receiver():
    # 10 senders, then a self-transfer and one transfer out inside the hour:
    # one receiver, as distinct_counterparties_out also says
    txs = [
        make_tx(i, addr(0x300 + i), CENTER, value="777", ts=ts_at(9) + i * 60)
        for i in range(10)
    ]
    txs += [
        make_tx(50, CENTER, CENTER, value="555", ts=ts_at(11)),
        make_tx(51, CENTER, addr(0x450), value="555", ts=ts_at(11, 30)),
    ]
    payload = payload_from(txs)
    assert payload["statistics"]["distinct_counterparties_out"] == 1
    verdict = rule_backend_assess(payload, Blacklist())
    assert verdict["suspicion_level"] == "No Suspicion"
    assert verdict["b_fund_flows"]["evidence"] == "10 distinct senders, max dispersal 1 receivers"


def test_rule_burst_alone_is_low():
    txs = [
        make_tx(i, addr(0x300), CENTER, value="123", ts=ts_at(9) + i * 60)
        for i in range(25)
    ]
    verdict = assess(txs)
    assert verdict["suspicion_level"] == "Low"
    assert "burst of 25" in verdict["a_transaction_patterns"]["result"]


def test_rule_round_number_alone_is_low():
    txs = [make_tx(1, addr(0x300), CENTER, value=str(10 * 10**21), ts=ts_at(9))]
    verdict = assess(txs)
    assert verdict["suspicion_level"] == "Low"
    assert "round-number" in verdict["a_transaction_patterns"]["result"]


def test_rule_zero_value_not_round():
    txs = [make_tx(1, addr(0x300), CENTER, value="0", ts=ts_at(9))]
    verdict = assess(txs)
    assert verdict["suspicion_level"] == "No Suspicion"


def test_rule_failed_round_tx_moves_no_value():
    txs = [make_tx(1, addr(0x300), CENTER, value=str(10**21), ts=ts_at(9), is_error=True)]
    verdict = assess(txs)
    assert verdict["a_transaction_patterns"]["result"].startswith("No transaction-pattern")


def test_rule_night_concentration_is_low():
    txs = [
        make_tx(1, addr(0x301), CENTER, value="5", ts=ts_at(2, 30)),
        make_tx(2, addr(0x302), CENTER, value="5", ts=ts_at(3, 15)),
        make_tx(3, addr(0x303), CENTER, value="5", ts=ts_at(14)),
    ]
    verdict = assess(txs)
    assert verdict["suspicion_level"] == "Low"
    assert "Night-hour concentration" in verdict["d_temporal_behavioral_signs"]["result"]


@pytest.mark.parametrize(
    "hour, minute, second, night",
    [(1, 59, 59, False), (2, 0, 0, True), (3, 59, 59, True), (4, 0, 0, False)],
)
def test_rule_night_window_runs_from_two_up_to_but_not_including_four(hour, minute, second, night):
    ts = int(datetime(2025, 2, 21, hour, minute, second, tzinfo=timezone.utc).timestamp())
    verdict = assess([make_tx(1, addr(0x301), CENTER, value="5", ts=ts)])
    assert verdict["d_temporal_behavioral_signs"]["result"].startswith("Night-hour") is night
    assert verdict["suspicion_level"] == ("Low" if night else "No Suspicion")


def test_rule_day_activity_not_nocturnal():
    txs = [
        make_tx(1, addr(0x301), CENTER, value="5", ts=ts_at(2, 30)),
        make_tx(2, addr(0x302), CENTER, value="5", ts=ts_at(10)),
        make_tx(3, addr(0x303), CENTER, value="5", ts=ts_at(14)),
    ]
    verdict = assess(txs)
    assert verdict["d_temporal_behavioral_signs"]["result"].startswith("No unusual")


# --- rule backend as a BackendPort ------------------------------------------


def test_rule_backend_answers_cot_prompt():
    bad = addr(0xBAD)
    txs = [make_tx(1, bad, CENTER, value="999", ts=ts_at(12))]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(), NOW)
    prompt = build_cot_prompt(CENTER, to_reasoner_payload(sub))
    backend = RuleBackend(Blacklist({bad.hex: "exploit"}))
    frag = parse_verdict(backend.complete(prompt, 0.3, 2048))
    assert frag.suspicion_level is SuspicionLevel.MEDIUM
    assert frag.repaired is False


def test_rule_backend_reflection_reports_no_flaw():
    backend = RuleBackend()
    review = backend.complete(
        "You are a blockchain security auditor tasked with reviewing ...", 0.3, 2048
    )
    assert "No flaw" in review


def _short_row(table):
    table["rows"][0].pop()


def _long_row(table):
    table["rows"][0].append(False)


def _object_row(table):  # a row in the keyed form of payload version 1
    table["rows"][0] = dict(zip(table["columns"], table["rows"][0]))


def _no_time_column(table):
    at = table["columns"].index("timeStamp")
    del table["columns"][at], table["rows"][0][at]


def _no_direction_column(table):  # payload version 2 named the row's `from` in its place
    table["columns"][table["columns"].index("direction")] = "from"


def _no_counterparty_column(table):  # and its `to`
    table["columns"][table["columns"].index("counterparty")] = "to"


def _unknown_direction(table):
    table["rows"][0][table["columns"].index("direction")] = "inbound"


@pytest.mark.parametrize(
    "mangle",
    [_short_row, _long_row, _object_row, _no_time_column, _no_direction_column, _no_counterparty_column,
     _unknown_direction],
)
def test_a_payload_table_that_does_not_match_its_columns_is_a_backend_failure(mangle):
    payload = payload_from([make_tx(1, addr(0x301), CENTER, value="5", ts=ts_at(2))])
    mangle(payload["transactions"])
    prompt = build_cot_prompt(CENTER, json.dumps(payload))
    with pytest.raises(BackendFailure, match="payload table 'transactions'"):
        RuleBackend().complete(prompt, 0.0, 2048)


def test_rule_backend_rejects_foreign_prompt():
    with pytest.raises(BackendFailure):
        RuleBackend().complete("What is the weather like?", 0.3, 2048)


# --- infer_risk --------------------------------------------------------------


class CountingBackend:
    """Wraps scripted completions and counts calls by prompt kind."""

    name = "scripted"

    def __init__(self, verdicts, reflections=()):
        self.verdicts = list(verdicts)
        self.reflections = list(reflections)
        self.verdict_calls = 0
        self.reflection_calls = 0

    def complete(self, prompt, temperature, max_tokens):
        if prompt.startswith("You are a blockchain security auditor"):
            self.reflection_calls += 1
            return self.reflections.pop(0)
        self.verdict_calls += 1
        return self.verdicts.pop(0)


def star_txs():
    return [
        make_tx(1, addr(0x5), CENTER, value="100", ts=NOW - 500),
        make_tx(2, CENTER, addr(0x6), value="60", ts=NOW - 300),
        make_tx(3, CENTER, addr(0x7), value="40", ts=NOW - 200),
        make_tx(4, CENTER, addr(0x6), value="10", ts=NOW - 100),  # repeat receiver
    ]


def star_subgraph(pairs=()):
    return build_subgraph(CENTER, star_txs(), list(pairs), TracerConfig(), NOW)


def test_infer_risk_happy_path_single_call():
    backend = CountingBackend([verdict_json("High", a="burst", justification="j", gaps="g")])
    result = infer_risk(star_subgraph(), backend, hop_depth=2)
    assert result.suspicion_level is SuspicionLevel.HIGH
    assert result.hop_depth == 2
    assert result.justification == "j"
    assert result.reasoner_backend == "scripted"
    assert result.reflection_issues == []
    assert backend.verdict_calls == 1 and backend.reflection_calls == 0
    # distinct outgoing receivers, first-seen order, no duplicates
    assert [n.hex for n in result.out_neighbors] == [addr(0x6).hex, addr(0x7).hex]


def test_infer_risk_out_neighbors_include_cross_chain():
    from risktagger.model import CrossChainPair

    dst = make_tx(9, addr(0xB0, "bsc"), addr(0xB1, "bsc"), value="99", ts=NOW - 50)
    out_src = next(t for t in star_txs() if t.from_addr == CENTER)
    pair = CrossChainPair(out_src, dst)
    backend = CountingBackend([verdict_json("Low", a="x")])
    result = infer_risk(star_subgraph([pair]), backend)
    assert addr(0xB1, "bsc") in result.out_neighbors


def test_reflection_triggered_by_high_without_risky_dims():
    first = verdict_json("High")  # all dimension results empty -> inconsistent
    review = "Critical Issues Identified:\n- Level High but no dimension indicates risk\n- Evidence missing"
    fixed = verdict_json("Medium", c="blacklist-linked counterparty")
    backend = CountingBackend([first, fixed], [review])
    result = infer_risk(star_subgraph(), backend, reflection_rounds=1)
    assert result.suspicion_level is SuspicionLevel.MEDIUM
    assert len(result.reflection_issues) == 2
    assert backend.verdict_calls == 2 and backend.reflection_calls == 1


def test_reflection_no_flaw_keeps_verdict():
    first = verdict_json("No Suspicion", a="odd burst", b="dispersal")  # trigger (ii)
    backend = CountingBackend([first], ["No flaw. The低 level is justified because ..."])
    result = infer_risk(star_subgraph(), backend, reflection_rounds=1)
    assert result.suspicion_level is SuspicionLevel.NO_SUSPICION
    assert result.reflection_issues == []
    assert backend.verdict_calls == 1 and backend.reflection_calls == 1


def test_reflection_triggered_by_repair():
    parts = verdict_json("Low", a="pattern").rsplit(",", 1)
    mangled = parts[0] + ",\n```\n" + parts[1]
    backend = CountingBackend([mangled, verdict_json("Low", a="pattern")], ["- cite the specific rows"])
    result = infer_risk(star_subgraph(), backend, reflection_rounds=1)
    assert backend.reflection_calls == 1
    assert backend.verdict_calls == 2
    assert result.reflection_issues == ["cite the specific rows"]


def test_reflection_budget_bounded():
    # every verdict stays inconsistent; R=2 must stop at 1+2 verdict calls
    bad = verdict_json("High")
    review = "- still no evidence"
    backend = CountingBackend([bad, bad, bad], [review, review])
    result = infer_risk(star_subgraph(), backend, reflection_rounds=2)
    assert backend.verdict_calls == 3
    assert backend.reflection_calls == 2
    assert result.suspicion_level is SuspicionLevel.HIGH
    assert len(result.reflection_issues) == 2


def test_reflection_rounds_zero_never_reflects():
    backend = CountingBackend([verdict_json("High")])
    result = infer_risk(star_subgraph(), backend, reflection_rounds=0)
    assert backend.reflection_calls == 0
    assert result.suspicion_level is SuspicionLevel.HIGH


def test_consistency_trigger_cases():
    frag = parse_verdict(verdict_json("High"))
    assert consistency_trigger(frag) == "level_without_risk_dimensions"
    frag = parse_verdict(verdict_json("No Suspicion", a="burst", d="night activity"))
    assert consistency_trigger(frag) == "no_suspicion_despite_risk_dimensions"
    frag = parse_verdict(verdict_json("Low", a="burst"))
    assert consistency_trigger(frag) is None


@pytest.mark.parametrize(
    "reply, issues",
    [
        (
            "Critical Issues Identified:\n- Dimension a shows no flaw, but the High level cites no transaction rows.\n"
            "- Justification is vague.",
            ["Dimension a shows no flaw, but the High level cites no transaction rows.", "Justification is vague."],
        ),
        ("No flaw in dimension a, but:\n- the High level cites no rows", ["the High level cites no rows"]),
        # controls: "No flaw" as the answer lists none, however it explains itself
        ("Critical Issues Identified: No flaw.\n- All four dimensions were covered.", []),
        ("- Critical Issues Identified:\n  **No flaw**\n  - Every claim cites a row.", []),
    ],
    ids=["no-flaw-inside-an-issue", "no-flaw-as-a-qualifier", "no-flaw-then-bullets", "bold-no-flaw"],
)
def test_parse_reflection_lists_issues_unless_the_answer_is_no_flaw(reply, issues):
    assert parse_reflection(reply) == issues


def test_parse_reflection_variants():
    assert parse_reflection("No flaw. Everything lines up.") == []
    issues = parse_reflection("Critical Issues Identified:\n- one\n2) two\nnot a bullet")
    assert issues == ["one", "two"]
    assert parse_reflection("The analysis ignored the burst entirely.") == [
        "The analysis ignored the burst entirely."
    ]


def test_infer_with_rule_backend_is_pure():
    bad = addr(0xBAD)
    txs = [make_tx(1, bad, CENTER, value="999", ts=ts_at(12))]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(), NOW)
    backend = RuleBackend(Blacklist({bad.hex: "exploit"}))
    first = infer_risk(sub, backend)
    second = infer_risk(sub, backend)
    assert first == second
    assert first.suspicion_level is SuspicionLevel.MEDIUM
    assert first.reasoner_backend == "rules"


# --- the hosted-model adapter ------------------------------------------------


class ScriptedSession:
    """A session whose POSTs get the scripted responses in turn; `times` holds
    the upstream module's clock at each POST."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.times = []

    def post(self, url, json, headers, timeout):
        self.times.append(upstream.time.monotonic())
        return self.responses.pop(0)


class FakeClock:
    """Stands in for the time module: a sleep moves the clock on at once."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def reply(status, content="", headers=None):
    body = {"choices": [{"message": {"content": content}}]}
    return SimpleNamespace(status_code=status, headers=headers or {}, text="", json=lambda: body)


def test_llm_backend_waits_out_retry_after_on_429(monkeypatch):
    monkeypatch.setattr(upstream, "time", FakeClock())
    session = ScriptedSession([reply(429, headers={"Retry-After": "2"}), reply(503), reply(200, "ok")])
    backend = backends.HttpLlmBackend("http://llm.test/v1", session=session, backoff_base_s=0.01)
    assert backend.complete("prompt", 0.0, 16) == "ok"
    # the 429's Retry-After, then plain backoff after the 503
    assert session.times == pytest.approx([0.0, 2.0, 2.02])


def test_llm_backend_fails_at_once_on_retry_after_beyond_budget(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(upstream, "time", clock)
    session = ScriptedSession([reply(429, headers={"Retry-After": "86400"}), reply(200, "ok")])
    backend = backends.HttpLlmBackend("http://llm.test/v1", session=session, timeout_s=5.0)
    with pytest.raises(BackendFailure, match="86400"):
        backend.complete("prompt", 0.0, 16)
    assert clock.now == 0.0 and len(session.responses) == 1


def test_llm_backend_raises_rate_limited_after_its_attempts_all_draw_429():
    session = ScriptedSession([reply(429)] * 3)
    backend = backends.HttpLlmBackend("http://llm.test/v1", session=session, backoff_base_s=0.01)
    with pytest.raises(RateLimited, match="LLM endpoint returned 429"):
        backend.complete("prompt", 0.0, 16)
    assert len(session.times) == upstream.RETRY_ATTEMPTS


def test_a_429_pauses_every_thread_sharing_the_llm_backend():
    answered = threading.Event()

    class SignallingSession(ScriptedSession):
        def post(self, url, json, headers, timeout):
            try:
                return super().post(url, json, headers, timeout)
            finally:
                answered.set()

    session = SignallingSession([reply(429, headers={"Retry-After": "1"}), reply(200, "ok"), reply(200, "ok")])
    backend = backends.HttpLlmBackend("http://llm.test/v1", session=session, backoff_base_s=0.01)
    first = threading.Thread(target=backend.complete, args=("first", 0.0, 16))
    first.start()
    assert answered.wait(timeout=10)
    time.sleep(0.1)  # time for the first thread to note the 429's pause
    assert backend.complete("second", 0.0, 16) == "ok"
    first.join(timeout=10)
    assert not first.is_alive()
    offsets = [t - session.times[0] for t in session.times[1:]]
    assert len(offsets) == 2 and min(offsets) >= 1.0, offsets
