"""Deterministic rule engine, packaged as a reasoning backend.

It answers the same prompts the hosted model would: an analyst prompt gets a
verdict JSON in the documented output schema, an auditor (reflection) prompt
gets a "No flaw" review. The payload is recovered from the rendered prompt
text, so the engine sees exactly what a live model would see, and its
transaction table is read through the table's `columns` header. Each row is
seen from the target: its `direction` (`in`, `out` or `self`) and its
`counterparty` (`""` for `self`). A header without a column the rules read,
a row of another width, or a direction outside those three is a
BackendFailure, so the account becomes a recorded skip.

Rule table (a dimension "fires" when its predicate holds):
  a  transaction_patterns   >= 20 distinct txs (hashes) in any 1h window, or
                            a round-number transfer (exact positive multiple
                            of 10^21 smallest units / 1000 display units)
  b  fund_flows             fan-in from >= 10 distinct senders AND dispersal
                            to >= 2 distinct counterparties of `out` rows
                            within 3600 s
  c  associated_addresses   any row's counterparty on the blacklist
  d  temporal_signs         >= 50% of transfers from 02:00:00 up to, not
                            including, 04:00:00 UTC
Level: >=2 fired -> High; exactly one of {b,c} -> Medium; exactly one of
{a,d} -> Low; none -> No Suspicion. Adding a blacklist hit can only raise
the level (monotonicity is exercised in the tests).
"""

from __future__ import annotations

import json
from datetime import datetime

from ..errors import BackendFailure
from ..model import SuspicionLevel
from ..translator import DIRECTIONS, TX_COLUMNS
from .blacklist import Blacklist

ROUND_UNIT_RAW = 10**21
ROUND_UNIT_DISPLAY = 1000
FAN_IN_MIN = 10
DISPERSAL_RECEIVERS_MIN = 2
DISPERSAL_WINDOW_S = 3600
BURST_TX_MIN = 20
NIGHT_START_HOUR = 2
NIGHT_END_HOUR = 4
NIGHT_FRACTION = 0.5


def decide_level(fired: set) -> SuspicionLevel:
    """The documented decision table over the fired dimension letters."""
    if len(fired) >= 2:
        return SuspicionLevel.HIGH
    if len(fired) == 1:
        return SuspicionLevel.MEDIUM if fired <= {"b", "c"} else SuspicionLevel.LOW
    return SuspicionLevel.NO_SUSPICION


def _is_round(value: str) -> bool:
    """A payload row value ("<amount> (raw) <asset>" or "<amount> <asset>") is
    a positive whole multiple of the round unit. Decided on the digits, so no
    amount is too large: a display amount is round when its fraction is zero
    and its integer part a multiple of ROUND_UNIT_DISPLAY."""
    amount, _, rest = value.partition(" ")
    if rest.startswith("(raw) "):
        units = int(amount)
        return units > 0 and units % ROUND_UNIT_RAW == 0
    whole, _, fraction = amount.partition(".")
    units = int(whole)
    # zero is arithmetically round and semantically noise
    return fraction.strip("0") == "" and units > 0 and units % ROUND_UNIT_DISPLAY == 0


def _epoch(iso_ts: str) -> int:
    return int(datetime.fromisoformat(iso_ts).timestamp())


def _hour_utc(iso_ts: str) -> int:
    return datetime.fromisoformat(iso_ts).hour  # payload timestamps are UTC


def rule_backend_assess(payload: dict, blacklist: Blacklist) -> dict:
    """Apply the rule table to one reasoner payload; returns the verdict dict."""
    stats = payload.get("statistics", {})
    rows = _transaction_rows(payload)

    if not rows:
        quiet = {"result": "no activity", "evidence": "no transaction rows for this account"}
        return {
            "suspicion_level": SuspicionLevel.NO_SUSPICION.value,
            "a_transaction_patterns": dict(quiet),
            "b_fund_flows": dict(quiet),
            "c_associated_addresses": dict(quiet),
            "d_temporal_behavioral_signs": dict(quiet),
            "justification": "Account shows no transactions in the analyzed window.",
            "gaps": "No transaction rows were available for this account.",
        }

    ok_rows = [r for r in rows if not r.get("isError")]
    # a self-transfer disperses nothing, as compute_stats counts no receiver for it
    out_rows = [r for r in ok_rows if r["direction"] == "out"]

    # a) burst over the full fetched set, or any round-number transfer
    burst = int(stats.get("max_burst_1h", 0))
    round_rows = [r for r in ok_rows if _is_round(r.get("value", "0"))]
    a_fired = burst >= BURST_TX_MIN or bool(round_rows)

    # b) fan-in (full-set counterparties) plus quick dispersal among outgoing rows
    fan_in = int(stats.get("distinct_counterparties_in", 0))
    dispersal = _max_dispersal(out_rows)
    b_fired = fan_in >= FAN_IN_MIN and dispersal >= DISPERSAL_RECEIVERS_MIN

    # c) blacklist counterparties
    hits = {r["counterparty"]: blacklist.label_of(r["counterparty"]) for r in rows if r["counterparty"] in blacklist}
    c_fired = bool(hits)

    # d) night-hour concentration over all rows (failed probes count as behavior)
    night = [
        r
        for r in rows
        if NIGHT_START_HOUR <= _hour_utc(r["timeStamp"]) < NIGHT_END_HOUR
    ]
    night_share = len(night) / len(rows)
    d_fired = night_share >= NIGHT_FRACTION

    fired = {letter for letter, flag in (("a", a_fired), ("b", b_fired), ("c", c_fired), ("d", d_fired)) if flag}
    level = decide_level(fired)

    def cite(selected_rows, limit=3):
        return "; ".join(r["hash"] for r in selected_rows[:limit])

    if a_fired:
        parts = []
        if burst >= BURST_TX_MIN:
            parts.append(f"burst of {burst} transfers inside one hour")
        if round_rows:
            parts.append(f"round-number transfers ({len(round_rows)} rows)")
        a_dim = {"result": "Anomalous pattern: " + " and ".join(parts), "evidence": cite(round_rows or ok_rows)}
    else:
        a_dim = {"result": "No transaction-pattern anomalies detected", "evidence": f"max 1h burst {burst}, no round-number transfers"}

    if b_fired:
        b_dim = {
            "result": (
                f"Aggregation-dispersion pattern: funds pooled from {fan_in} distinct senders, "
                f"then dispersed to {dispersal} receivers within {DISPERSAL_WINDOW_S} s"
            ),
            "evidence": cite(out_rows),
        }
    else:
        b_dim = {"result": "No aggregation-dispersion pattern", "evidence": f"{fan_in} distinct senders, max dispersal {dispersal} receivers"}

    if c_fired:
        listed = ", ".join(f"{hex_} ({label})" for hex_, label in sorted(hits.items()))
        c_dim = {"result": f"Blacklisted counterparty exposure: {listed}", "evidence": cite([r for r in rows if r["counterparty"] in hits])}
    else:
        c_dim = {"result": "No known high-risk counterparties", "evidence": "no blacklist matches among counterparties"}

    if d_fired:
        d_dim = {
            "result": (
                f"Night-hour concentration: {night_share:.0%} of transfers between "
                f"{NIGHT_START_HOUR:02d}:00 and {NIGHT_END_HOUR:02d}:00 UTC"
            ),
            "evidence": cite(night),
        }
    else:
        d_dim = {"result": "No unusual temporal concentration", "evidence": f"{night_share:.0%} of transfers in night hours"}

    fired_list = ", ".join(sorted(fired)) if fired else "none"
    risk_bits = [d["result"] for d, flag in ((a_dim, a_fired), (b_dim, b_fired), (c_dim, c_fired), (d_dim, d_fired)) if flag]
    justification = (
        f"Rule dimensions fired: {fired_list}. " + " ".join(risk_bits)
        if fired
        else "No rule dimension fired; activity looks routine at the configured thresholds."
    )
    return {
        "suspicion_level": level.value,
        "a_transaction_patterns": a_dim,
        "b_fund_flows": b_dim,
        "c_associated_addresses": c_dim,
        "d_temporal_behavioral_signs": d_dim,
        "justification": justification,
        "gaps": "Counterparty identities beyond the configured blacklist are unverified.",
    }


def _transaction_rows(payload: dict) -> list[dict]:
    """The payload's transfers as dicts, each cell keyed by the table's
    `columns` header. A header without TX_COLUMNS, a row of another width,
    or a direction outside DIRECTIONS is a BackendFailure."""
    table = payload.get("transactions")
    columns, rows = (table.get("columns"), table.get("rows")) if isinstance(table, dict) else (None, None)
    if not (
        isinstance(columns, list) and isinstance(rows, list) and set(TX_COLUMNS) <= set(columns)
        and all(isinstance(row, list) and len(row) == len(columns) for row in rows)
    ):
        raise BackendFailure(f"payload table 'transactions' is not rows of the columns {TX_COLUMNS}")
    rows = [dict(zip(columns, row)) for row in rows]
    for row in rows:
        if row["direction"] not in DIRECTIONS:
            raise BackendFailure(f"payload table 'transactions' has a direction {row['direction']!r} not in {DIRECTIONS}")
    return rows


def _max_dispersal(out_rows: list) -> int:
    """Max distinct receivers inside any DISPERSAL_WINDOW_S window among outgoing rows."""
    events = sorted((_epoch(r["timeStamp"]), r["counterparty"]) for r in out_rows)
    best = 0
    for i, (t0, _) in enumerate(events):
        receivers = {to for t, to in events[i:] if t - t0 <= DISPERSAL_WINDOW_S}
        best = max(best, len(receivers))
    return best


class RuleBackend:
    """BackendPort over the rule table; a pure function of the prompt text."""

    name = "rules"
    # complete() is pure computation, so worker threads cannot overlap it;
    # the tracer analyzes accounts in its own thread for such a backend
    in_process = True

    def __init__(self, blacklist: Blacklist | None = None):
        self.blacklist = blacklist or Blacklist()

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        if "blockchain security auditor" in prompt[:200]:
            return (
                "No flaw. The deterministic rule table was applied over the full "
                "account statistics; every fired dimension cites transaction rows."
            )
        payload = self._payload_from_prompt(prompt)
        verdict = rule_backend_assess(payload, self.blacklist)
        return json.dumps(verdict, indent=2, ensure_ascii=False)

    @staticmethod
    def _payload_from_prompt(prompt: str) -> dict:
        marker = prompt.find('"payload_version"')
        if marker < 0:
            raise BackendFailure("rule backend got a prompt without an embedded payload")
        start = prompt.rfind("{", 0, marker)
        if start < 0:
            raise BackendFailure("embedded payload is not an object")
        try:
            payload, _ = json.JSONDecoder().raw_decode(prompt, start)
        except json.JSONDecodeError as exc:
            raise BackendFailure(f"embedded payload unparseable: {exc}") from exc
        return payload
