"""Auditor-facing report rendering and information-coverage scoring.

Two responsibilities live here. ``generate_report`` turns extracted case
clues plus trace outputs into a markdown document with a fixed eight-section
outline. Both renderers work from one analysis dict, folded over the labels
in one pass: the case clues, the label statistics, the first High accounts
and a few evidence lines per dimension. A narrative backend may write the prose from its JSON, but a
deterministic template renders the same sections from the same dict whenever
the backend is absent, fails, or returns a document missing sections.

``coverage`` grades how much of a checklist the report actually mentions.
Each checklist entity is graded full, partial, or missing under rules that
depend on its weight class:

  address  full on the 42-char hex form (case-insensitive), partial on the
           0x+4-hex shortened prefix.
  number   full on the digits with or without grouping separators, partial
           on the humanized magnitude ("1.5 billion").
  token    full when both the symbol and the amount appear, partial on the
           symbol alone. Symbols match case-sensitively with alphanumeric
           guards so ETH never matches inside mETH.
  text     full on a case-insensitive substring hit, partial when at least
           half of the value's words appear somewhere in the report.

The score is (E_full + 0.5 * E_part) / E_All, computed exactly. Checklist
derivation counts one entity per list element and one per token symbol;
evidence snippets are provenance quotes rather than case facts and are
deliberately excluded.
"""

import json
import logging
import re
from bisect import insort
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from operator import itemgetter

from .errors import BackendFailure, EmptyChecklist, RateLimited
from .model import SuspicionLevel
from .reasoner.prompts import build_explainer_prompt

log = logging.getLogger(__name__)

SECTION_TITLES = (
    "Introduction",
    "Incident Overview",
    "Dataset Statistical Summary",
    "Risk Account Analysis",
    "Typical Laundering Transaction Patterns",
    "Fund Flow Characteristics",
    "Temporal Behavior Patterns",
    "Conclusion and Audit Recommendations",
)
# the explainer prompt's names for the sections it titles otherwise
PROMPT_SECTION_TITLES = {
    2: "Bybit Attack Incident Overview",
    4: "Money Laundering Risk Account Analysis",
    5: "Typical Money Laundering Transaction Patterns",
}
_SECTION_NAMES = [{t.casefold(), PROMPT_SECTION_TITLES.get(i, t).casefold()} for i, t in enumerate(SECTION_TITLES, 1)]
# a Markdown heading of any level, its title optionally numbered "N."; left
# to re's cache, as only a model's report reaches it
_HEADING = r"(?m)^#{1,6}[ \t]+(?:(\d+)\.[ \t]*)?(.*?)[ \t#]*$"

LEVEL_ORDER = (
    SuspicionLevel.HIGH,
    SuspicionLevel.MEDIUM,
    SuspicionLevel.LOW,
    SuspicionLevel.NO_SUSPICION,
)

ENTITY_COUNTING_NOTE = (
    "list fields contribute one checklist entity per element; "
    "stolen_token contributes one entity per token symbol; "
    "evidence snippets are provenance and are not counted"
)

EXAMPLES_PER_SECTION = 3
HIGH_RISK_EXAMPLES = 5
REPORT_MAX_TOKENS = 4096


@dataclass(frozen=True)
class ChecklistEntity:
    field_name: str
    value: str
    weight_class: str  # address | number | token | text


@dataclass(frozen=True)
class EntityStatus:
    field_name: str
    value: str
    weight_class: str
    status: str  # full | partial | missing
    matched: str  # snippet from the report, "" when missing


@dataclass
class CoverageReport:
    e_all: int
    e_full: int
    e_part: int
    r_coverage: float
    entities: list

    def to_json(self) -> dict:
        return {
            "E_All": self.e_all,
            "E_full": self.e_full,
            "E_part": self.e_part,
            "R_coverage": self.r_coverage,
            "entities": [
                {
                    "field": e.field_name,
                    "value": e.value,
                    "weight_class": e.weight_class,
                    "status": e.status,
                    "matched": e.matched,
                }
                for e in self.entities
            ],
            "metadata": {"entity_counting": ENTITY_COUNTING_NOTE},
        }


# --- checklist derivation ----------------------------------------------------


def build_checklist(clues) -> list[ChecklistEntity]:
    entities = []

    def add(field_name: str, value: str, weight_class: str) -> None:
        if value:
            entities.append(ChecklistEntity(field_name, value, weight_class))

    add("chain", clues.chain, "text")
    add("attack_vector", clues.attack_vector, "text")
    add("affected_platform", clues.affected_platform, "text")
    for address in clues.contract_address:
        add("contract_address", address.hex, "address")
    for address in clues.attacker_addresses:
        add("attacker_addresses", address.hex, "address")
    for address in clues.victim_addresses:
        add("victim_addresses", address.hex, "address")
    if clues.stolen_usd:
        add("stolen_usd", str(clues.stolen_usd), "number")
    for symbol in sorted(clues.stolen_token):
        add("stolen_token", f"{symbol}:{clues.stolen_token[symbol]}", "token")
    for method in clues.laundering_methods:
        add("laundering_methods", method, "text")
    add("laundering_path", clues.laundering_path, "text")
    return entities


# --- matching ----------------------------------------------------------------

_WORD_RE = re.compile(r"[a-z0-9]+")


def _grouped(digits: str) -> str:
    return f"{int(digits):,}"


def _number_pattern(value: str) -> re.Pattern:
    """Digits with or without grouping separators, not embedded in a longer number."""
    if "." in value:
        intpart, frac = value.split(".", 1)
        alts = [re.escape(intpart) + r"\." + re.escape(frac)]
        if len(intpart) > 3:
            alts.append(_grouped(intpart) + r"\." + re.escape(frac))
    else:
        alts = [re.escape(value)]
        if len(value) > 3:
            alts.append(_grouped(value))
    body = "|".join(alts)
    return re.compile(rf"(?<!\d)(?<!\d,)(?<!\d\.)(?:{body})(?!\d)(?!,\d)(?!\.\d)")


def _humanized(value: str) -> str | None:
    try:
        number = Decimal(value)
    except InvalidOperation:
        return None
    for unit, word in ((10**9, "billion"), (10**6, "million"), (10**3, "thousand")):
        if abs(number) >= unit:
            scaled = (number / unit).normalize()
            return f"{scaled:f} {word}"
    return None


def _find(pattern: re.Pattern, report: str) -> str:
    m = pattern.search(report)
    return m.group(0) if m else ""


def _grade_address(value: str, report: str) -> tuple[str, str]:
    lowered = report.lower()
    at = lowered.find(value.lower())
    if at >= 0:
        return "full", report[at : at + len(value)]
    short = value[:6].lower()  # 0x plus four hex digits
    at = lowered.find(short)
    if at >= 0:
        return "partial", report[at : at + len(short)]
    return "missing", ""


def _grade_number(value: str, report: str) -> tuple[str, str]:
    hit = _find(_number_pattern(value), report)
    if hit:
        return "full", hit
    human = _humanized(value)
    if human:
        number, word = human.split(" ", 1)
        pattern = re.compile(
            rf"(?<!\d)(?<!\d\.){re.escape(number)}\s*{word}", re.IGNORECASE
        )
        hit = _find(pattern, report)
        if hit:
            return "partial", hit
    return "missing", ""


def _symbol_pattern(symbol: str) -> re.Pattern:
    # Case-sensitive with guards: ETH must not match inside mETH or 0xeth...
    return re.compile(rf"(?<![A-Za-z0-9]){re.escape(symbol)}(?![A-Za-z0-9])")


def _grade_token(value: str, report: str) -> tuple[str, str]:
    symbol, _, amount = value.partition(":")
    symbol_hit = _find(_symbol_pattern(symbol), report)
    if not symbol_hit:
        return "missing", ""
    amount_hit = _find(_number_pattern(amount), report) if amount else ""
    if amount_hit:
        return "full", f"{amount_hit} {symbol_hit}"
    return "partial", symbol_hit


def _grade_text(value: str, report: str) -> tuple[str, str]:
    lowered = report.lower()
    at = lowered.find(value.lower())
    if at >= 0:
        return "full", report[at : at + len(value)]
    words = list(dict.fromkeys(_WORD_RE.findall(value.lower())))
    if words:
        present = set(_WORD_RE.findall(lowered))
        overlap = [w for w in words if w in present]
        if len(overlap) * 2 >= len(words):
            return "partial", " ".join(overlap)
    return "missing", ""


_GRADERS = {
    "address": _grade_address,
    "number": _grade_number,
    "token": _grade_token,
    "text": _grade_text,
}


def coverage(report: str, checklist: list[ChecklistEntity]) -> CoverageReport:
    if not checklist:
        raise EmptyChecklist("coverage requires a non-empty entity checklist")
    statuses = []
    for entity in checklist:
        status, matched = _GRADERS[entity.weight_class](entity.value, report)
        statuses.append(
            EntityStatus(entity.field_name, entity.value, entity.weight_class, status, matched)
        )
    e_all = len(statuses)
    e_full = sum(1 for s in statuses if s.status == "full")
    e_part = sum(1 for s in statuses if s.status == "partial")
    return CoverageReport(e_all, e_full, e_part, (e_full + 0.5 * e_part) / e_all, statuses)


# --- statistics --------------------------------------------------------------


def _percentages(counts: list[int]) -> list[str]:
    """One-decimal percentage strings that sum to exactly 100.0 (largest remainder)."""
    total = sum(counts)
    if total == 0:
        return ["0.0%"] * len(counts)
    tenths = [c * 1000 // total for c in counts]
    remainders = [c * 1000 % total for c in counts]
    short = 1000 - sum(tenths)
    for i in sorted(range(len(counts)), key=lambda i: (-remainders[i], i))[:short]:
        tenths[i] += 1
    return [f"{t // 10}.{t % 10}%" for t in tenths]


def _statistics(level_counts: dict, layer_counts: dict, high_layers: dict) -> dict:
    level_pcts = _percentages([level_counts[lv] for lv in LEVEL_ORDER])
    layers = sorted(layer_counts)
    layer_pcts = _percentages([layer_counts[h] for h in layers])
    return {
        "total_labeled": sum(level_counts.values()),
        "risky_flagged": level_counts[SuspicionLevel.HIGH],
        "levels": [
            {"level": lv.value, "count": level_counts[lv], "share": pct}
            for lv, pct in zip(LEVEL_ORDER, level_pcts)
        ],
        "layers": [
            {"layer": h, "count": layer_counts[h], "share": pct, "high_risk": high_layers.get(h, 0)}
            for h, pct in zip(layers, layer_pcts)
        ],
    }


class _First:
    """The first n items offered, by key, as sorted() would order them: ties
    keep the order they were offered in."""

    def __init__(self, n: int):
        self.n = n
        self.kept: list = []  # (key, item), in key order

    def offer(self, key, item) -> None:
        if len(self.kept) == self.n and key >= self.kept[-1][0]:
            return
        insort(self.kept, (key, item), key=itemgetter(0))
        del self.kept[self.n :]

    def items(self) -> list:
        return [item for _key, item in self.kept]


# --- report generation -------------------------------------------------------

# dimension -> the line a report section shows when no account flagged it
NOTHING_FLAGGED = {
    "transaction_patterns": "No burst or round-number transfer patterns were flagged in this trace.",
    "fund_flows": "No aggregation-dispersion fund-flow patterns were flagged in this trace.",
    "associated_addresses": "No blacklisted counterparties were encountered.",
    "temporal_signs": "No suspicious night-hour concentration was flagged in this trace.",
}


def _analysis(clues, labels) -> dict:
    """The facts both renderers report, folded over the labels in one pass;
    only the counts and the fields the report quotes of a few accounts are
    held."""
    level_counts = {level: 0 for level in LEVEL_ORDER}
    layer_counts: dict[int, int] = {}
    high_layers: dict[int, int] = {}
    high = _First(HIGH_RISK_EXAMPLES)
    evidence = {name: _First(EXAMPLES_PER_SECTION) for name in NOTHING_FLAGGED}
    for assessment in labels:
        layer, address = assessment.hop_depth, assessment.target_address
        key = (layer, address)
        level_counts[assessment.suspicion_level] += 1
        layer_counts[layer] = layer_counts.get(layer, 0) + 1
        if assessment.suspicion_level is SuspicionLevel.HIGH:
            high_layers[layer] = high_layers.get(layer, 0) + 1
            high.offer(key, {"address": address.hex, "layer": layer, "justification": assessment.justification})
        for name, first in evidence.items():
            dimension = getattr(assessment, name)
            if dimension.indicates_risk():
                first.offer(key, (address.hex, layer, dimension))
    if not layer_counts:
        raise ValueError("trace outputs are empty; nothing to report")
    return {
        "case_clues": clues.to_json(),
        "statistics": _statistics(level_counts, layer_counts, high_layers),
        "high_risk_examples": high.items(),
        "dimension_evidence": {
            name: [_evidence_line(*example) for example in first.items()] for name, first in evidence.items()
        },
    }


def _evidence_line(address: str, layer: int, dimension) -> str:
    entry = f"- `{address}` (layer {layer}): {dimension.result}"
    if dimension.evidence:
        entry += f". Evidence: {dimension.evidence}"
    return entry


def _missing_sections(text: str) -> list[str]:
    """The numbers of the sections without a heading after the last one found:
    section N's heading names it as the template or the explainer prompt
    does, case aside, numbered N. or not numbered."""
    headings = [(m.group(1), m.group(2).casefold()) for m in re.finditer(_HEADING, text)]
    missing, at = [], 0
    for i, names in enumerate(_SECTION_NAMES, 1):
        for j in range(at, len(headings)):
            number, title = headings[j]
            if number in (None, str(i)) and title in names:
                at = j + 1
                break
        else:
            missing.append(str(i))
    return missing


def _section_introduction(clues, stats: dict) -> list[str]:
    return [
        "This document helps auditors understand a labeled money-laundering dataset "
        f"built from the {clues.affected_platform or 'incident'} fund-flow trace.",
        "",
        "Case clues were extracted from public incident reports, the on-chain "
        "transaction graph was expanded hop by hop from the attacker seed accounts, "
        "and every reached account received a four-level suspicion verdict with "
        "per-dimension evidence. The sections below summarize the incident, the "
        f"resulting dataset of {stats['total_labeled']} labeled accounts, and the "
        "behavioral patterns auditors should prioritize.",
    ]


def _section_overview(clues) -> list[str]:
    lines = []
    chain = clues.chain or "unknown"
    platform = clues.affected_platform or "an unnamed platform"
    lines.append(f"The incident affected {platform} on the {chain} network.")
    if clues.attack_vector:
        lines.append(f"Attack vector: {clues.attack_vector}")
    if clues.stolen_usd:
        lines.append(f"Estimated stolen value: {clues.stolen_usd:,} USD.")
    if clues.stolen_token:
        lines.append("Stolen assets:")
        lines.extend(f"- {amount} {symbol}" for symbol, amount in sorted(clues.stolen_token.items()))
    for label, addresses in (
        ("Attacker addresses", clues.attacker_addresses),
        ("Victim addresses", clues.victim_addresses),
        ("Incident contracts", clues.contract_address),
    ):
        if addresses:
            lines.append(f"{label}:")
            lines.extend(f"- `{a.hex}`" for a in addresses)
    if clues.laundering_methods:
        lines.append("Laundering methods observed: " + "; ".join(clues.laundering_methods) + ".")
    if clues.laundering_path:
        lines.append(f"Laundering path: {clues.laundering_path}")
    return lines


def _section_statistics(stats: dict) -> list[str]:
    lines = [
        f"The trace labeled {stats['total_labeled']} accounts in total; "
        f"{stats['risky_flagged']} were flagged high-risk.",
        "",
        "| Suspicion level | Accounts | Share |",
        "| --- | --- | --- |",
    ]
    lines.extend(f"| {row['level']} | {row['count']} | {row['share']} |" for row in stats["levels"])
    lines += [
        "",
        "| Trace layer | Accounts | Share | High-risk |",
        "| --- | --- | --- | --- |",
    ]
    lines.extend(
        f"| Layer {row['layer']} | {row['count']} | {row['share']} | {row['high_risk']} |"
        for row in stats["layers"]
    )
    return lines


def _section_risk_accounts(stats: dict, examples: list) -> list[str]:
    if not examples:
        lines = [
            "The trace surfaced no high-risk accounts; every reached account "
            "was rated Medium or below."
        ]
    else:
        lines = ["Representative high-risk accounts:"]
        for ex in examples:
            lines.append(f"- `{ex['address']}` (layer {ex['layer']}): {ex['justification']}")
    counts = {row["level"]: row["count"] for row in stats["levels"]}
    lines += [
        "",
        f"Medium-risk accounts ({counts.get('Medium', 0)}) typically show one "
        "strong indicator, such as dense aggregation-dispersion or contact with a "
        f"blacklisted counterparty. Low-risk accounts ({counts.get('Low', 0)}) show "
        "a single weak signal, and the remaining "
        f"{counts.get('No Suspicion', 0)} accounts exhibited no flagged behavior.",
    ]
    return lines


def _dimension_section(evidence: dict, *names: str) -> list[str]:
    return [line for name in names for line in evidence[name] or [NOTHING_FLAGGED[name]]]


def _section_conclusion(stats: dict) -> list[str]:
    dense = max(stats["layers"], key=lambda row: (row["high_risk"], row["count"]))
    return [
        f"Of {stats['total_labeled']} labeled accounts, {stats['risky_flagged']} "
        f"are high-risk, concentrated around layer {dense['layer']}.",
        "",
        "Recommendations for auditors:",
        "- Start from the high-risk accounts and walk their outgoing transfers layer by layer.",
        "- Treat burst transfers, round-number amounts, and rapid fan-out after "
        "aggregation as triage signals.",
        "- Screen counterparties against the sanctions blacklist before clearing any account.",
        "- Give extra scrutiny to activity in the overnight window, where flagged "
        "transfers concentrated.",
    ]


def _render_template(clues, analysis: dict) -> str:
    stats, evidence = analysis["statistics"], analysis["dimension_evidence"]
    bodies = [
        _section_introduction(clues, stats),
        _section_overview(clues),
        _section_statistics(stats),
        _section_risk_accounts(stats, analysis["high_risk_examples"]),
        _dimension_section(evidence, "transaction_patterns"),
        _dimension_section(evidence, "fund_flows", "associated_addresses"),
        _dimension_section(evidence, "temporal_signs"),
        _section_conclusion(stats),
    ]
    parts = ["# Fund Flow Audit Report"]
    for i, (title, body) in enumerate(zip(SECTION_TITLES, bodies), 1):
        parts.append(f"## {i}. {title}")
        parts.append("\n".join(body))
    return "\n\n".join(parts) + "\n"


def generate_report(clues, labels, backend=None) -> tuple[str, dict]:
    """Render the eight-section audit report for one trace's labels, and say
    where it came from: {"report_source": "model" | "template", "fallback_reason"}.

    `labels` may be any iterable of assessments, such as a stream read from
    labels.jsonl. It is folded over once, holding only counts and the few
    accounts the report quotes, which are taken in (layer, address) order
    whatever order the labels come in (labels of one key in input order, as
    sorted() keeps them). With a backend, the narrative comes
    from the explainer prompt; the reply is accepted only when it carries
    all eight section headings. Otherwise, or when the backend fails, the
    deterministic template fills the same sections from the same analysis
    and fallback_reason says why; the reason is None when no backend was
    given. No labels at all raise ValueError.
    """
    analysis = _analysis(clues, labels)
    reason = None
    if backend is not None:
        analysis_json = json.dumps(analysis, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        prompt = build_explainer_prompt(analysis_json)
        try:
            reply = backend.complete(prompt, temperature=0.0, max_tokens=REPORT_MAX_TOKENS)
        except (BackendFailure, RateLimited) as exc:
            reason = f"backend failed: {exc}"
        else:
            missing = _missing_sections(reply)
            if not missing:
                return reply, {"report_source": "model", "fallback_reason": None}
            reason = f"backend reply missing section(s) {', '.join(missing)}"
        log.warning("%s; using the template renderer", reason)
    return _render_template(clues, analysis), {"report_source": "template", "fallback_reason": reason}
