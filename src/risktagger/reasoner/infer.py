"""Per-account inference: analyst pass, consistency checks, bounded reflection.

Backend call budget for reflection_rounds = R: at most 1 + R verdict calls
and at most R reflection calls. A round only re-issues the analyst prompt
when the auditor actually listed flaws; "No flaw" lets the verdict stand.
"""

from __future__ import annotations

import json
import re

from ..model import RiskAssessment, SuspicionLevel
from ..translator import AccountSubgraph, to_reasoner_payload
from .backends import DEFAULT_MAX_TOKENS, BackendPort
from .parsing import VerdictFragment, parse_verdict
from .prompts import build_cot_prompt, build_reflection_prompt

_NO_FLAW_RE = re.compile(r"\bno flaw", re.IGNORECASE)
# "No flaw" as the answer's first sentence or line, after any bullet, quote or
# bold; left to re's cache, as the rule engine's reply never reaches it
_NO_FLAW_ANSWER = r"(?im)[\W_]*no flaws?[*_\"']*[ \t]*(?:[.!:;]|$)"
_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s+(.*\S)\s*$")


def consistency_trigger(fragment: VerdictFragment) -> str | None:
    """Reflection triggers, checked in documented order."""
    risky = sum(1 for d in fragment.dimensions.values() if d.indicates_risk())
    if fragment.suspicion_level in (SuspicionLevel.HIGH, SuspicionLevel.MEDIUM) and risky == 0:
        return "level_without_risk_dimensions"
    if fragment.suspicion_level is SuspicionLevel.NO_SUSPICION and risky >= 2:
        return "no_suspicion_despite_risk_dimensions"
    if fragment.repaired:
        return "verdict_required_repair"
    return None


def parse_reflection(text: str) -> list[str]:
    """Issue list from the auditor completion, empty for "No flaw". The answer
    follows "Critical Issues Identified", or is the whole reply without it.
    An answer whose first sentence is "No flaw" lists no issue, however it
    explains itself; otherwise its bulleted lines are the issues. An answer
    with no bullet lists none when it says "no flaw" anywhere, else its whole
    text is the one issue."""
    m = re.search(r"critical issues identified\s*:?", text, re.IGNORECASE)
    answer = text[m.end():] if m else text
    if re.match(_NO_FLAW_ANSWER, answer):
        return []
    issues = [m.group(1) for line in answer.splitlines() if (m := _BULLET_RE.match(line))]
    if issues or _NO_FLAW_RE.search(text):
        return issues
    flat = " ".join(text.split())
    return [flat[:300]] if flat else []


def infer_risk(
    sub: AccountSubgraph,
    backend: BackendPort,
    hop_depth: int = 0,
    reflection_rounds: int = 1,
) -> RiskAssessment:
    prompt = build_cot_prompt(sub.center, to_reasoner_payload(sub))
    raw = backend.complete(prompt, 0.0, DEFAULT_MAX_TOKENS)
    fragment = parse_verdict(raw)

    issues: list[str] = []
    for _ in range(max(0, reflection_rounds)):
        trigger = consistency_trigger(fragment)
        if trigger is None:
            break
        reflection_prompt = build_reflection_prompt(
            sub.center,
            json.dumps(fragment.raw, ensure_ascii=False, separators=(",", ":")),
        )
        review = backend.complete(reflection_prompt, 0.0, DEFAULT_MAX_TOKENS)
        round_issues = parse_reflection(review)
        if not round_issues:
            break  # auditor found no flaw; the verdict stands as issued
        issues.extend(round_issues)
        addenda = (
            prompt
            + "\n\nReflection Addenda\nA review of your previous answer identified these flaws; "
            + "address each one and re-issue the full output JSON:\n"
            + "\n".join(f"- {issue}" for issue in round_issues)
        )
        raw = backend.complete(addenda, 0.0, DEFAULT_MAX_TOKENS)
        fragment = parse_verdict(raw)

    dims = fragment.dimensions
    return RiskAssessment(
        target_address=sub.center,
        suspicion_level=fragment.suspicion_level,
        transaction_patterns=dims["transaction_patterns"],
        fund_flows=dims["fund_flows"],
        associated_addresses=dims["associated_addresses"],
        temporal_signs=dims["temporal_signs"],
        justification=fragment.justification,
        gaps=fragment.gaps,
        out_neighbors=list(sub.out_flows),
        hop_depth=hop_depth,
        reflection_issues=issues,
        reasoner_backend=backend.name,
    )
