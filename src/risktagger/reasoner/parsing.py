"""Recovering a structured verdict from free-form backend output.

The contract: take the first well-formed JSON object in the completion,
preferring one that carries a suspicion level, found as written or after
one bounded repair (strip code fence lines). Whether the repair fired is
reported upward, because a repaired parse is one of the reflection triggers.
The justification and gaps come from the object's keys, or, where it has
none, from the "Justification:" and "Gaps:" lines the analyst prompt asks
for in the prose.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from ..errors import SchemaViolation, UnparseableVerdict
from ..model import RiskDimension, SuspicionLevel

# verdict JSON key -> assessment field
DIM_KEYS = {
    "a_transaction_patterns": "transaction_patterns",
    "b_fund_flows": "fund_flows",
    "c_associated_addresses": "associated_addresses",
    "d_temporal_behavioral_signs": "temporal_signs",
}

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*$", re.MULTILINE)
# a "Justification: ..." or "Gaps: ..." line, bulleted or in bold or neither;
# left to re's cache, so only a reply that reaches it pays for its compile
_PROSE_FIELD = r"(?im)^[ \t]*(?:[-*•][ \t]*)?\**(justification|gaps)\**[ \t]*:[ \t]*\**[ \t]*(.*?)[ \t]*$"


@dataclass
class VerdictFragment:
    suspicion_level: SuspicionLevel
    dimensions: dict  # assessment field name -> RiskDimension
    justification: str = ""
    gaps: str = ""
    repaired: bool = False
    raw: dict = field(default_factory=dict)


def _first_json_object(text: str):
    """Earliest decodable dict carrying 'suspicion_level', else earliest dict.

    The preference matters: a broken outer object still contains intact
    dimension sub-objects, and those must not shadow the repair passes.
    """
    decoder = json.JSONDecoder()
    fallback = None
    for match in re.finditer(r"\{", text):
        try:
            obj, _ = decoder.raw_decode(text, match.start())
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict):
            continue
        if "suspicion_level" in obj:
            return obj
        if fallback is None:
            fallback = obj
    return fallback


def extract_json_fragment(raw: str) -> tuple[dict, bool]:
    """Returns (fragment, repaired). Raises UnparseableVerdict when hopeless."""
    obj = _first_json_object(raw)
    if obj is not None and "suspicion_level" in obj:
        return obj, False  # the repair cannot win over it
    # the repair: drop code fence lines, they sometimes truncate oddly
    unfenced = _FENCE_RE.sub("", raw)
    if unfenced != raw:
        repaired = _first_json_object(unfenced)
        if repaired is not None and (obj is None or "suspicion_level" in repaired):
            return repaired, True
    if obj is not None:
        return obj, False
    raise UnparseableVerdict(
        f"no JSON object recoverable from completion ({len(raw)} chars)"
    )


_LEVEL_PHRASES = [
    ("no suspicion", SuspicionLevel.NO_SUSPICION),
    ("high", SuspicionLevel.HIGH),
    ("medium", SuspicionLevel.MEDIUM),
    ("low", SuspicionLevel.LOW),
]


def level_from_text(text: str) -> SuspicionLevel:
    """Tolerates prose around the label; the earliest mention wins."""
    lowered = text.lower()
    best = None
    for phrase, level in _LEVEL_PHRASES:
        pattern = re.escape(phrase) if " " in phrase else r"\b" + re.escape(phrase) + r"\b"
        m = re.search(pattern, lowered)
        if m and (best is None or m.start() < best[0]):
            # "no suspicion" contains no competing word, but "low liquidity"
            # must not hide an earlier "High" -- position decides
            best = (m.start(), level)
    if best is None:
        raise SchemaViolation(f"unrecognized suspicion level {text!r}")
    return best[1]


def parse_verdict(raw: str) -> VerdictFragment:
    fragment, repaired = extract_json_fragment(raw)
    if "suspicion_level" not in fragment:
        raise SchemaViolation("verdict JSON lacks required key 'suspicion_level'")
    level = level_from_text(str(fragment["suspicion_level"]))
    dims = {}
    for key, field_name in DIM_KEYS.items():
        if key not in fragment:
            raise SchemaViolation(f"verdict JSON lacks required key {key!r}")
        block = fragment[key]
        if not isinstance(block, dict):
            raise SchemaViolation(f"verdict key {key!r} must be an object")
        dims[field_name] = RiskDimension(
            result=str(block.get("result", "") or ""),
            evidence=str(block.get("evidence", "") or ""),
        )
    notes = {key: str(fragment[key] or "") for key in ("justification", "gaps") if key in fragment}
    if len(notes) < 2:  # a JSON key wins over the prose, and the first prose line over later ones
        for m in re.finditer(_PROSE_FIELD, raw):
            notes.setdefault(m.group(1).lower(), m.group(2))
    return VerdictFragment(level, dims, repaired=repaired, raw=fragment, **notes)
