"""Recovering a structured verdict from free-form backend output.

The contract: take the first well-formed JSON object in the completion,
applying bounded repairs in a fixed order (strip code fences, then trim to
the outermost braces). Whether any repair fired is reported upward, because
a repaired parse is one of the reflection triggers.
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
        return obj, False  # no repair pass can win over it
    candidates = []  # (obj, repaired) in pass order
    if obj is not None:
        candidates.append((obj, False))
    # repair 1: drop code fence lines, they sometimes truncate oddly
    unfenced = _FENCE_RE.sub("", raw)
    if unfenced != raw:
        obj = _first_json_object(unfenced)
        if obj is not None:
            candidates.append((obj, True))
    # repair 2: trim to the outermost brace span and try a direct load
    start, end = raw.find("{"), raw.rfind("}")
    if 0 <= start < end:
        try:
            obj = json.loads(raw[start : end + 1])
            if isinstance(obj, dict):
                candidates.append((obj, True))
        except json.JSONDecodeError:
            pass
    for obj, repaired in candidates:
        if "suspicion_level" in obj:
            return obj, repaired
    if candidates:
        return candidates[0]
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
    return VerdictFragment(
        suspicion_level=level,
        dimensions=dims,
        justification=str(fragment.get("justification", "") or ""),
        gaps=str(fragment.get("gaps", "") or ""),
        repaired=repaired,
        raw=fragment,
    )
