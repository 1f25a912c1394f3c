"""Each reply parser reads the form its own prompt asks for: a reply written
from a template's output section keeps every field through that parser."""

import json
import re

import pytest

from conftest import GOLDEN
from risktagger.explainer import generate_report
from risktagger.extractor import ALL_FIELDS, CaseClues, LlmExtractor, extract_case_clues
from risktagger.model import RiskAssessment
from risktagger.reasoner import parse_verdict
from risktagger.reasoner.infer import parse_reflection
from risktagger.reasoner.parsing import DIM_KEYS
from risktagger.reasoner.prompts import get_template


class Scripted:
    name = "scripted"

    def __init__(self, reply):
        self.reply = reply

    def complete(self, prompt, temperature, max_tokens):
        return self.reply


def verdict_case():
    """cot_part2 asks for Justification and Gaps lines, then its Output JSON."""
    text = get_template("cot_part2").text
    output, _ = json.JSONDecoder().raw_decode(text, text.index("{", text.index("4. Output")))
    output["suspicion_level"] = "High"
    for key in DIM_KEYS:
        output[key] = {"result": f"{key} risk", "evidence": f"{key} rows"}
    reply = (
        "3. Conclusion & Documentation\n"
        "- Suspicion Level: High\n"
        "- Justification: On 2025-02-21, received 12 transfers, then sent them on within 10 mins\n"
        "- Risk Details: 3 counterparties are blacklisted\n"
        "- Gaps: Intermediate address identities not confirmed\n\n"
        "4. Output\n" + json.dumps(output, indent=4)
    )
    fragment = parse_verdict(reply)
    got = {
        "level": fragment.suspicion_level.value,
        "dimensions": {key: vars(fragment.dimensions[name]) for key, name in DIM_KEYS.items()},
        "justification": fragment.justification,
        "gaps": fragment.gaps,
    }
    expected = {
        "level": "High",
        "dimensions": {key: output[key] for key in DIM_KEYS},
        "justification": "On 2025-02-21, received 12 transfers, then sent them on within 10 mins",
        "gaps": "Intermediate address identities not confirmed",
    }
    return got, expected


def reflection_case():
    """reflection asks for the flaws listed under "Critical Issues Identified"."""
    assert "Critical Issues Identified:" in get_template("reflection").text
    issues = [
        "Dimension a shows no flaw, but the High level cites no transaction rows.",
        "Justification is vague.",
    ]
    reply = "4. Reflection Output\n- Critical Issues Identified:\n" + "".join(f"  - {i}\n" for i in issues)
    return parse_reflection(reply), issues


def report_case():
    """explainer_part2 names the eight sections as top-level bullets."""
    text = get_template("explainer_part2").text
    titles = re.findall(r"^- (.+)$", text[text.index("3. Report Generation Explanation") :], re.MULTILINE)
    assert len(titles) == 8
    reply = "# Bybit Money Laundering Dataset\n\n" + "\n\n".join(f"## {t}\n\nNarrative." for t in titles)
    label = RiskAssessment.from_json(json.loads((GOLDEN / "synthetic_labels.golden.jsonl").read_text().splitlines()[0]))
    report, source = generate_report(CaseClues(chain="ethereum"), [label], backend=Scripted(reply))
    return (report, source["report_source"]), (reply, "model")


CLUES = {
    "chain": "ethereum",
    "attack_vector": "Supply chain compromise",
    "affected_platform": "Bybit",
    "contract_address": ["0x96221423681a6d52e184d440a8efcebb105c7242"],
    "attacker_addresses": ["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"],
    "victim_addresses": ["0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4"],
    "stolen_usd": 1500000000,
    "stolen_token": {"ETH": "401000"},
    "laundering_methods": ["cross-chain bridging"],
    "laundering_path": "THORChain to Bitcoin",
    "evidence_snippets": ["Lazarus Group"],
}


def extractor_case():
    """extractor_chunk asks for one list of [value, snippet] pairs per field."""
    text = get_template("extractor_chunk").text
    skeleton, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
    assert list(skeleton) == list(CLUES)
    values = {**CLUES, "stolen_usd": "1500000000", "stolen_token": "ETH:401000"}
    quotes = {field: str(v[0] if isinstance(v, list) else v) for field, v in values.items()}
    quotes["chain"] = "Ethereum"
    doc = "Report: " + "; ".join(quotes.values()) + "."
    reply = {field: [[v[0] if isinstance(v, list) else v, quotes[field]]] for field, v in values.items()}
    clues, _ = extract_case_clues(doc, backend=LlmExtractor(Scripted(json.dumps(reply))))
    got = clues.to_json()
    assert set(got.pop("status").values()) == {"complete"}
    return got, CLUES


CASES = {
    "cot_part2": verdict_case,
    "reflection": reflection_case,
    "explainer_part2": report_case,
    "extractor_chunk": extractor_case,
}


@pytest.mark.parametrize("template", list(CASES))
def test_a_reply_in_its_templates_own_form_keeps_every_field(template):
    got, expected = CASES[template]()
    assert got == expected


def test_every_clue_field_is_in_the_extractor_case():
    assert sorted(CLUES) == sorted(ALL_FIELDS)
