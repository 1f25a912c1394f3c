"""Report rendering and information-coverage scoring."""

import json
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GOLDEN, addr
from risktagger.errors import BackendFailure, EmptyChecklist
from risktagger.explainer import (
    NOTHING_FLAGGED,
    PROMPT_SECTION_TITLES,
    SECTION_TITLES,
    ChecklistEntity,
    build_checklist,
    coverage,
    generate_report,
)
from risktagger.extractor import CaseClues, extract_case_clues
from risktagger.model import RiskAssessment, RiskDimension, SuspicionLevel, normalize_address
from risktagger.reasoner.backends import HttpLlmBackend
from risktagger.reasoner.prompts import build_explainer_prompt


def entity(i: int, field: str = "attacker_addresses") -> ChecklistEntity:
    # First 4 hex digits unique per index so shortened forms never collide.
    hex40 = f"{i:04x}" + f"{i:036x}"
    return ChecklistEntity(field, "0x" + hex40, "address")


def report_for(entities, statuses) -> str:
    """Compose a report that matches each entity at exactly the given grade."""
    lines = ["Audit narrative filler."]
    for ent, status in zip(entities, statuses):
        if status == "full":
            lines.append(f"Account {ent.value} moved funds onward.")
        elif status == "partial":
            lines.append(f"Account {ent.value[:6]}… moved funds onward.")
    return "\n".join(lines)


def scored(e_full: int, e_part: int, e_all: int) -> float:
    entities = [entity(i) for i in range(e_all)]
    statuses = ["full"] * e_full + ["partial"] * e_part + ["missing"] * (e_all - e_full - e_part)
    rep = coverage(report_for(entities, statuses), entities)
    assert rep.e_full == e_full and rep.e_part == e_part and rep.e_all == e_all
    return rep.r_coverage


# --- coverage formula -------------------------------------------------------


def test_eight_full_two_partial_of_ten_is_point_nine():
    assert scored(8, 2, 10) == 0.9


def test_seven_full_two_partial_of_ten_is_point_eight():
    assert scored(7, 2, 10) == 0.8


def test_all_full_is_one():
    assert scored(10, 0, 10) == 1.0


def test_none_matched_is_zero():
    assert scored(0, 0, 7) == 0.0


@settings(max_examples=200)
@given(st.data())
def test_formula_matches_oracle_on_random_triples(data):
    e_all = data.draw(st.integers(min_value=1, max_value=60))
    e_full = data.draw(st.integers(min_value=0, max_value=e_all))
    e_part = data.draw(st.integers(min_value=0, max_value=e_all - e_full))
    assert scored(e_full, e_part, e_all) == (e_full + 0.5 * e_part) / e_all


@settings(max_examples=120)
@given(st.data())
def test_upgrading_one_entity_never_lowers_coverage(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    e_all = data.draw(st.integers(min_value=1, max_value=25))
    statuses = [rng.choice(["full", "partial", "missing"]) for _ in range(e_all)]
    upgradable = [i for i, s in enumerate(statuses) if s != "full"]
    if not upgradable:
        return
    entities = [entity(i) for i in range(e_all)]
    before = coverage(report_for(entities, statuses), entities).r_coverage
    i = rng.choice(upgradable)
    statuses[i] = "partial" if statuses[i] == "missing" else "full"
    after = coverage(report_for(entities, statuses), entities).r_coverage
    assert after >= before


def test_empty_checklist_rejected():
    with pytest.raises(EmptyChecklist):
        coverage("anything", [])


# --- per-class matching rules -----------------------------------------------

ADDR = "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"


@pytest.mark.parametrize(
    "text,status",
    [
        (f"funds reached {ADDR} quickly", "full"),
        ("funds reached 0x47666FAB8BD0AC7003BCE3F5C3585383F09486E2", "full"),
        ("funds reached 0x4766...86e2 quickly", "partial"),
        ("funds reached 0x4766 quickly", "partial"),
        ("no addresses here", "missing"),
    ],
)
def test_address_matching(text, status):
    rep = coverage(text, [ChecklistEntity("attacker_addresses", ADDR, "address")])
    assert rep.entities[0].status == status


@pytest.mark.parametrize(
    "value,text,status",
    [
        ("1500000000", "stolen value 1,500,000,000 USD", "full"),
        ("1500000000", "stolen value 1500000000 USD", "full"),
        ("1500000000", "roughly $1.5 billion was taken", "partial"),
        ("1500000000", "a nine-figure sum", "missing"),
        ("8000", "about 8 thousand units", "partial"),
        ("8000", "exactly 8,000 units", "full"),
    ],
)
def test_number_matching(value, text, status):
    rep = coverage(text, [ChecklistEntity("stolen_usd", value, "number")])
    assert rep.entities[0].status == status


@pytest.mark.parametrize(
    "value,text,status",
    [
        ("ETH:401000", "drained 401,000 ETH from the wallet", "full"),
        ("ETH:401000", "drained 401000 ETH from the wallet", "full"),
        ("ETH:401000", "some ETH was moved", "partial"),
        ("ETH:401000", "8,000 mETH was moved", "missing"),
        ("mETH:8000", "8,000 mETH was moved", "full"),
        ("mETH:8000", "mETH exposure confirmed, amount unclear", "partial"),
    ],
)
def test_token_matching(value, text, status):
    rep = coverage(text, [ChecklistEntity("stolen_token", value, "token")])
    assert rep.entities[0].status == status


@pytest.mark.parametrize(
    "value,text,status",
    [
        ("ethereum", "traced on the Ethereum mainnet", "full"),
        ("cross-chain bridging", "relied on cross-chain bridging heavily", "full"),
        ("rapid cross-chain bridging via THORChain", "observed cross-chain bridging activity", "partial"),
        ("peel chains", "nothing relevant at all", "missing"),
    ],
)
def test_text_matching(value, text, status):
    rep = coverage(text, [ChecklistEntity("laundering_methods", value, "text")])
    assert rep.entities[0].status == status


def test_matched_snippet_recorded_for_full_hits():
    rep = coverage(f"seen at {ADDR} today", [ChecklistEntity("a", ADDR, "address")])
    assert rep.entities[0].matched.lower() == ADDR
    missing = coverage("nothing", [ChecklistEntity("a", ADDR, "address")])
    assert missing.entities[0].matched == ""


# --- checklist construction -------------------------------------------------


def sample_clues(**overrides) -> CaseClues:
    base = dict(
        chain="ethereum",
        attack_vector="supply chain compromise",
        affected_platform="Bybit",
        contract_address=[addr(0xB1), addr(0xB2)],
        attacker_addresses=[normalize_address(ADDR, "ethereum")],
        victim_addresses=[addr(0xC1)],
        stolen_usd=1_500_000_000,
        stolen_token={"ETH": "401000", "mETH": "8000", "cmETH": "15000", "stETH": "90000"},
        laundering_methods=["cross-chain bridging", "peel chains"],
        laundering_path="staging address then fan-out",
        status={},
    )
    base.update(overrides)
    return CaseClues(**base)


def test_checklist_one_entity_per_list_element_and_token_symbol():
    checklist = build_checklist(sample_clues())
    by_field = {}
    for ent in checklist:
        by_field.setdefault(ent.field_name, []).append(ent)
    assert len(by_field["contract_address"]) == 2
    assert len(by_field["attacker_addresses"]) == 1
    assert len(by_field["stolen_token"]) == 4
    assert sorted(e.value for e in by_field["stolen_token"]) == [
        "ETH:401000",
        "cmETH:15000",
        "mETH:8000",
        "stETH:90000",
    ]
    assert len(by_field["laundering_methods"]) == 2
    for mandatory in (
        "chain",
        "attack_vector",
        "affected_platform",
        "contract_address",
        "attacker_addresses",
        "victim_addresses",
        "stolen_usd",
        "stolen_token",
    ):
        assert by_field[mandatory], mandatory


def test_checklist_weight_classes():
    classes = {e.field_name: e.weight_class for e in build_checklist(sample_clues())}
    assert classes["attacker_addresses"] == "address"
    assert classes["stolen_usd"] == "number"
    assert classes["stolen_token"] == "token"
    assert classes["attack_vector"] == "text"


def test_checklist_skips_empty_fields():
    clues = sample_clues(laundering_methods=[], laundering_path="", attack_vector="")
    fields = {e.field_name for e in build_checklist(clues)}
    assert "laundering_methods" not in fields
    assert "laundering_path" not in fields
    assert "attack_vector" not in fields


# --- report generation ------------------------------------------------------


def dim(result: str = "", evidence: str = "") -> RiskDimension:
    return RiskDimension(result=result, evidence=evidence)


def assessment(n: int, level: SuspicionLevel, hop: int, **dims) -> RiskAssessment:
    return RiskAssessment(
        target_address=addr(n),
        suspicion_level=level,
        transaction_patterns=dims.get("patterns", dim()),
        fund_flows=dims.get("flows", dim()),
        associated_addresses=dims.get("assoc", dim()),
        temporal_signs=dims.get("temporal", dim()),
        justification=f"account {n} rationale",
        gaps="",
        out_neighbors=[],
        hop_depth=hop,
    )


def fixture_dataset():
    levels = (
        [SuspicionLevel.HIGH] * 2
        + [SuspicionLevel.MEDIUM] * 1
        + [SuspicionLevel.LOW] * 3
        + [SuspicionLevel.NO_SUSPICION] * 4
    )
    l_all = [
        assessment(
            0xE0 + i,
            level,
            hop=min(i, 3),
            patterns=dim("burst of 25 transfers", "25 tx inside one hour") if i == 0 else dim(),
            flows=dim("Aggregation-dispersion", "12 senders then 3 receivers") if i == 1 else dim(),
            temporal=dim("Night-hour concentration", "2 of 3 tx between 02:00-04:00 UTC")
            if i == 2
            else dim(),
        )
        for i, level in enumerate(levels)
    ]
    return l_all


def section_bodies(report: str) -> dict:
    bodies, current = {}, None
    for line in report.splitlines():
        if line.startswith("## "):
            current = line[3:].split(". ", 1)[-1]
            bodies[current] = []
        elif current is not None:
            bodies[current].append(line)
    return {k: "\n".join(v) for k, v in bodies.items()}


def test_report_has_exactly_the_eight_sections_in_order():
    report, _ = generate_report(sample_clues(), fixture_dataset())
    headings = [l for l in report.splitlines() if l.startswith("## ")]
    assert [h[3:].split(". ", 1)[-1] for h in headings] == list(SECTION_TITLES)
    assert len(SECTION_TITLES) == 8


def test_statistics_section_counts_and_percentages():
    report, _ = generate_report(sample_clues(), fixture_dataset())
    stats = section_bodies(report)["Dataset Statistical Summary"]
    assert "High" in stats and "| 2 |" in stats and "20.0%" in stats
    assert "| 3 |" in stats and "30.0%" in stats  # Low
    assert "| 4 |" in stats and "40.0%" in stats  # No Suspicion


def test_percentages_sum_to_one_hundred_with_awkward_thirds():
    # 1/3 each rounds to 33.3; naive rounding would total 99.9.
    levels = [SuspicionLevel.HIGH, SuspicionLevel.MEDIUM, SuspicionLevel.LOW]
    l_all = [assessment(0xF0 + i, levels[i], hop=0) for i in range(3)]
    report, _ = generate_report(sample_clues(), l_all)
    stats = section_bodies(report)["Dataset Statistical Summary"]
    shown = [float(tok.strip("|").rstrip("%")) for tok in stats.split() if tok.rstrip("|").endswith("%")]
    level_pcts = [p for p in shown if p in (33.3, 33.4)]
    assert sorted(level_pcts) == [33.3, 33.3, 33.4]


def test_hop_layer_distribution_present():
    report, _ = generate_report(sample_clues(), fixture_dataset())
    stats = section_bodies(report)["Dataset Statistical Summary"]
    assert "Layer 0" in stats and "Layer 3" in stats


def test_empty_r_final_states_no_high_risk_accounts():
    calm = [a for a in fixture_dataset() if a.suspicion_level is not SuspicionLevel.HIGH]
    report, _ = generate_report(sample_clues(), calm)
    assert "no high-risk accounts" in section_bodies(report)["Risk Account Analysis"].lower()
    assert len([l for l in report.splitlines() if l.startswith("## ")]) == 8


def test_overview_mentions_grouped_stolen_value():
    report, _ = generate_report(sample_clues(), fixture_dataset())
    assert "1,500,000,000 USD" in section_bodies(report)["Incident Overview"]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        generate_report(sample_clues(), [])


def test_fallback_report_fully_covers_its_own_checklist():
    clues = sample_clues()
    report, _ = generate_report(clues, fixture_dataset())
    rep = coverage(report, build_checklist(clues))
    assert rep.e_full == rep.e_all
    assert rep.r_coverage == 1.0


def test_fallback_covers_checklist_from_real_incident_document():
    text = (FIXTURES / "bybit_incident.txt").read_text()
    clues, _ = extract_case_clues(text)
    report, _ = generate_report(clues, fixture_dataset())
    rep = coverage(report, build_checklist(clues))
    assert rep.e_full == rep.e_all and rep.r_coverage == 1.0


def golden_labels():
    lines = (GOLDEN / "synthetic_labels.golden.jsonl").read_text(encoding="utf-8").splitlines()
    return [RiskAssessment.from_json(json.loads(line)) for line in lines]


def explain_files(clues, labels):
    """report.md and coverage.json as explain writes them."""
    report, source = generate_report(clues, labels)
    scored = coverage(report, build_checklist(clues))
    return report, json.dumps({**scored.to_json(), **source}, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("seed", range(3))
def test_report_and_coverage_do_not_depend_on_label_order(seed):
    rng = random.Random(seed)
    labels = golden_labels()
    labels += rng.sample(labels, 60)  # duplicated (hop, address) keys, High ones among them
    shuffled = rng.sample(labels, len(labels))
    # a one-pass iterator, as explain streams labels.jsonl
    assert explain_files(sample_clues(), iter(shuffled)) == explain_files(sample_clues(), labels)


def test_report_keeps_tied_labels_in_input_order_as_sorting_does():
    rng = random.Random(5)
    labels = golden_labels()
    # a twin for every label: the same (hop, address) key, distinguishable text
    twins = [
        replace(label, justification=f"twin {n}", transaction_patterns=RiskDimension(f"twin {n}", "e"))
        for n, label in enumerate(labels)
    ]
    shuffled = rng.sample(labels + twins, len(labels) + len(twins))
    report, _ = generate_report(sample_clues(), iter(shuffled))

    ordered = sorted(shuffled, key=lambda a: (a.hop_depth, a.target_address))
    high = [a for a in ordered if a.suspicion_level is SuspicionLevel.HIGH][:5]
    patterns = [a for a in ordered if a.transaction_patterns.indicates_risk()][:3]
    assert "\n".join(f"- `{a.target_address.hex}` (layer {a.hop_depth}): {a.justification}" for a in high) in report
    assert "\n".join(
        f"- `{a.target_address.hex}` (layer {a.hop_depth}): {a.transaction_patterns.result}. "
        f"Evidence: {a.transaction_patterns.evidence}"
        for a in patterns
    ) in report
    assert any(a.justification.startswith("twin") for a in high) and any(a in twins for a in patterns)


def test_report_is_deterministic():
    a = generate_report(sample_clues(), fixture_dataset())
    b = generate_report(sample_clues(), fixture_dataset())
    assert a == b


# --- backend narrative path -------------------------------------------------


class ScriptedBackend:
    name = "scripted"

    def __init__(self, reply: str):
        self.reply = reply
        self.prompts = []

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        self.prompts.append(prompt)
        return self.reply


class FailingBackend:
    name = "failing"

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        raise BackendFailure("backend down")


def canned_document() -> str:
    return "\n\n".join(f"## {i}. {title}\n\nNarrative." for i, title in enumerate(SECTION_TITLES, 1))


def test_backend_document_with_all_sections_is_used_verbatim():
    backend = ScriptedBackend(canned_document())
    report, _ = generate_report(sample_clues(), fixture_dataset(), backend=backend)
    assert report == canned_document()
    assert len(backend.prompts) == 1
    assert "financial crime investigation expert" in backend.prompts[0]
    assert '"total_labeled":10' in backend.prompts[0]


def test_backend_missing_sections_falls_back_to_template():
    backend = ScriptedBackend("## 1. Introduction\n\nonly one section")
    report, _ = generate_report(sample_clues(), fixture_dataset(), backend=backend)
    assert len([l for l in report.splitlines() if l.startswith("## ")]) == 8
    assert "1,500,000,000 USD" in report


def _prompt_titles():
    return [PROMPT_SECTION_TITLES.get(i, title) for i, title in enumerate(SECTION_TITLES, 1)]


@pytest.mark.parametrize(
    "document, missing",
    [
        ("\n\n".join(f"## {i}. {t}\n\nNarrative." for i, t in enumerate(_prompt_titles(), 1)), None),
        ("\n\n".join(f"## {t}\n\nNarrative." for t in _prompt_titles()), None),
        ("\n\n".join(f"{'#' * (1 + i % 3)} {t.upper()}\n\nNarrative." for i, t in enumerate(SECTION_TITLES)), None),
        # controls: all eight, in order, each under its own number
        ("\n\n".join(f"## {t}\n\nNarrative." for t in reversed(_prompt_titles())), "2, 3, 4, 5, 6, 7, 8"),
        (canned_document().replace("## 4. ", "## 5. "), "4"),
        (canned_document().replace("## 6. Fund Flow", "## 6. Fund Flows"), "6"),
    ],
    ids=["numbered-prompt-titles", "bare-prompt-titles", "any-level-and-case", "reversed", "wrong-number", "other-title"],
)
def test_section_headings_of_either_outline_at_any_level_are_accepted_in_order(document, missing):
    report, provenance = generate_report(sample_clues(), fixture_dataset(), backend=ScriptedBackend(document))
    if missing is None:
        assert (report, provenance["report_source"]) == (document, "model")
    else:
        assert provenance == {"report_source": "template", "fallback_reason": f"backend reply missing section(s) {missing}"}


def test_the_prompt_section_titles_are_the_explainer_prompts():
    prompt = build_explainer_prompt("{}")
    outline = prompt[prompt.index("3. Report Generation Explanation") :]
    assert re.findall(r"^- (.+)$", outline, re.MULTILINE) == _prompt_titles()


def test_prompt_and_template_report_one_analysis():
    backend = ScriptedBackend("a reply without the section headings")
    report, _ = generate_report(sample_clues(), fixture_dataset(), backend=backend)
    prompt = backend.prompts[0]
    analysis, _ = json.JSONDecoder().raw_decode(prompt, prompt.index('{"case_clues"'))
    evidence = analysis["dimension_evidence"]
    assert set(evidence) == set(NOTHING_FLAGGED)
    assert evidence["associated_addresses"] == []  # the fixture flags no counterparty
    for name, lines in evidence.items():
        for line in lines or [NOTHING_FLAGGED[name]]:
            assert line in report, (name, line)
    assert len(analysis["high_risk_examples"]) == 2
    for example in analysis["high_risk_examples"]:
        assert example["address"] in report


def test_backend_failure_falls_back_by_default():
    report, _ = generate_report(sample_clues(), fixture_dataset(), backend=FailingBackend())
    assert len([l for l in report.splitlines() if l.startswith("## ")]) == 8


def test_a_rate_limited_llm_backend_falls_back_to_the_template():
    posts = []

    def post(url, **kwargs):
        posts.append(url)
        return SimpleNamespace(status_code=429, headers={}, text="")

    backend = HttpLlmBackend("http://llm.test/v1", session=SimpleNamespace(post=post), backoff_base_s=0.01)
    report, provenance = generate_report(sample_clues(), fixture_dataset(), backend=backend)
    assert len(posts) == 3
    assert provenance == {"report_source": "template", "fallback_reason": "backend failed: LLM endpoint returned 429"}
    assert report == generate_report(sample_clues(), fixture_dataset())[0]



@pytest.mark.parametrize(
    "backend, source, reason",
    [
        (None, "template", None),
        (ScriptedBackend(canned_document()), "model", None),
        (FailingBackend(), "template", "backend failed: backend down"),
        (
            ScriptedBackend(canned_document().replace("## 3. ", "## Three. ")),
            "template",
            "backend reply missing section(s) 3",
        ),
    ],
    ids=["no-backend", "model-reply", "backend-failure", "missing-sections"],
)
def test_report_says_whether_the_model_or_the_template_wrote_it(backend, source, reason):
    report, provenance = generate_report(sample_clues(), fixture_dataset(), backend=backend)
    assert provenance == {"report_source": source, "fallback_reason": reason}
    template, _ = generate_report(sample_clues(), fixture_dataset())
    assert report == (canned_document() if source == "model" else template)
