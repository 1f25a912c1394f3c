"""Prompt registry: golden fidelity, rendering rules, hashes and the template cache.

The golden files are the canonical transcriptions of the analyst, auditor
and explainer prompt texts with placeholder slots blanked; the templates on
disk must render to those bytes exactly.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import GOLDEN, REPO_ROOT, addr, make_tx
from risktagger.errors import MissingPlaceholder
from risktagger.model import TracerConfig
from risktagger.reasoner import (
    build_cot_prompt,
    build_explainer_prompt,
    build_reflection_prompt,
    load_template,
    render,
    template_hashes,
)
from risktagger.reasoner import prompts
from risktagger.reasoner.prompts import REGISTRY
from risktagger.translator import build_subgraph, to_reasoner_payload

TRANSCRIBED = ["cot_part1", "cot_part2", "reflection", "explainer_part1", "explainer_part2"]


def _blank(template_id: str) -> str:
    template = load_template(template_id)
    return render(template, {name: "" for name in template.placeholders})


@pytest.mark.parametrize("template_id", TRANSCRIBED)
def test_golden_fidelity(template_id):
    golden = (GOLDEN / f"{template_id}.golden.txt").read_bytes()
    assert _blank(template_id).encode("utf-8") == golden


def payload_for(center):
    txs = [make_tx(1, center, addr(2), value="10", ts=1_740_000_000)]
    sub = build_subgraph(center, txs, [], TracerConfig(), 1_740_000_500)
    return to_reasoner_payload(sub)


def test_cot_prompt_contains_required_blocks():
    center = addr(1)
    prompt = build_cot_prompt(center, payload_for(center))
    assert "2. Risk Dimensions to Check" in prompt
    assert center.hex in prompt
    for heading in ("a) Transaction Patterns", "b) Fund Flows", "c) Associated Addresses", "d) Temporal & Behavioral Signs"):
        assert heading in prompt
    # output schema block appears verbatim
    assert '"a_transaction_patterns": {' in prompt
    assert '"d_temporal_behavioral_signs": {' in prompt
    assert '"suspicion_level": "Classification of suspicion (High / Medium / Low / No Suspicion)"' in prompt
    # no unbound placeholder slots survive
    assert not re.search(r"\{(target_address|formatted_analysis|analysis_result)\}", prompt)


def test_cot_prompt_embeds_payload_json():
    center = addr(1)
    prompt = build_cot_prompt(center, payload_for(center))
    assert '{"payload_version":3,' in prompt


def test_render_missing_placeholder():
    template = load_template("cot_part1")
    with pytest.raises(MissingPlaceholder):
        render(template, {"target_address": "0xabc"})  # formatted_analysis absent


RENDER_PROBE = """
import json
from risktagger.reasoner.prompts import get_template, render
print(json.dumps([
    render(get_template("extractor_chunk"), {"chunk_id": "c7", "chunk_text": "wrote {chunk_id} here"}),
    render(get_template("reflection"), {"target_address": "{analysis_result}", "analysis_result": "{target_address}"}),
]))
"""


def test_a_value_holding_a_slot_token_renders_verbatim_whatever_the_hash_seed():
    chunk, reflection = load_template("extractor_chunk").text, load_template("reflection").text
    expected = [
        chunk.replace("{chunk_id}", "c7").replace("{chunk_text}", "wrote {chunk_id} here"),
        reflection.replace("{target_address}", "\0").replace("{analysis_result}", "{target_address}")
        .replace("\0", "{analysis_result}"),
    ]
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, "-c", RENDER_PROBE], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == expected


def test_a_template_slot_it_never_binds_fails_the_load(tmp_path, monkeypatch):
    (tmp_path / "cot_part2.txt").write_text("Answer for {target_address}.\n", encoding="utf-8")
    monkeypatch.setattr(prompts, "_prompts_dir", lambda: tmp_path)
    with pytest.raises(MissingPlaceholder, match="target_address"):
        load_template("cot_part2")


def test_reflection_prompt_carries_analysis():
    prompt = build_reflection_prompt(addr(3), '{"suspicion_level": "High"}')
    assert prompt.startswith("You are a blockchain security auditor")
    assert '{"suspicion_level": "High"}' in prompt
    assert addr(3).hex in prompt


def test_explainer_prompt_has_eight_section_outline():
    prompt = build_explainer_prompt('{"dataset": {}}')
    assert "3. Report Generation Explanation" in prompt
    assert "Conclusion and Audit Recommendations" in prompt


def test_templates_hash_stable_across_loads():
    assert template_hashes() == template_hashes()


def test_the_template_files_are_the_registered_templates():
    """A template file that nothing registers is hashed into no journal
    header, and a registered template without its file fails every run."""
    on_disk = {path.stem for path in prompts._prompts_dir().glob("*.txt")}
    assert on_disk == set(REGISTRY)


def test_each_template_is_read_once_per_process(monkeypatch):
    reads = []

    def counting(template_id):
        reads.append(template_id)
        return load_template(template_id)

    prompts.get_template.cache_clear()
    monkeypatch.setattr(prompts, "load_template", counting)
    try:
        for n in range(5):
            build_reflection_prompt(addr(n), "{}")
            build_explainer_prompt("{}")
        template_hashes()
    finally:
        prompts.get_template.cache_clear()
    assert sorted(reads) == sorted(REGISTRY)
