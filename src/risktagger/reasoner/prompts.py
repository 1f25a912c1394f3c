"""Prompt template registry and rendering.

Templates live as plain text files under risktagger/prompts and are loaded
verbatim (sans trailing newline); the analyst/auditor/explainer texts are
long-lived transcriptions and must never be edited casually, which is why
their hashes go into run.json and bind the run journal. The extractor
template is original to this project.

Renderers go through get_template, which reads each template from disk once
per process.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import MissingPlaceholder
from ..model import Address

# id -> required placeholders
REGISTRY = {
    "cot_part1": {"target_address", "formatted_analysis"},
    "cot_part2": set(),
    "reflection": {"target_address", "analysis_result"},
    "explainer_part1": {"analysis_result"},
    "explainer_part2": set(),
    "extractor_chunk": {"chunk_id", "chunk_text"},
}

_ALL_PLACEHOLDERS = set().union(*REGISTRY.values())
# A {name} slot for any registered placeholder name.
_SLOT = re.compile(r"\{(" + "|".join(sorted(_ALL_PLACEHOLDERS)) + r")\}")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    text: str
    placeholders: frozenset

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@functools.cache
def _prompts_dir() -> Path:
    return Path(resources.files("risktagger") / "prompts")


def load_template(template_id: str) -> PromptTemplate:
    """Reads one template from disk. A slot for a placeholder the template
    does not take could never be bound, so it fails the load."""
    if template_id not in REGISTRY:
        raise KeyError(f"unknown prompt template {template_id!r}")
    placeholders = REGISTRY[template_id]
    text = (_prompts_dir() / f"{template_id}.txt").read_text(encoding="utf-8").rstrip("\n")
    unbound = {slot.group(1) for slot in _SLOT.finditer(text)} - placeholders
    if unbound:
        raise MissingPlaceholder(f"template {template_id!r} has slots it never binds: {sorted(unbound)}")
    return PromptTemplate(id=template_id, text=text, placeholders=frozenset(placeholders))


@functools.lru_cache(maxsize=None)
def get_template(template_id: str) -> PromptTemplate:
    """load_template, read once per process for each id."""
    return load_template(template_id)


def render(template: PromptTemplate, values: dict) -> str:
    """Substitute {name} slots; every required slot must be bound.

    str.format would choke on the literal JSON braces inside the templates,
    so substitution is token replacement for the known slot names only, in
    one pass over the template text: a value is inserted verbatim, even one
    that holds a {name} token itself.
    """
    missing = template.placeholders - set(values)
    if missing:
        raise MissingPlaceholder(
            f"template {template.id!r} missing values for {sorted(missing)}"
        )
    bound = {name: str(values[name]) for name in template.placeholders}
    return _SLOT.sub(lambda slot: bound[slot.group(1)], template.text)


def template_hashes() -> dict:
    return {tid: get_template(tid).sha256 for tid in sorted(REGISTRY)}


def build_cot_prompt(target: Address, payload: str) -> str:
    """Part 1 (rendered) + part 2, one analyst prompt for one account; `payload`
    is the JSON text of translator.to_reasoner_payload."""
    part1 = render(
        get_template("cot_part1"),
        {"target_address": target.hex, "formatted_analysis": payload},
    )
    part2 = get_template("cot_part2").text
    return part1 + "\n\n" + part2


def build_reflection_prompt(target: Address, analysis_result: str) -> str:
    return render(
        get_template("reflection"),
        {"target_address": target.hex, "analysis_result": analysis_result},
    )


def build_explainer_prompt(analysis_result: str) -> str:
    part1 = render(get_template("explainer_part1"), {"analysis_result": analysis_result})
    part2 = get_template("explainer_part2").text
    return part1 + "\n\n" + part2
