"""Risk reasoning: prompt registry, verdict parsing, rule engine, inference."""

from .backends import BackendPort, HttpLlmBackend
from .blacklist import Blacklist
from .infer import infer_risk
from .parsing import VerdictFragment, parse_verdict
from .prompts import (
    PromptTemplate,
    build_cot_prompt,
    build_explainer_prompt,
    build_reflection_prompt,
    load_template,
    render,
    template_hashes,
)
from .rules import RuleBackend, decide_level, rule_backend_assess

__all__ = [
    "BackendPort",
    "HttpLlmBackend",
    "Blacklist",
    "infer_risk",
    "VerdictFragment",
    "parse_verdict",
    "PromptTemplate",
    "build_cot_prompt",
    "build_explainer_prompt",
    "build_reflection_prompt",
    "load_template",
    "render",
    "template_hashes",
    "RuleBackend",
    "decide_level",
    "rule_backend_assess",
]
