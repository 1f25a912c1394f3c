"""Run configuration: one JSON document, overridden by flags, then env vars.

Precedence, lowest to highest: built-in defaults, the --config file, command
line flags, environment variables (RISKTAGGER_LLM_ENDPOINT, RISKTAGGER_CACHE_DIR).
API keys are read by the adapters directly from RISKTAGGER_CHAIN_API_KEY and
RISKTAGGER_LLM_KEY and never pass through this object, so the journal
fingerprint and run.json, which the trace writes from it, stay secret-free.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import MalformedAddress, ParseError
from .model import TracerConfig, normalize_chain

LLM_ENDPOINT_ENV = "RISKTAGGER_LLM_ENDPOINT"
CACHE_DIR_ENV = "RISKTAGGER_CACHE_DIR"

DEFAULT_API_BASE_URL = "https://api.etherscan.io/api"


@dataclass
class RunConfig:
    chain: str = "ethereum"
    tracer: TracerConfig = field(default_factory=TracerConfig)
    adapter: str = "fixture"  # fixture | live
    fixture_dir: str | None = None
    bridges_path: str | None = None
    cache_dir: str | None = None
    blacklist_path: str | None = None
    backend: str = "rules"  # rules | llm
    llm_endpoint: str | None = None
    llm_model: str = "default"
    api_base_url: str = DEFAULT_API_BASE_URL
    out_dir: str = "out"
    seed: int = 0
    now: int | None = None  # fixed clock; unset means wall time (not reproducible)
    workers: int = 1
    strict: bool = False

    def validate(self, need_adapter: bool = True) -> None:
        try:
            self.chain = normalize_chain(self.chain)
        except (AttributeError, MalformedAddress):
            raise ParseError(f"chain must be a non-empty alphanumeric id, got {self.chain!r}") from None
        if self.adapter not in ("fixture", "live"):
            raise ParseError(f"adapter must be 'fixture' or 'live', got {self.adapter!r}")
        if self.backend not in ("rules", "llm"):
            raise ParseError(f"backend must be 'rules' or 'llm', got {self.backend!r}")
        if need_adapter and self.adapter == "fixture" and not self.fixture_dir:
            raise ParseError("fixture adapter requires fixture_dir")
        if need_adapter and self.adapter == "live" and self.bridges_path:
            # the matcher reads the far chain's transfers from fixture data
            raise ParseError("bridges_path needs the fixture adapter; the live adapter cannot match bridges")
        if self.backend == "llm" and not self.llm_endpoint:
            raise ParseError(f"llm backend requires an endpoint (config, flag, or {LLM_ENDPOINT_ENV})")
        if self.workers < 1:
            raise ParseError("workers must be >= 1")

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_json() if f.name == "tracer" else value
        return out


def _from_document(obj: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    try:
        if "tracer" in kwargs:
            kwargs["tracer"] = TracerConfig.from_json(kwargs["tracer"])
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config value: {exc}") from exc


def load_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
    need_adapter: bool = True,
) -> RunConfig:
    """Effective config: file under `path`, then `overrides`, then env vars.

    `overrides` maps RunConfig field names to values; None values are ignored
    so absent flags never mask the config file. Tracer knobs are addressed as
    "tracer.<field>". Validation runs on the final result; commands that never
    touch chain data pass need_adapter=False so extraction works bare.
    """
    document: dict = {}
    if path is not None:
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError: JSON text is UTF-8
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ParseError(f"{path}: config must be a JSON object")

    tracer_doc = dict(document.get("tracer", {}))
    flat = {k: v for k, v in document.items() if k != "tracer"}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key.startswith("tracer."):
            tracer_doc[key.split(".", 1)[1]] = value
        else:
            flat[key] = value
    if tracer_doc:
        flat["tracer"] = tracer_doc

    config = _from_document(flat)
    if os.environ.get(LLM_ENDPOINT_ENV):
        config.llm_endpoint = os.environ[LLM_ENDPOINT_ENV]
    if os.environ.get(CACHE_DIR_ENV):
        config.cache_dir = os.environ[CACHE_DIR_ENV]
    config.validate(need_adapter)
    return config
