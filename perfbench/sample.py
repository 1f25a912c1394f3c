"""One benchmark sample, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/sample.py SPEC

SPEC is one JSON object argument. It holds `calls` (argument lists for
`risktagger.cli.main`, run in order), `result` (where to write the
measurements), `trace` (record layer spans) and `interrupt_after` (backend
completions allowed before every further call raises KeyboardInterrupt, as
Ctrl-C would; null for no interrupt).

Nothing is written into the run directory: the result file lives beside it.
Times are `time.monotonic()` readings, which the parent can compare with its
own because the clock is system-wide.

Hooks go on the names that callers look up (`risktagger.cli.trace`, not
`risktagger.tracer.trace`). A hook whose target no longer exists is listed
under `absent` (by span name, else by target) instead of failing the sample.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

SPANS: list = []  # (name, start, end, size); appended from worker threads too
ABSENT: list = []


def _size(result, measure):
    try:
        return measure(result) if measure else None
    except (AttributeError, TypeError):
        return None


def _find(target: str):
    """`module:attr` or `module:Class.attr` -> (owner, attr, raw attribute)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return None


def hook(target: str, span: str | None, measure=None, on_return=None) -> None:
    """Wraps `target`: records a span named `span` (if given), sized by
    `measure(result)`, and calls `on_return(args)` after each call."""
    found = _find(target)
    if found is None:
        ABSENT.append(span or target)
        return
    owner, attr, raw = found
    is_static = isinstance(raw, staticmethod)
    inner = raw.__func__ if is_static else raw

    def wrapper(*args, **kwargs):
        start = time.monotonic()
        result = None
        try:
            result = inner(*args, **kwargs)
        finally:
            # an interrupted call still covers its interval
            if span is not None:
                SPANS.append((span, start, time.monotonic(), _size(result, measure)))
        if on_return is not None:
            on_return(args)
        return result

    setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)


class BackendMeter:
    """Counts backend completions and prompt bytes; refuses calls past a budget."""

    def __init__(self, budget):
        self.budget = budget
        self.calls = 0
        self.prompt_bytes = 0
        self.lock = threading.Lock()

    def install(self, traced: bool) -> None:
        found = _find("risktagger.reasoner.rules:RuleBackend.complete")
        if found is None:
            raise SystemExit("benchmark hook target risktagger.reasoner.rules.RuleBackend.complete is gone")
        owner, attr, inner = found
        meter = self

        def complete(backend, prompt, temperature, max_tokens):
            with meter.lock:
                if meter.budget is not None and meter.calls >= meter.budget:
                    raise KeyboardInterrupt
                meter.calls += 1
                meter.prompt_bytes += len(prompt.encode("utf-8"))
            start = time.monotonic()
            reply = inner(backend, prompt, temperature, max_tokens)
            if traced:
                SPANS.append(("reasoner.backend", start, time.monotonic(), len(reply.encode("utf-8"))))
            return reply

        setattr(owner, attr, complete)


def peak_rss_kb() -> int:
    """High-water resident set of this process image. ru_maxrss would not do:
    Linux carries it across exec, so it would include the parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _rows(store) -> int:
    return sum(len(records) for records in store.records_by_chain.values())


def install_layer_hooks() -> None:
    """Spans at each layer boundary, for the traced run only."""
    hook("risktagger.cli:extract_case_clues", "extractor")
    hook("risktagger.chaindata.fixtures:FixtureChainClient.fetch_transactions", "chaindata.fetch", len)
    hook("risktagger.chaindata.live:EtherscanClient.fetch_transactions", "chaindata.fetch", len)
    hook("risktagger.tracer:build_subgraph", "translator.subgraph")
    hook("risktagger.reasoner.infer:to_reasoner_payload", "translator.payload")
    hook("risktagger.reasoner.infer:build_cot_prompt", "reasoner.prompt")
    hook("risktagger.reasoner.infer:build_reflection_prompt", "reasoner.prompt")
    hook("risktagger.reasoner.prompts:load_template", "reasoner.template")
    hook("risktagger.reasoner.infer:parse_verdict", "reasoner.parse")
    hook("risktagger.tracer:collect_frontier", "tracer.frontier")
    hook("risktagger.tracer:filter_frontier", "tracer.frontier")
    hook("risktagger.cli:generate_report", "explainer.report")
    hook("risktagger.cli:coverage", "explainer.coverage")


def main(spec: dict) -> None:
    traced = bool(spec["trace"])
    out: dict = {"ready": None, "calls": []}

    start = time.monotonic()
    import risktagger.cli as cli

    out["import_s"] = time.monotonic() - start

    def mark_ready(_args):
        if out["ready"] is None:
            out["ready"] = time.monotonic()

    # Always on: one span per call, so they cost nothing measurable. The
    # chain-data source is ready when the fixture store or client is built.
    caches: list = []
    hook("risktagger.chaindata.fixtures:FixtureStore.load_dir", "chaindata.load", _rows, mark_ready)
    hook("risktagger.chaindata.live:EtherscanClient.__init__", None, None, mark_ready)
    hook("risktagger.chaindata.cache:FetchCache.__init__", None, None, lambda args: caches.append(args[0]))
    hook("risktagger.cli:trace", "tracer.trace", lambda state: state.depth)
    meter = BackendMeter(spec.get("interrupt_after"))
    meter.install(traced)
    if traced:
        install_layer_hooks()

    for argv in spec["calls"]:
        began = time.monotonic()
        rc = cli.main(argv)
        out["calls"].append({"argv": argv, "rc": rc, "start": began, "end": time.monotonic()})

    out.update(
        backend_calls=meter.calls,
        prompt_bytes=meter.prompt_bytes,
        cache_hits=sum(getattr(c, "hits", 0) for c in caches),
        cache_misses=sum(getattr(c, "misses", 0) for c in caches),
        maxrss_kb=peak_rss_kb(),
        spans=SPANS,
        absent=ABSENT,
    )
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
