"""Command-line driver for the extract -> trace -> explain pipeline.

Exit codes are stable for scripting: 0 success, 1 infrastructure failure
(I/O, parsing, adapters, backends), 2 domain incompleteness (mandatory clue
fields missing, no seed addresses, nothing to report). Ctrl-C exits 130; every
finished account is already in the run journal, so `trace --resume` redoes
only the unfinished ones. Resuming with another config, seed list, prompt
template or input file exits 1 and names what changed. Resuming a finished
trace redoes nothing, and exits 1 naming an output changed since.

Each file of a run directory has one writer: extract writes case_clues.json
and extract_audit.json, which records the document's sha256 as `document`;
the trace writes its labels, diagnostics.json and run.json, the manifest of
the settings, digests and prompts it ran with (see tracer.py); explain
writes report.md and coverage.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import random
import sys
import time
from contextlib import closing
from dataclasses import fields
from pathlib import Path

from . import __version__
from .chaindata.cache import FetchCache
from .chaindata.crosschain import BridgeMatcher, BridgeTable
from .chaindata.fixtures import FixtureChainClient, FixtureStore
from .chaindata.live import EtherscanClient
from .config import RunConfig, load_config
from .errors import EmptyChecklist, ParseError, RiskTaggerError, UnknownChain, reading_utf8
from .explainer import build_checklist, coverage, generate_report
from .extractor import MANDATORY_FIELDS, CaseClues, LlmExtractor, extract_case_clues
from .model import RiskAssessment
from .reasoner.backends import HttpLlmBackend
from .reasoner.blacklist import Blacklist
from .reasoner.rules import RuleBackend
from .tracer import JOURNAL_NAME, TracerPorts, file_sha256, journal_clock, trace


# --- shared plumbing ---------------------------------------------------------


def _prepare_out(config: RunConfig) -> Path:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _input_digests(config: RunConfig) -> dict:
    """sha256 of each input file a trace reads: fixture CSVs, blacklist, bridge table."""
    inputs = {}
    if config.adapter == "fixture":
        inputs["fixtures"] = {p.name: file_sha256(p) for p in FixtureStore.files(config.fixture_dir)}
    if config.blacklist_path:
        inputs["blacklist"] = file_sha256(config.blacklist_path)
    if config.bridges_path:
        inputs["bridges"] = file_sha256(config.bridges_path)
    return inputs


def _llm_backend(config: RunConfig) -> HttpLlmBackend:
    return HttpLlmBackend(config.llm_endpoint, model=config.llm_model)


def _clock(config: RunConfig, out_dir: Path, resume: bool) -> int:
    """The configured clock; else, on resume, the one the journal was written
    with, so the remaining hops rank against the same clock; else now."""
    if config.now is not None:
        return config.now
    journaled = journal_clock(out_dir / JOURNAL_NAME) if resume else None
    return journaled if journaled is not None else int(time.time())


def _build_ports(config: RunConfig, out_dir: Path, resume: bool) -> TracerPorts:
    matcher = None
    if config.adapter == "fixture":
        store = FixtureStore.load_dir(config.fixture_dir)
        client = FixtureChainClient(store)
        if config.bridges_path:  # validated: only the fixture adapter takes a bridge table
            try:
                matcher = BridgeMatcher(BridgeTable.load(config.bridges_path), store.records_for)
            except UnknownChain as exc:
                raise ParseError(f"{config.bridges_path}: {exc}") from exc
    else:
        cache = FetchCache(config.cache_dir) if config.cache_dir else None
        client = EtherscanClient(config.api_base_url, config.chain, cache=cache)
    blacklist = Blacklist.load(config.blacklist_path) if config.blacklist_path else Blacklist()
    if config.backend == "rules":
        backend = RuleBackend(blacklist)
    else:
        backend = _llm_backend(config)
    now = _clock(config, out_dir, resume)
    return TracerPorts(
        client=client,
        backend=backend,
        now=now,
        matcher=matcher,
        out_dir=out_dir,
        strict=config.strict,
        workers=config.workers,
        # neither workers nor out_dir changes what a run computes, so a resume
        # may alter them; the clock is the resolved one, so a resume keeps it;
        # the input digests make a resume onto edited input files fail
        run_config={
            **{k: v for k, v in config.to_json().items() if k not in ("workers", "out_dir")},
            "now": now,
            "inputs": _input_digests(config),
        },
    )


# what from_json raises on a document that is not JSON or has the wrong shape
_BAD_DOCUMENT = (AttributeError, KeyError, TypeError, ValueError, RiskTaggerError)


def _load_clues(path: str) -> CaseClues:
    try:
        return CaseClues.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except _BAD_DOCUMENT as exc:
        raise ParseError(f"{path}: bad case clues: {type(exc).__name__}: {exc}") from exc


def _load_labels(path):
    """Yields the labels of a labels.jsonl, or of the one in a trace directory,
    one line at a time, so the file is never held whole."""
    labels_path = Path(path)
    if labels_path.is_dir():
        labels_path = labels_path / "labels.jsonl"
    with labels_path.open(encoding="utf-8") as fh, reading_utf8(labels_path):
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    yield RiskAssessment.from_json(json.loads(line))
                except _BAD_DOCUMENT as exc:
                    raise ParseError(f"{labels_path}:{line_no}: bad label: {type(exc).__name__}: {exc}") from exc


# --- commands ----------------------------------------------------------------


def _do_extract(config: RunConfig, out_dir: Path, doc_path: str) -> tuple[CaseClues, int]:
    with reading_utf8(doc_path):
        text = Path(doc_path).read_text(encoding="utf-8")
    backend = LlmExtractor(_llm_backend(config)) if config.backend == "llm" else None
    clues, audit = extract_case_clues(text, backend)
    _write_json(out_dir / "case_clues.json", clues.to_json())
    _write_json(out_dir / "extract_audit.json", {"document": file_sha256(doc_path), **audit})
    for field in MANDATORY_FIELDS:
        print(f"{field}: {clues.status.get(field, 'missing')}")
    missing = clues.missing_mandatory()
    if missing:
        print(f"incomplete: missing mandatory field(s): {', '.join(missing)}", file=sys.stderr)
        return clues, 2
    return clues, 0


def cmd_extract(args) -> int:
    config = load_config(args.config, _overrides(args), need_adapter=False)
    out_dir = _prepare_out(config)
    return _do_extract(config, out_dir, args.doc)[1]


def _do_trace(config: RunConfig, out_dir: Path, clues: CaseClues, seed_victims: bool, resume: bool) -> int:
    """Traces into out_dir; 2 when the clues hold no seed. Without resume the
    explain outputs of an earlier run go first, as the trace's own do."""
    seeds = clues.attacker_addresses + (clues.victim_addresses if seed_victims else [])
    if not seeds:
        print("no seeds: clues contain no attacker addresses", file=sys.stderr)
        return 2
    if not resume:
        for name in ("report.md", "coverage.json"):
            (out_dir / name).unlink(missing_ok=True)
    ports = _build_ports(config, out_dir, resume)
    state = trace(seeds, config.chain, config.tracer, ports, resume=resume)
    print(f"analyzed {state.labeled} accounts over {state.depth} hop(s); {state.high} rated high-risk")
    return 0


def cmd_trace(args) -> int:
    config = load_config(args.config, _overrides(args))
    out_dir = _prepare_out(config)
    clues = _load_clues(args.clues)
    return _do_trace(config, out_dir, clues, args.seed_victims, args.resume)


def _do_explain(config: RunConfig, out_dir: Path, clues: CaseClues, labels_path) -> int:
    """Writes report.md and coverage.json from the labels at labels_path,
    read as a stream; 2 when there are none."""
    labels = _load_labels(labels_path)
    first = next(labels, None)
    if first is None:
        print("labels are empty; nothing to report", file=sys.stderr)
        return 2
    backend = _llm_backend(config) if config.backend == "llm" else None
    with closing(labels):
        report, source = generate_report(clues, itertools.chain((first,), labels), backend=backend)
    scored = coverage(report, build_checklist(clues))
    (out_dir / "report.md").write_text(report, encoding="utf-8")
    _write_json(out_dir / "coverage.json", {**scored.to_json(), **source})
    print(
        f"coverage {scored.r_coverage:.3f} "
        f"({scored.e_full} full + {scored.e_part} partial of {scored.e_all} entities)"
    )
    return 0


def cmd_explain(args) -> int:
    config = load_config(args.config, _overrides(args), need_adapter=False)
    out_dir = _prepare_out(config)
    clues = _load_clues(args.clues)
    return _do_explain(config, out_dir, clues, args.labels)


def cmd_run(args) -> int:
    config = load_config(args.config, _overrides(args))
    out_dir = _prepare_out(config)
    clues, rc = _do_extract(config, out_dir, args.doc)
    if rc != 0:
        return rc
    rc = _do_trace(config, out_dir, clues, args.seed_victims, resume=False)
    if rc != 0:
        return rc
    return _do_explain(config, out_dir, clues, out_dir / "labels.jsonl")


def cmd_sample_controls(args) -> int:
    if args.n < 1:
        raise ParseError(f"-n must be at least 1, got {args.n}")
    config = load_config(args.config, _overrides(args))
    if config.adapter != "fixture":
        print("sample-controls needs the fixture adapter (the candidate pool)", file=sys.stderr)
        return 1
    store = FixtureStore.load_dir(config.fixture_dir)
    labeled = {a.target_address.hex for a in _load_labels(args.labels)}
    candidates = [a.hex for a in store.all_addresses(config.chain) if a.hex not in labeled]
    if not candidates:
        print("every fixture address was labeled; no controls to sample", file=sys.stderr)
        return 2
    rng = random.Random(config.seed)
    # Distinct draws while the pool lasts; independent draws beyond that so
    # any n stays serviceable on a small fixture.
    if args.n <= len(candidates):
        picks = rng.sample(candidates, args.n)
    else:
        picks = rng.choices(candidates, k=args.n)
    payload = {"chain": config.chain, "seed": config.seed, "n": args.n, "addresses": picks}
    out_path = Path(args.out_file) if args.out_file else _prepare_out(config) / "controls.json"
    _write_json(out_path, payload)
    print(f"sampled {args.n} control address(es) from a pool of {len(candidates)}")
    return 0


def cmd_score_coverage(args) -> int:
    with reading_utf8(args.report):
        report = Path(args.report).read_text(encoding="utf-8")
    clues = _load_clues(args.clues)
    scored = coverage(report, build_checklist(clues))
    payload = scored.to_json()
    if args.out_file:
        _write_json(Path(args.out_file), payload)
    else:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    print(
        f"coverage {scored.r_coverage:.3f} "
        f"({scored.e_full} full + {scored.e_part} partial of {scored.e_all} entities)",
        file=sys.stderr,
    )
    return 0


# --- argument parsing --------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it, env vars override both")
    parser.add_argument("--chain", help="chain id (default ethereum)")
    parser.add_argument("--adapter", choices=("fixture", "live"), help="chain data source")
    parser.add_argument("--fixture-dir", help="directory of <chain>.csv fixture files")
    parser.add_argument("--bridges", dest="bridges_path", help="bridge endpoint table file")
    parser.add_argument("--cache-dir", help="HTTP response cache root (live adapter)")
    parser.add_argument("--blacklist", dest="blacklist_path", help="address blacklist file")
    parser.add_argument("--backend", choices=("rules", "llm"), help="reasoning backend")
    parser.add_argument("--llm-endpoint", help="chat-completions endpoint for the llm backend")
    parser.add_argument("--llm-model", help="model name sent to the llm endpoint")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed for control sampling")
    parser.add_argument("--now", type=int, help="fixed epoch clock for reproducible runs")
    parser.add_argument(
        "--workers",
        type=int,
        help="concurrent account analyses per hop for a network-bound backend (llm); "
        "the rules backend analyzes one account at a time whatever this is",
    )
    parser.add_argument(
        "--strict",
        action="store_const",
        const=True,
        default=None,
        help="abort on the first port failure instead of recording and skipping",
    )
    parser.add_argument("--max-depth", type=int, help="tracer depth limit D")
    parser.add_argument(
        "--frontier-cap",
        type=int,
        help="max accounts admitted per hop (positive; use null in the config file for unlimited)",
    )


def _overrides(args) -> dict:
    # each config flag's dest is its RunConfig field; a field with no flag reads None
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["tracer.D"] = getattr(args, "max_depth", None)
    overrides["tracer.frontier_cap"] = getattr(args, "frontier_cap", None)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risktagger",
        description="Annotate money-laundering fund flows: extract clues, trace, explain.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="pull case clues out of an incident document")
    p.add_argument("doc", help="incident report text file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("trace", help="expand the fund-flow graph from the clue seed accounts")
    p.add_argument("clues", help="case_clues.json from extract")
    p.add_argument("--resume", action="store_true", help="continue from the run journal in the output directory")
    p.add_argument(
        "--seed-victims",
        action="store_true",
        help="also seed the trace with victim addresses (default: attackers only)",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("explain", help="render the audit report and score clue coverage")
    p.add_argument("clues", help="case_clues.json from extract")
    p.add_argument("labels", help="labels.jsonl from trace (or the trace output directory)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", help="extract, trace, and explain in one output directory")
    p.add_argument("doc", help="incident report text file")
    p.add_argument(
        "--seed-victims",
        action="store_true",
        help="also seed the trace with victim addresses (default: attackers only)",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sample-controls", help="draw unlabeled fixture addresses as normal controls"
    )
    p.add_argument("--labels", required=True, help="labels.jsonl (or trace directory) to exclude")
    p.add_argument("-n", type=int, required=True, help="number of addresses to draw")
    p.add_argument("--out-file", help="where to write controls.json (default: <out>/controls.json)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sample_controls)

    p = sub.add_parser("score-coverage", help="score an existing report against clue entities")
    p.add_argument("report", help="report markdown file")
    p.add_argument("clues", help="case_clues.json the checklist derives from")
    p.add_argument("--out-file", help="write coverage JSON here instead of stdout")
    p.set_defaults(func=cmd_score_coverage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted; finished accounts are journaled, rerun trace with --resume", file=sys.stderr)
        return 130
    except EmptyChecklist as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RiskTaggerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
