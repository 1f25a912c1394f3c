"""Resume equals the uninterrupted run wherever a demo trace stops.

Tier-1 checks a seeded sample of the places a trace of the demo fixture can
stop: after n verdicts, for every hop boundary n and a sample of other n, at
1 and 2 workers, some stopped again on resume; a stopped journal cut at a
sample of byte offsets in its last two lines; and one `run` killed with
SIGKILL. `check_stops` and `check_cut` take any point, so the whole sweep is
every n and every offset passed to them.
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter

import pytest

from conftest import FIXTURES, GOLDEN, REPO_ROOT
from test_cli import DOC, write_config
from test_tracer import InterruptAfter
from risktagger import cli
from risktagger.chaindata.fixtures import FixtureChainClient, FixtureStore
from risktagger.errors import CheckpointError
from risktagger.model import TracerConfig
from risktagger.reasoner.blacklist import Blacklist
from risktagger.reasoner.rules import RuleBackend
from risktagger.tracer import JOURNAL_NAME, OUTPUT_NAMES, TracerPorts, trace

SWEEP_SEED = 15
SEEDS = ["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"]  # the attacker in the demo's clues
NOW = 1_740_700_000
# the demo config (fixtures/synthetic/config.json)
CFG = TracerConfig(
    D=20, k=100, frontier_cap=None, min_value_threshold="0", value_weight=0.6, recency_weight=0.4, flag_weight=0.0
)
GOLDEN_LABELS = GOLDEN / "synthetic_labels.golden.jsonl"


class Demo:
    """The demo fixture traced with the rule engine behind a wrapper that is
    not in_process, so that 2 workers really use the pool; and the bytes of
    its straight run."""

    def __init__(self, root):
        self.store = FixtureStore.load_dir(FIXTURES / "synthetic")
        self.rules = RuleBackend(Blacklist.load(FIXTURES / "blacklist.txt"))
        straight = root / "straight"
        self.trace(straight)
        self.outputs = files(straight)
        depths = Counter(json.loads(line)["hop_depth"] for line in self.outputs["labels.jsonl"].splitlines())
        self.sizes = [depths[d] for d in range(len(depths))]

    def trace(self, out_dir, allow=None, workers=1, resume=False):
        """Traces into out_dir; with `allow`, Ctrl-C stops the trace once
        that many verdicts are in."""
        backend = InterruptAfter(self.rules, allow=10**9 if allow is None else allow)
        ports = TracerPorts(
            client=FixtureChainClient(self.store), backend=backend, now=NOW, out_dir=out_dir, workers=workers
        )
        if allow is None:
            return trace(SEEDS, "ethereum", CFG, ports, resume=resume)
        with pytest.raises(KeyboardInterrupt):
            trace(SEEDS, "ethereum", CFG, ports, resume=resume)

    def boundaries(self):
        """The verdict counts at which a hop starts: 0 and each prefix sum of
        the hop sizes short of the total."""
        return [sum(self.sizes[:hop]) for hop in range(len(self.sizes))]


def files(out_dir):
    """The bytes of a finished trace's outputs and journal."""
    return {name: (out_dir / name).read_bytes() for name in (*OUTPUT_NAMES, JOURNAL_NAME)}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    demo = Demo(tmp_path_factory.mktemp("demo"))
    assert demo.outputs["labels.jsonl"] == GOLDEN_LABELS.read_bytes()
    return demo


def check_stops(demo, out_dir, stops, workers):
    """Stops a trace into out_dir once each verdict count in `stops` (rising)
    is reached, the first time fresh and then resumed, and finally resumes it
    to the end, which must leave the straight run's bytes."""
    reached = 0
    for n, stop in enumerate(stops):
        demo.trace(out_dir, allow=stop - reached, workers=workers, resume=n > 0)
        reached = stop
        lines = (out_dir / JOURNAL_NAME).read_bytes().splitlines()
        assert len(lines) == 1 + stop, (stops, workers)
        assert sorted(p.name for p in out_dir.iterdir()) == [JOURNAL_NAME], (stops, workers)
    demo.trace(out_dir, workers=workers, resume=True)
    assert files(out_dir) == demo.outputs, (stops, workers)


def check_cut(demo, stopped_dir, offset, out_dir):
    """Resumes a copy of the stopped trace in stopped_dir whose journal is cut
    to `offset` bytes: the resume leaves the straight run's bytes, or refuses
    naming a line and leaves the cut journal alone in out_dir. Returns which."""
    shutil.copytree(stopped_dir, out_dir)
    journal = out_dir / JOURNAL_NAME
    cut = journal.read_bytes()[:offset]
    journal.write_bytes(cut)
    try:
        demo.trace(out_dir, resume=True)
    except CheckpointError as err:
        assert re.search(r"line \d+", str(err)), (offset, str(err))
        assert journal.read_bytes() == cut, offset
        assert sorted(p.name for p in out_dir.iterdir()) == [JOURNAL_NAME], offset
        return "refused"
    assert files(out_dir) == demo.outputs, offset
    return "equal"


@pytest.mark.parametrize("workers", [1, 2])
def test_a_trace_stopped_anywhere_resumes_to_the_straight_run(demo, tmp_path, workers):
    rng = random.Random(f"{SWEEP_SEED}-{workers}")
    total = sum(demo.sizes)
    boundaries = demo.boundaries()
    others = rng.sample(sorted(set(range(1, total)) - set(boundaries)), 4)
    cases = [[n] for n in boundaries]
    # every other sampled point is stopped again, further on, by its resume
    cases += [[n] if i % 2 else [n, rng.randrange(n + 1, total)] for i, n in enumerate(others)]
    for i, stops in enumerate(cases):
        check_stops(demo, tmp_path / str(i), stops, workers)


def test_a_stopped_journal_cut_anywhere_in_its_last_two_lines_resumes_or_is_refused(demo, tmp_path):
    rng = random.Random(SWEEP_SEED)
    stopped = tmp_path / "stopped"
    demo.trace(stopped, allow=rng.randrange(2, sum(demo.sizes)))
    size = (stopped / JOURNAL_NAME).stat().st_size
    last_two = (stopped / JOURNAL_NAME).read_bytes().splitlines(keepends=True)[-2:]
    offsets = rng.sample(range(size - len(b"".join(last_two)), size), 6)
    for offset in offsets:
        check_cut(demo, stopped, offset, tmp_path / str(offset))


def test_a_run_killed_with_sigkill_resumes_to_the_golden_labels(tmp_path):
    kill_at = random.Random(SWEEP_SEED).randrange(1, 140)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    killed_at_a_verdict = (
        "import os, signal, sys\n"
        "from risktagger import cli\n"
        "from risktagger.reasoner.rules import RuleBackend\n"
        "inner, calls = RuleBackend.complete, []\n"
        "def complete(backend, *args):\n"
        f"    if len(calls) == {kill_at}:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    calls.append(None)\n"
        "    return inner(backend, *args)\n"
        "RuleBackend.complete = complete\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    argv = [sys.executable, "-c", killed_at_a_verdict, "run", DOC, "--config", cfg]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == -signal.SIGKILL, result.stderr
    assert len((out / JOURNAL_NAME).read_text().splitlines()) == 1 + kill_at
    assert not (out / "labels.jsonl").exists()

    assert cli.main(["trace", str(out / "case_clues.json"), "--resume", "--config", cfg]) == 0
    assert (out / "labels.jsonl").read_bytes() == GOLDEN_LABELS.read_bytes()
    assert not list(out.glob("*.part"))
