"""The benchmark sampler's hook targets exist, so renaming a hooked function
cannot silently turn one of its per-layer figures into zero.

perfbench/sample.py is imported, not run: no hook is installed.
"""

import importlib.util
import re

from conftest import FIXTURES, REPO_ROOT
from risktagger.chaindata import FixtureStore

SAMPLE_PATH = REPO_ROOT / "perfbench" / "sample.py"


def load_sample():
    spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    sample = load_sample()
    targets = re.findall(r'\b(?:hook|_find)\("([^"]+)"', SAMPLE_PATH.read_text(encoding="utf-8"))
    assert len(targets) >= 18
    assert [t for t in targets if sample._find(t) is None] == []


def test_the_load_span_counts_every_fixture_row():
    sample = load_sample()
    assert sample._rows(FixtureStore.load_dir(FIXTURES / "synthetic")) == 212
