"""Shared builders and paths for the test suite."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from risktagger.model import Address, RiskAssessment, TransactionRecord, normalize_address


def addr(n: int, chain: str = "ethereum") -> Address:
    """Deterministic test address: last hex digits encode n."""
    return normalize_address("0x" + format(n, "x").rjust(40, "0"), chain)


def tx_hash(n: int) -> str:
    return "0x" + format(n, "x").rjust(64, "f" if n % 2 else "e")


def make_tx(
    n: int,
    src: Address,
    dst: Address,
    value: int | str = 10**18,  # decimal text reads as its int
    ts: int = 1_740_000_000,
    block: int = 100,
    token: str = "",
    is_error: bool = False,
    **extra,
) -> TransactionRecord:
    return TransactionRecord(
        hash=tx_hash(n),
        from_addr=src,
        to_addr=dst,
        value=int(value),
        timeStamp=ts,
        blockNumber=block,
        tokenSymbol=token,
        isError=is_error,
        **extra,
    )


def labels_in(out_dir: Path, name: str = "labels.jsonl") -> list[RiskAssessment]:
    """The labels a trace wrote to out_dir/name (labels.jsonl, or risky.jsonl
    for the High ones), in file order."""
    with open(out_dir / name, encoding="utf-8") as fh:
        return [RiskAssessment.from_json(json.loads(line)) for line in fh]


@pytest.fixture
def out_dir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d
