"""Seeded scaled transfer graph for the benchmark, written as fixture CSV.

One chain (`ethereum.csv`), rooted at the incident attacker named in
`fixtures/bybit_incident.txt`, so a full `run` on the committed document
traces it. The shape is fixed and only the details vary with the seed:

  - the attacker sends to exactly HOP1 distinct accounts and to nobody else,
    so hop 1 always has HOP1 accounts;
  - every hop-1 account fans out to FANOUT fresh accounts on top of the
    background traffic, so hop 2 always has more candidates than a frontier
    cap of a few hundred admits;
  - the remaining rows are random transfers among the other addresses, each
    of which sends and receives exactly `degree` of them.

The tracer's oracle (`tests/oracle_bfs.py`) is exact only when no account
reaches the per-account retention limit K and everything stays on one chain,
so both are asserted here. The benchmark's tracer config takes its `k` from K.
The same seed writes the same bytes.

    python3 perfbench/gen_graph.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from pathlib import Path

ATTACKER = "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"
VICTIM = "0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4"
USDT_CONTRACT = "0xdac17f958d2ee523a2206206994597c13d831ec7"
CHAIN = "ethereum"
NOW = 1_740_700_000  # the clock fixed in fixtures/synthetic/config.json
SPAN_S = 30 * 86_400
HOP1 = 40  # accounts the attacker pays
FANOUT = 10  # fresh accounts each hop-1 account pays
K = 100  # the tracer's per-account retention limit

COLUMNS = (
    "hash", "from", "to", "value", "timeStamp", "blockNumber", "tokenSymbol",
    "contractAddress", "isError", "input", "nonce", "blockHash", "gas",
    "gasPrice", "gasUsed", "confirmations",
)


def build_rows(seed: int, addresses: int = 20_000, degree: int = 10) -> list[tuple]:
    """Row tuples in COLUMNS order, about `addresses * degree` of them.

    Every background account sends exactly `degree` transfers and receives
    exactly `degree`, so accounts cost the same to trace whatever the seed.
    Raises ValueError if the shape cannot hold.
    """
    if addresses < HOP1 * (FANOUT + 1) + 3:
        raise ValueError("too few addresses for the hop-1 fan-out")
    rng = random.Random(seed)
    pool: set[str] = {ATTACKER, VICTIM}
    others: list[str] = []
    while len(others) < addresses - 2:
        candidate = f"0x{rng.getrandbits(160):040x}"
        if candidate not in pool:
            pool.add(candidate)
            others.append(candidate)

    out: list[tuple] = []
    touches: Counter = Counter()
    nonces: Counter = Counter()

    def tx(src: str, dst: str, value: int | None = None) -> None:
        n = len(out)
        ts = NOW - rng.randrange(3_600, SPAN_S)
        token = rng.random() < 0.1
        failed = rng.random() < 0.01
        if value is None:
            value = rng.randrange(10**18, 10**19)
            if rng.random() < 0.05:
                value = rng.randrange(1, 10) * 10**21  # round-number transfers
        nonces[src] += 1
        touches[src] += 1
        touches[dst] += 1
        block = 21_000_000 + (ts - (NOW - SPAN_S)) // 12
        out.append((
            f"0x{rng.getrandbits(192):048x}{n:016x}",
            src,
            dst,
            str(value),
            str(ts),
            str(block),
            "USDT" if token else "",
            USDT_CONTRACT if token else "",
            "1" if failed else "0",
            "0x",
            str(nonces[src]),
            f"0x{block:064x}",
            "21000",
            "30000000000",
            "21000",
            "1000",
        ))

    tx(VICTIM, ATTACKER, 401_000 * 10**18)
    first_hop = others[:HOP1]
    fresh = iter(others[HOP1:])
    for account in first_hop:
        tx(ATTACKER, account, rng.randrange(10**21, 10**22))
    for account in first_hop:
        for _ in range(FANOUT):
            tx(account, next(fresh))

    # Background traffic: one shuffled receiver list per round gives every
    # account exactly one send and one receipt per round. It never touches
    # the attacker or the victim, so the attacker's out-degree stays HOP1.
    for _ in range(degree):
        receivers = others[:]
        rng.shuffle(receivers)
        for i, src in enumerate(others):
            if receivers[i] == src:  # no self-transfers: swap with the next slot
                j = (i + 1) % len(others)
                receivers[i], receivers[j] = receivers[j], receivers[i]
        for src, dst in zip(others, receivers):
            tx(src, dst)

    busiest = max(touches.values())
    if busiest >= K:
        raise ValueError(f"an account has {busiest} rows, at or over k={K}")
    return out


def write_fixture(out_dir: str | Path, seed: int, **shape) -> list[tuple]:
    """Writes `<out_dir>/ethereum.csv` and returns its rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = build_rows(seed, **shape)
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    (out_dir / f"{CHAIN}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    chains = sorted(p.stem for p in out_dir.glob("*.csv"))
    if chains != [CHAIN]:
        raise ValueError(f"{out_dir} must hold one chain, found {chains}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for ethereum.csv")
    args = parser.parse_args()
    rows = write_fixture(args.out, args.seed)
    print(f"{args.out}/{CHAIN}.csv: {len(rows)} rows")


if __name__ == "__main__":
    main()
