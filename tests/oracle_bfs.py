"""Brute-force depth-bounded BFS oracle over raw fixture rows.

Deliberately independent of the package under test: plain dict rows in,
plain {address_hex: hop_depth} out. The frontier rules are restated here
from scratch (dedup, visited removal, value threshold, weighted priority,
cap with address tiebreak) so agreement with the tracer means two separate
implementations of the contract coincide.

Only meaningful when every account's transaction count stays under the
tracer's per-account retention limit k and flag_weight is 0; both hold for
the synthetic fixture and the star graphs in the tests.
"""


def read_rows(csv_path):
    """Fixture CSV -> list of row dicts with typed fields."""
    rows = []
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cells = dict(zip(header, line.split(",")))
            rows.append(
                {
                    "hash": cells["hash"].lower(),
                    "from": cells["from"].lower(),
                    "to": cells["to"].lower(),
                    "value": int(cells["value"]),
                    "ts": int(cells["timeStamp"]),
                    "failed": cells["isError"] == "1",
                    "token": cells["tokenSymbol"],
                }
            )
    return rows


def bfs_oracle(
    rows,
    seeds,
    D,
    now,
    frontier_cap=None,
    min_value_threshold=0,
    value_weight=0.6,
    recency_weight=0.4,
):
    """Returns {address_hex: hop_depth} for every analyzed account."""
    out_edges = {}
    for row in rows:
        out_edges.setdefault(row["from"], []).append(row)

    analyzed = {}
    visited = set()
    frontier = []
    for s in seeds:
        s = s.lower()
        if s not in frontier:
            frontier.append(s)
    depth = 0
    while frontier and depth < D:
        for account in frontier:
            analyzed[account] = depth
            visited.add(account)

        # candidate funding facts, aggregated per receiver
        value_of = {}
        latest_ts = {}
        order = []
        for account in frontier:
            for row in out_edges.get(account, []):
                dst = row["to"]
                if dst == account:
                    continue
                if dst not in value_of:
                    value_of[dst] = 0
                    latest_ts[dst] = row["ts"]
                    order.append(dst)
                if not row["failed"]:
                    value_of[dst] += row["value"]
                latest_ts[dst] = max(latest_ts[dst], row["ts"])

        survivors = [
            a for a in order if a not in visited and value_of[a] >= min_value_threshold
        ]
        if not survivors:
            break
        max_value = max(value_of[a] for a in survivors)
        oldest = min(latest_ts[a] for a in survivors)
        span = now - oldest

        def priority(a):
            vnorm = value_of[a] / max_value if max_value > 0 else 0.0
            rnorm = 1.0 if span <= 0 else 1.0 - (now - latest_ts[a]) / span
            return value_weight * vnorm + recency_weight * rnorm

        survivors.sort(key=lambda a: (-priority(a), a))
        if frontier_cap is not None:
            survivors = survivors[:frontier_cap]
        frontier = survivors
        depth += 1
    return analyzed
