"""Subgraph building: retention scores, full-set stats, payload rendering.

Expected retention for the 3-tx example was computed by hand before the
implementation existed:
  values 5,1,3 units; newest-first order 5,1,3; now=1000, ts = 900/500/100
  vnorm = 1.0 / 0.2 / 0.6   rnorm = 8/9 / 4/9 / 0
  score(w_v=0.5, w_r=0.3) = 0.7667 / 0.2333 / 0.3  ->  top-2 = value-5, value-3
"""

import json
import random
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, addr, make_tx
from risktagger.chaindata import FixtureChainClient, FixtureStore, dedup_and_sort
from risktagger.model import CrossChainPair, TracerConfig
from risktagger.reasoner import Blacklist, RuleBackend, infer
from risktagger.tracer import TracerPorts, trace
from risktagger.translator import (
    AccountSubgraph,
    asset_label,
    build_subgraph,
    compute_stats,
    display_amount,
    max_burst,
    scaled_amount,
    score_transactions,
    to_reasoner_payload,
)

CENTER = addr(0xC0)
CFG = TracerConfig(D=3, k=2, value_weight=0.5, recency_weight=0.3, flag_weight=0.2)
NOW = 1000


def table(payload, key):
    """A payload table's rows as dicts keyed by its columns, one cell per column."""
    columns, rows = payload[key]["columns"], payload[key]["rows"]
    assert all(len(row) == len(columns) for row in rows)
    return [dict(zip(columns, row)) for row in rows]


def three_txs():
    base = 1  # timeStamp must be positive
    return [
        make_tx(5, addr(1), CENTER, value="5", ts=900 + base - 1, block=3),
        make_tx(1, addr(2), CENTER, value="1", ts=500 + base - 1, block=2),
        make_tx(3, addr(3), CENTER, value="3", ts=100 + base - 1, block=1),
    ]


def test_hand_computed_retention():
    txs = three_txs()
    sub = build_subgraph(CENTER, txs, [], CFG, NOW)
    assert sub.truncated is True
    assert sorted(t.value for t in sub.retained_txs) == [3, 5]
    assert sub.total_tx_count == 3


def test_retained_at_most_k_and_truncated_iff_over():
    txs = three_txs()
    cfg_big = TracerConfig(D=3, k=10)
    sub = build_subgraph(CENTER, txs, [], cfg_big, NOW)
    assert sub.truncated is False
    assert len(sub.retained_txs) == 3


def test_retention_invariant_under_permutation():
    txs = three_txs()
    expected = [t.hash for t in build_subgraph(CENTER, txs, [], CFG, NOW).retained_txs]
    rng = random.Random(7)
    for _ in range(20):
        shuffled = txs[:]
        rng.shuffle(shuffled)
        got = [t.hash for t in build_subgraph(CENTER, shuffled, [], CFG, NOW).retained_txs]
        assert got == expected


def test_score_ties_break_by_hash():
    # identical value and timestamp: ordering must come from the hash
    a = make_tx(0xAA, addr(1), CENTER, value="5", ts=500)
    b = make_tx(0xBB, addr(2), CENTER, value="5", ts=500)
    sub = build_subgraph(CENTER, [b, a], [], TracerConfig(k=1), NOW)
    assert sub.retained_txs[0].hash == min(a.hash, b.hash)


def test_rows_differing_only_in_contract_score_apart():
    # a real USDT transfer and a fake one share hash, sender and receiver; dedup
    # keeps both, and each must keep its own score (0.80 and about 0.30)
    real = make_tx(1, CENTER, addr(1), value=str(10**12), ts=NOW, token="USDT", contractAddress=addr(0xC1))
    fake = make_tx(1, CENTER, addr(1), value="1", ts=NOW, token="USDT", contractAddress=addr(0xC2))
    half = make_tx(2, CENTER, addr(2), value=str(5 * 10**11), ts=NOW, token="USDT", contractAddress=addr(0xC1))
    txs = dedup_and_sort([real, fake, half])
    assert len(txs) == 3
    sub = build_subgraph(CENTER, txs, [], TracerConfig(k=1), NOW)
    assert sub.retained_txs == [real]


def test_stats_in_out_totals_hand_example():
    # deposits of 2 and 3 units, then a withdrawal of 4
    txs = [
        make_tx(1, addr(1), CENTER, value="2", ts=100),
        make_tx(2, addr(2), CENTER, value="3", ts=200),
        make_tx(3, CENTER, addr(3), value="4", ts=300),
    ]
    stats = compute_stats(CENTER, txs)
    assert stats.in_count == 2 and stats.out_count == 1
    assert stats.in_total == {"": 5}
    assert stats.out_total == {"": 4}
    assert stats.distinct_counterparties_in == 2
    assert stats.distinct_counterparties_out == 1
    assert (stats.first_seen, stats.last_seen) == (100, 300)


def test_self_transfer_counts_both_directions():
    txs = [make_tx(1, CENTER, CENTER, value="7", ts=100)]
    stats = compute_stats(CENTER, txs)
    assert stats.in_count == 1 and stats.out_count == 1
    # the account is not its own counterparty
    assert stats.distinct_counterparties_in == 0
    assert stats.distinct_counterparties_out == 0


def test_failed_tx_counted_but_moves_no_value():
    txs = [
        make_tx(1, addr(1), CENTER, value="10", ts=100),
        make_tx(2, addr(2), CENTER, value="90", ts=200, is_error=True),
    ]
    stats = compute_stats(CENTER, txs)
    assert stats.in_count == 2
    assert stats.in_total == {"": 10}
    # failed txs stay in the pool and can be retained
    sub = build_subgraph(CENTER, txs, [], TracerConfig(k=5), NOW)
    assert len(sub.retained_txs) == 2


def test_totals_are_big_int_strings():
    wei = 401000 * 10**18
    txs = [make_tx(1, addr(1), CENTER, value=wei, ts=100, token="ETH")]
    stats = compute_stats(CENTER, txs)
    assert stats.in_total == {"ETH": wei}


def test_max_burst_window():
    # 4 txs within one hour, then a gap
    ts = [0, 100, 3400, 3600, 7201]
    assert max_burst(sorted(t or 1 for t in ts), 3600) == 4
    assert max_burst([], 3600) == 0
    assert max_burst([5], 3600) == 1


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=60))
def test_max_burst_matches_brute_force(raw):
    ts = sorted(raw)
    brute = max(sum(1 for u in ts if t <= u <= t + 3600) for t in ts)
    assert max_burst(ts, 3600) == brute


def test_tx_per_day_mean_degenerate_span():
    txs = [make_tx(i, addr(i), CENTER, ts=500) for i in (1, 2, 3)]
    assert compute_stats(CENTER, txs).tx_per_day_mean == 3.0


def test_tx_per_day_mean_counts_transactions_not_rows():
    """Ten transactions inside nine minutes, each moving native coin and USDT
    in two rows that share its hash, as a txlist plus tokentx fetch gives."""
    txs = [
        make_tx(i, CENTER, addr(i), value=value, ts=1000 + 60 * i, token=token)
        for i in range(10)
        for value, token in (("1", ""), ("5", "USDT"))
    ]
    stats = compute_stats(CENTER, txs)
    assert stats.tx_per_day_mean == 1600.0  # 10 / (540 s / 86400 s)
    assert stats.max_burst_1h == 10
    assert stats.out_count == 20  # transfer rows


def test_scaled_amount_exact():
    assert scaled_amount(str(10**18), 18) == "1.0"
    assert scaled_amount(str(15 * 10**17), 18) == "1.5"
    assert scaled_amount(str(10**15), 18) == "0.001"
    assert scaled_amount("0", 18) == "0.0"
    assert scaled_amount(str(401000 * 10**18), 18) == "401000.0"
    assert scaled_amount("123", 0) == "123"


def test_display_units_native_and_unknown():
    assert display_amount(str(10**18), "", "ethereum") == "1.0 ETH"
    assert display_amount(str(8000 * 10**18), "mETH", "ethereum") == "8000.0 mETH"
    assert display_amount("12345", "FOO", "ethereum") == "12345 (raw) FOO"


def test_payload_shape_and_units():
    txs = [make_tx(1, addr(1), CENTER, value=str(10**18), ts=1_740_000_000)]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(), NOW + 1_740_000_000)
    payload = json.loads(to_reasoner_payload(sub))
    assert payload["payload_version"] == 3
    assert payload["target_address"] == {"hex": CENTER.hex, "chain": "ethereum"}
    [row] = table(payload, "transactions")
    assert (row["direction"], row["counterparty"]) == ("in", addr(1).hex)
    assert row["value"] == "1.0 ETH"
    assert row["timeStamp"].startswith("2025-02-") and row["timeStamp"].endswith("+00:00")
    assert payload["statistics"]["in_total"] == {"ETH": "1.0 ETH"}


def test_a_token_named_like_the_native_symbol_keeps_its_own_total():
    txs = [
        make_tx(1, addr(1), CENTER, value=str(10**18), ts=1_740_000_000),
        make_tx(2, addr(2), CENTER, value=str(5 * 10**18), ts=1_740_000_060, token="ETH"),
        make_tx(3, CENTER, addr(3), value=str(2 * 10**18), ts=1_740_000_120, token="ETH"),
    ]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(), NOW + 1_740_000_000)
    stats = json.loads(to_reasoner_payload(sub))["statistics"]
    assert stats["in_total"] == {"ETH": "1.0 ETH", "ETH (token)": "5.0 ETH (token)"}
    assert stats["out_total"] == {"ETH (token)": "2.0 ETH (token)"}


def test_a_token_named_like_another_assets_label_keeps_its_own_total():
    txs = [
        make_tx(1, addr(1), CENTER, value=5 * 10**18, ts=100, token="ETH"),
        make_tx(2, addr(2), CENTER, value=7, ts=200, token="ETH (token)"),
    ]
    stats = json.loads(to_reasoner_payload(build_subgraph(CENTER, txs, [], TracerConfig(), NOW)))["statistics"]
    assert stats["in_total"] == {"ETH (token)": "5.0 ETH (token)", "ETH (token) (token)": "7 (raw) ETH (token) (token)"}


def test_a_token_named_native_keeps_its_own_total_and_retention_maximum():
    # 1 ETH and 5 units of a token whose symbol is `native`: two assets
    txs = [
        make_tx(1, addr(1), CENTER, value=10**18, ts=100),
        make_tx(2, addr(2), CENTER, value=5, ts=100, token="native"),
    ]
    assert compute_stats(CENTER, txs).in_total == {"": 10**18, "native": 5}
    # each transfer is the largest of its own asset
    assert score_transactions(txs, NOW, 1.0, 0.0) == [1.0, 1.0]


@pytest.mark.parametrize(
    "chain, symbol, label",
    [
        ("ethereum", "", "ETH"),
        ("ethereum", "ETH", "ETH (token)"),
        ("ethereum", "native", "native"),
        ("ethereum", "USDT", "USDT"),
        # a token named like the label of another keeps a name of its own
        ("ethereum", "ETH (token)", "ETH (token) (token)"),
        ("base", "", "native"),
        ("base", "native", "native (token)"),
        ("base", "ETH", "ETH"),
        ("base", "USDT", "USDT"),
    ],
)
def test_asset_label(chain, symbol, label):
    assert asset_label(symbol, chain) == label


@pytest.mark.parametrize(
    "chain, coin, twin, coin_amount, twin_amount",
    [
        ("ethereum", "ETH", "ETH (token)", "1.0 ETH", "5.0 ETH (token)"),
        # base has no native symbol in the table: raw units throughout
        ("base", "native", "native (token)", "1000000000000000000 (raw) native",
         "5000000000000000000 (raw) native (token)"),
    ],
    ids=["ethereum", "base"],
)
def test_rows_amounts_totals_and_pairs_name_an_asset_by_its_label(chain, coin, twin, coin_amount, twin_amount):
    """The native coin, and a token named like it (`twin`), read the same in
    every place the payload names an asset (a row's value ends with its
    asset's label); totals list the native coin first."""
    center = addr(0xC0, chain)
    twin_symbol = twin.split(" ")[0]
    txs = [
        make_tx(1, addr(1, chain), center, value=10**18, ts=1_740_000_000),
        make_tx(2, addr(2, chain), center, value=5 * 10**18, ts=1_740_000_060, token=twin_symbol),
        make_tx(3, addr(3, chain), center, value=7, ts=1_740_000_120, token="USDT"),
    ]
    pairs = [
        CrossChainPair(make_tx(4, center, addr(4, chain), value=10**18, ts=1_740_000_000),
                       make_tx(5, addr(5, "bsc"), addr(6, "bsc"), value=10**18, ts=1_740_000_060), "hop"),
        CrossChainPair(make_tx(6, center, addr(4, chain), value=5 * 10**18, ts=1_740_000_000, token=twin_symbol),
                       make_tx(7, addr(5, "bsc"), addr(6, "bsc"), value=5 * 10**18, ts=1_740_000_060,
                               token=twin_symbol), "hop"),
    ]
    sub = build_subgraph(center, txs, pairs, TracerConfig(), 1_740_000_200)
    payload = json.loads(to_reasoner_payload(sub))
    rows = {row["hash"]: row["value"] for row in table(payload, "transactions")}
    assert rows == {txs[0].hash: coin_amount, txs[1].hash: twin_amount, txs[2].hash: "7 (raw) USDT"}
    assert coin_amount.endswith(" " + coin) and twin_amount.endswith(" " + twin)
    in_total = payload["statistics"]["in_total"]
    assert in_total == {coin: coin_amount, twin: twin_amount, "USDT": "7 (raw) USDT"}
    assert next(iter(in_total)) == coin
    assert [(p["token"], p["amount_src"]) for p in table(payload, "cross_chain")] == [
        (coin, coin_amount), (twin, twin_amount)
    ]


def test_payload_key_order_is_the_canonical_order():
    # a round trip through json cannot see key order, so it is spelled out here
    src = make_tx(1, CENTER, addr(9), value="7", ts=1_740_000_000, token="RUNE")
    dst = make_tx(2, addr(8, "bsc"), addr(7, "bsc"), value="7", ts=1_740_000_060, token="RUNE")
    pair = CrossChainPair(src, dst, "hoplink")
    payload = json.loads(to_reasoner_payload(build_subgraph(CENTER, [src], [pair], TracerConfig(), NOW)))
    assert list(payload) == ["payload_version", "target_address", "statistics", "transactions", "cross_chain"]
    assert list(payload["target_address"]) == ["hex", "chain"]
    assert list(payload["statistics"]) == [
        "in_count", "out_count", "in_total", "out_total", "first_seen", "last_seen",
        "distinct_counterparties_in", "distinct_counterparties_out", "tx_per_day_mean",
        "max_burst_1h", "total_tx_count", "retained_tx_count", "truncated",
    ]
    assert list(payload["transactions"]) == list(payload["cross_chain"]) == ["columns", "rows"]
    assert payload["transactions"]["columns"] == ["hash", "direction", "counterparty", "value", "timeStamp", "isError"]
    assert payload["cross_chain"]["columns"] == [
        "src_hash", "dst_hash", "src_chain", "dst_chain", "dst_to", "token",
        "amount_src", "amount_dst", "time_delta_s", "bridge_hint",
    ]


def test_payload_stats_cover_full_set_when_truncated():
    txs = [make_tx(i, addr(i), CENTER, value=str(i), ts=100 + i) for i in range(1, 6)]
    sub = build_subgraph(CENTER, txs, [], TracerConfig(k=2), NOW)
    payload = json.loads(to_reasoner_payload(sub))
    assert payload["statistics"]["total_tx_count"] == 5
    assert payload["statistics"]["retained_tx_count"] == 2
    assert payload["statistics"]["truncated"] is True
    assert payload["statistics"]["in_count"] == 5


def test_payload_json_deterministic():
    txs = three_txs()
    a = to_reasoner_payload(build_subgraph(CENTER, txs, [], CFG, NOW))
    b = to_reasoner_payload(build_subgraph(CENTER, list(reversed(txs)), [], CFG, NOW))
    assert a == b
    json.loads(a)  # stays valid JSON


def assert_tables_decode_to(text, sub):
    """Each payload table, decoded by its `columns` header, gives back every
    retained transfer and every cross-chain pair of `sub`, in order; a
    transfer's `from` and `to` are rebuilt from its direction, its
    counterparty and the target_address. Times are ISO 8601 in UTC."""
    payload = json.loads(text)
    target = payload["target_address"]["hex"]
    rows = table(payload, "transactions")
    assert all(row["timeStamp"].endswith("+00:00") for row in rows)
    decoded = []
    for row in rows:
        direction, counterparty = row.pop("direction"), row.pop("counterparty")
        assert (counterparty == "") == (direction == "self")
        src, dst = {"in": (counterparty, target), "out": (target, counterparty), "self": (target, target)}[direction]
        ts = int(datetime.fromisoformat(row["timeStamp"]).timestamp())
        decoded.append({**row, "from": src, "to": dst, "timeStamp": ts})
    assert decoded == [
        {
            "hash": tx.hash, "from": tx.from_addr.hex, "to": tx.to_addr.hex,
            "value": display_amount(tx.value, tx.tokenSymbol, tx.chain), "timeStamp": tx.timeStamp,
            "isError": tx.isError,
        }
        for tx in sub.retained_txs
    ]
    assert table(payload, "cross_chain") == [
        {
            "src_hash": p.src_tx.hash, "dst_hash": p.dst_tx.hash,
            "src_chain": p.src_tx.chain, "dst_chain": p.dst_tx.chain, "dst_to": p.dst_tx.to_addr.hex,
            "token": asset_label(p.src_tx.tokenSymbol, p.src_tx.chain),
            "amount_src": display_amount(p.src_tx.value, p.src_tx.tokenSymbol, p.src_tx.chain),
            "amount_dst": display_amount(p.dst_tx.value, p.dst_tx.tokenSymbol, p.dst_tx.chain),
            "time_delta_s": p.dst_tx.timeStamp - p.src_tx.timeStamp, "bridge_hint": p.bridge_hint,
        }
        for p in sub.cross_chain
    ]


def demo_payloads(monkeypatch, tmp_path):
    """(payload text, subgraph) of each of the demo trace's 140 accounts."""
    rendered = []

    def recording(sub):
        rendered.append((to_reasoner_payload(sub), sub))
        return rendered[-1][0]

    monkeypatch.setattr(infer, "to_reasoner_payload", recording)
    config = json.loads((FIXTURES / "synthetic" / "config.json").read_text())
    blacklist = Blacklist.load(FIXTURES / "blacklist.txt")
    client = FixtureChainClient(FixtureStore.load_dir(FIXTURES / "synthetic"))
    ports = TracerPorts(client=client, backend=RuleBackend(blacklist), now=config["now"], out_dir=tmp_path)
    trace(["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"], "ethereum", TracerConfig.from_json(config["tracer"]), ports)
    assert len(rendered) == 140
    return rendered


def test_payload_tables_decode_to_every_demo_subgraph(monkeypatch, tmp_path):
    for text, sub in demo_payloads(monkeypatch, tmp_path):
        assert_tables_decode_to(text, sub)


def test_every_demo_payload_names_its_target_once(monkeypatch, tmp_path):
    for text, sub in demo_payloads(monkeypatch, tmp_path):
        assert sub.retained_txs  # rows that could have named it
        assert text.count(sub.center.hex) == 1
        assert json.loads(text)["target_address"]["hex"] == sub.center.hex


# every class of character the string encoder treats differently: the control
# characters it escapes, quote and backslash, and ASCII and non-ASCII text it keeps
TEXT = st.text(st.sampled_from([chr(c) for c in range(0x20)] + list('"\\/\x7f aZ0é€\u2028😀')), max_size=8)
AMOUNT = st.integers(min_value=0, max_value=10**30).map(str)
# the center's chain, the far chain of a bridge pair; "base" has no native symbol
CHAINS = ["ethereum", "bsc", "base"]
TIMESTAMP = st.integers(min_value=1, max_value=4 * 10**9)


@st.composite
def subgraphs(draw):
    chain, far = draw(st.sampled_from([(a, b) for a in CHAINS for b in CHAINS if a != b]))
    center = addr(0xC0, chain)
    peers = st.sampled_from([center] + [addr(n, chain) for n in range(1, 4)])
    # every row touches the center, as the adapters keep no other: out, in or to itself
    edges = st.tuples(st.just(center), peers) | st.tuples(peers, st.just(center))
    txs = [
        make_tx(
            n, *draw(edges), value=draw(AMOUNT), ts=draw(TIMESTAMP),
            token=draw(st.sampled_from(["", "ETH", "USDT"]) | TEXT), is_error=draw(st.booleans()),
        )
        for n in range(draw(st.integers(0, 4)))
    ]
    pairs = [
        CrossChainPair(
            make_tx(100 + n, center, addr(9, chain), value=draw(AMOUNT), ts=draw(TIMESTAMP), token=draw(TEXT)),
            make_tx(200 + n, addr(8, far), addr(7, far), value=draw(AMOUNT), ts=draw(TIMESTAMP), token=draw(TEXT)),
            bridge_hint=draw(TEXT),
        )
        for n in range(draw(st.integers(0, 2)))
    ]
    k = draw(st.integers(1, 5))
    return build_subgraph(center, txs, pairs, TracerConfig(k=k), draw(TIMESTAMP))


@settings(max_examples=300, deadline=None)
@given(subgraphs())
def test_payload_tables_decode_to_any_subgraph(sub):
    assert_tables_decode_to(to_reasoner_payload(sub), sub)
