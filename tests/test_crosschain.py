"""Bridge matching against a brute-force oracle written before the matcher.

The oracle enumerates every (deposit, withdrawal) combination and applies the
documented predicates directly; the matcher must agree exactly.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import addr, make_tx
from risktagger.chaindata import BridgeMatcher, BridgeTable
from risktagger.chaindata.crosschain import TIME_WINDOW_S
from risktagger.errors import ParseError
from risktagger.model import CrossChainPair

ACCOUNT = addr(0x100)
BRIDGE_ETH = addr(0xB1)
BRIDGE_BSC = addr(0xB1, "bsc")
DST_USER = addr(0x200, "bsc")

T0 = 1_740_000_000
# RUNE-style 8-decimal units: 100 units deposited, 99.5 withdrawn
DEPOSIT_AMOUNT = 100 * 10**8
WITHDRAW_OK = 995 * 10**7
WITHDRAW_TOO_SMALL = 98 * 10**8


def oracle_pairs(deposits, withdrawals_by_chain, endpoints, tolerance, window_s, skew_s):
    """Brute force: all combinations, keep those satisfying every predicate."""
    pairs = []
    for dep in deposits:
        for chain, rows in sorted(withdrawals_by_chain.items()):
            if chain == dep.chain:
                continue
            for wd in sorted(rows, key=lambda r: (r.timeStamp, r.hash)):
                if wd.from_addr not in endpoints:
                    continue
                if wd.isError or dep.isError:
                    continue
                if wd.tokenSymbol != dep.tokenSymbol:
                    continue
                delta = wd.timeStamp - dep.timeStamp
                if delta < -skew_s or delta > window_s:
                    continue
                if abs(wd.value - dep.value) > Fraction(str(tolerance)) * dep.value:
                    continue
                pairs.append((dep.hash, wd.hash, delta))
    return pairs


def build_table(tmp_path):
    path = tmp_path / "bridges.txt"
    path.write_text(
        "# bridge endpoints\n"
        f"ethereum,{BRIDGE_ETH.hex},hoplink\n"
        f"bsc,{BRIDGE_BSC.hex},hoplink\n",
        encoding="utf-8",
    )
    return BridgeTable.load(path)


def records_for(rows):
    """Per-address lookup over `rows`, as a store's records_for answers it."""
    return lambda address: [r for r in rows if address in (r.from_addr, r.to_addr)]


def matcher_for(tmp_path, bsc_rows):
    return BridgeMatcher(build_table(tmp_path), records_for(bsc_rows))


def test_single_pair_within_window_and_tolerance(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    withdrawal = make_tx(
        2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 300, token="RUNE"
    )
    expected = oracle_pairs(
        [deposit], {"bsc": [withdrawal]}, {BRIDGE_BSC}, 0.01, 3600, 0
    )
    assert expected == [(deposit.hash, withdrawal.hash, 300)]  # oracle sanity

    matcher = matcher_for(tmp_path, [withdrawal])
    pairs = matcher.expand(ACCOUNT, [deposit])
    assert [(p.src_tx.hash, p.dst_tx.hash, p.dst_tx.timeStamp - p.src_tx.timeStamp) for p in pairs] == expected
    pair = pairs[0]
    assert (pair.src_tx, pair.dst_tx) == (deposit, withdrawal)
    assert pair.bridge_hint == "hoplink"
    assert matcher.diagnostics == []


def test_tolerance_is_exact_on_a_33_digit_deposit(tmp_path):
    amount = 123456789012345678901234567890123
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(amount), ts=T0, token="RUNE")
    # 1% larger, rounded down to a unit, pairs; 50 units more does not, though
    # a 28-digit decimal product of 0.01 and the deposit rounds up past it
    at_limit = make_tx(2, BRIDGE_BSC, DST_USER, value=str(amount + amount // 100), ts=T0 + 60, token="RUNE")
    over = make_tx(3, BRIDGE_BSC, DST_USER, value=str(amount + amount // 100 + 50), ts=T0 + 60, token="RUNE")
    expected = oracle_pairs([deposit], {"bsc": [at_limit, over]}, {BRIDGE_BSC}, 0.01, 3600, 0)
    assert expected == [(deposit.hash, at_limit.hash, 60)]
    pairs = matcher_for(tmp_path, [at_limit, over]).expand(ACCOUNT, [deposit])
    assert [(p.src_tx.hash, p.dst_tx.hash, p.dst_tx.timeStamp - p.src_tx.timeStamp) for p in pairs] == expected


def test_outside_window_unmatched_with_diagnostic(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    late = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 3601, token="RUNE")
    assert oracle_pairs([deposit], {"bsc": [late]}, {BRIDGE_BSC}, 0.01, 3600, 0) == []

    matcher = matcher_for(tmp_path, [late])
    assert matcher.expand(ACCOUNT, [deposit]) == []
    assert matcher.diagnostics[0]["kind"] == "unmatched_deposit"
    assert matcher.diagnostics[0]["tx"] == deposit.hash


def test_amount_outside_tolerance(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    small = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_TOO_SMALL), ts=T0 + 60, token="RUNE")
    matcher = matcher_for(tmp_path, [small])
    assert matcher.expand(ACCOUNT, [deposit]) == []


def test_token_must_match(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    other = make_tx(2, BRIDGE_BSC, DST_USER, value=str(DEPOSIT_AMOUNT), ts=T0 + 60, token="USDT")
    matcher = matcher_for(tmp_path, [other])
    assert matcher.expand(ACCOUNT, [deposit]) == []


def test_withdrawal_before_deposit_never_matches(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    early = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 - 60, token="RUNE")

    matcher = matcher_for(tmp_path, [early])
    assert matcher.expand(ACCOUNT, [deposit]) == []


def test_all_candidate_withdrawals_kept(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    w1 = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 100, token="RUNE")
    w2 = make_tx(3, BRIDGE_BSC, addr(0x201, "bsc"), value=str(DEPOSIT_AMOUNT), ts=T0 + 200, token="RUNE")
    expected = oracle_pairs([deposit], {"bsc": [w2, w1]}, {BRIDGE_BSC}, 0.01, 3600, 0)
    assert len(expected) == 2

    matcher = matcher_for(tmp_path, [w2, w1])
    pairs = matcher.expand(ACCOUNT, [deposit])
    assert [(p.src_tx.hash, p.dst_tx.hash, p.dst_tx.timeStamp - p.src_tx.timeStamp) for p in pairs] == expected


def test_failed_legs_never_match(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE", is_error=True)
    wd = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 100, token="RUNE")
    matcher = matcher_for(tmp_path, [wd])
    assert matcher.expand(ACCOUNT, [deposit]) == []
    # a failed deposit is not a deposit at all, so no diagnostic either
    assert matcher.diagnostics == []


def test_input_marker_detects_router_deposit(tmp_path):
    path = tmp_path / "bridges.txt"
    path.write_text(
        f"ethereum,input:0xdeadbeef,hoplink\nbsc,{BRIDGE_BSC.hex},hoplink\n",
        encoding="utf-8",
    )
    table = BridgeTable.load(path)
    deposit = make_tx(
        1, ACCOUNT, addr(0x999), value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE",
        input="0xdeadbeef0000",
    )
    wd = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 30, token="RUNE")
    matcher = BridgeMatcher(table, records_for([wd]))
    pairs = matcher.expand(ACCOUNT, [deposit])
    assert len(pairs) == 1 and pairs[0].bridge_hint == "hoplink"


@pytest.mark.parametrize("marker", ["input:", "input:zz", "input:0x", "input:0xdeadbe", "input:0xdeadbeeg"])
def test_an_input_marker_short_of_a_selector_fails_the_load_naming_its_line(tmp_path, marker):
    # an empty marker would tag every outgoing transfer on the chain as a deposit
    path = tmp_path / "bridges.txt"
    path.write_text(f"bsc,{BRIDGE_BSC.hex},hoplink\nethereum,{marker},demo\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: ")):
        BridgeTable.load(path)


def test_a_bad_chain_id_fails_the_load_naming_its_line(tmp_path):
    path = tmp_path / "bridges.txt"
    path.write_text(f"# bridges\neth-main,{BRIDGE_ETH.hex},hoplink\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: ") + ".*chain"):
        BridgeTable.load(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_bridge_table_lines_end_only_at_line_breaks(tmp_path, ending):
    path = tmp_path / "bridges.txt"
    lines = [
        "# bridges\u2028between chains",
        f"bsc,{BRIDGE_BSC.hex},hop\x85link",
        f"eth-main,{BRIDGE_ETH.hex},hoplink",
    ]
    path.write_text(ending.join(lines[:2]) + ending, encoding="utf-8", newline="")
    assert BridgeTable.load(path).endpoint_bridge == {BRIDGE_BSC: "hop\x85link"}
    path.write_text(ending.join(lines) + ending, encoding="utf-8", newline="")
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}:3: ") + ".*chain"):
        BridgeTable.load(path)


def test_pair_destination_carries_destination_chain(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    wd = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 300, token="RUNE")
    matcher = matcher_for(tmp_path, [wd])
    (pair,) = matcher.expand(ACCOUNT, [deposit])
    assert isinstance(pair, CrossChainPair)
    assert pair.dst_tx.to_addr.chain == "bsc"


# --- many deposits against two endpoints per chain ------------------------------

ENDPOINTS = {
    "ethereum": [addr(0xB1), addr(0xB2)],
    "bsc": [addr(0xB1, "bsc"), addr(0xB2, "bsc")],
    "polygon": [addr(0xB3, "polygon"), addr(0xB4, "polygon")],
}
# both edges of the window, and a second either side of each
OFFSETS = [-1, 0, 1, TIME_WINDOW_S // 2, TIME_WINDOW_S - 1, TIME_WINDOW_S, TIME_WINDOW_S + 1]
# 1% either side of the deposit is in, one unit further is out
AMOUNT_PERCENT = [100, 99, 101]


def two_endpoint_table(tmp_path):
    path = tmp_path / "bridges.txt"
    path.write_text(
        "".join(f"{chain},{a.hex},hoplink\n" for chain, pair in ENDPOINTS.items() for a in pair),
        encoding="utf-8",
    )
    return BridgeTable.load(path)


deposit_specs = st.lists(
    st.tuples(
        st.integers(0, 5),  # time slot, half a window apart: windows overlap
        st.sampled_from(["RUNE", "USDT", ""]),
        st.sampled_from([100 * 10**8, 300 * 10**8]),
        st.integers(0, 1),  # which ethereum endpoint
        st.booleans(),  # failed
    ),
    min_size=1,
    max_size=25,
)
withdrawal_specs = st.lists(
    st.tuples(
        st.sampled_from(["bsc", "polygon", "ethereum"]),
        st.integers(0, 1),  # which endpoint sends it
        st.integers(0, 24),  # the deposit it is placed against
        st.sampled_from(OFFSETS),
        st.sampled_from(AMOUNT_PERCENT),
        st.integers(-1, 1),  # one unit off the amount
        st.sampled_from(["RUNE", "USDT", ""]),
        st.booleans(),  # failed
        st.integers(0, 3),  # hash; few values, so (timeStamp, hash) ties happen
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(deposit_specs, withdrawal_specs)
# a tie on (timeStamp, hash) across the two bsc endpoints, the second
# endpoint's row first in the store; a timeStamp tie; both window edges
@example(
    [(0, "RUNE", 100 * 10**8, 0, False), (1, "RUNE", 100 * 10**8, 1, False)],
    [
        ("bsc", 1, 0, 0, 100, 0, "RUNE", False, 2),
        ("bsc", 0, 0, 0, 100, 0, "RUNE", False, 2),
        ("bsc", 0, 0, 0, 99, 0, "RUNE", False, 1),
        ("polygon", 1, 1, TIME_WINDOW_S, 101, 0, "RUNE", False, 3),
        ("polygon", 0, 1, -1, 100, 0, "RUNE", False, 3),
        ("bsc", 1, 1, TIME_WINDOW_S + 1, 100, 0, "RUNE", False, 0),
    ],
)
def test_many_deposits_against_two_endpoints_per_chain_match_the_oracle(tmp_path_factory, deposits, withdrawals):
    table = two_endpoint_table(tmp_path_factory.mktemp("bridges"))
    deps = [
        make_tx(1000 + n, ACCOUNT, ENDPOINTS["ethereum"][endpoint], value=str(amount),
                ts=T0 + slot * TIME_WINDOW_S // 2, token=token, is_error=failed)
        for n, (slot, token, amount, endpoint, failed) in enumerate(deposits)
    ]
    rows = []
    for n, (chain, endpoint, anchor, offset, percent, unit, token, failed, hash_n) in enumerate(withdrawals):
        dep = deps[anchor % len(deps)]
        value = dep.value * percent // 100 + (unit if percent != 100 else 0)
        sender = ENDPOINTS[chain][endpoint]
        rows.append(make_tx(hash_n, sender, addr(0x300 + n, chain), value=str(value),
                            ts=dep.timeStamp + offset, token=token, is_error=failed))
    # the store answers in row order; ties on (timeStamp, hash) keep table endpoint order
    by_chain = {
        chain: [r for endpoint in pair for r in rows if r.from_addr == endpoint]
        for chain, pair in ENDPOINTS.items()
    }
    endpoints = {a for pair in ENDPOINTS.values() for a in pair}
    expected = oracle_pairs(deps, by_chain, endpoints, 0.01, TIME_WINDOW_S, 0)

    matcher = BridgeMatcher(table, records_for(rows))
    pairs = matcher.expand(ACCOUNT, deps)
    assert [(p.src_tx.hash, p.dst_tx.hash, p.dst_tx.timeStamp - p.src_tx.timeStamp) for p in pairs] == expected
    # rows tied on (timeStamp, hash) too come in the oracle's order
    rank = {id(r): i for i, r in enumerate(
        r for chain in sorted(by_chain) for r in sorted(by_chain[chain], key=lambda r: (r.timeStamp, r.hash))
    )}
    for dep in deps:
        ranks = [rank[id(p.dst_tx)] for p in pairs if p.src_tx is dep]
        assert ranks == sorted(ranks)
    matched = {p.src_tx.hash for p in pairs}
    assert [d["tx"] for d in matcher.diagnostics] == [
        d.hash for d in deps if not d.isError and d.hash not in matched
    ]


def test_each_endpoint_is_read_once_however_many_deposits_expand_sees(tmp_path):
    table = two_endpoint_table(tmp_path)
    rows = [
        make_tx(n, ENDPOINTS["bsc"][n % 2], DST_USER, value=str(DEPOSIT_AMOUNT), ts=T0 + n, token="RUNE")
        for n in range(10)
    ]
    reads = []

    def counting(address):
        reads.append(address)
        return [r for r in rows if address in (r.from_addr, r.to_addr)]

    matcher = BridgeMatcher(table, counting)
    for n in range(50):
        deposit = make_tx(1000 + n, ACCOUNT, ENDPOINTS["ethereum"][n % 2],
                          value=str(DEPOSIT_AMOUNT), ts=T0 + n, token="RUNE")
        assert len(matcher.expand(ACCOUNT, [deposit])) == 10 - min(n, 10)
    assert sorted(reads) == sorted(a for pair in ENDPOINTS.values() for a in pair)
