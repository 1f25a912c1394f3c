"""Bridge matching against a brute-force oracle written before the matcher.

The oracle enumerates every (deposit, withdrawal) combination and applies the
documented predicates directly; the matcher must agree exactly.
"""

import re
from decimal import Decimal

import pytest

from conftest import addr, make_tx
from risktagger.chaindata import BridgeMatcher, BridgeTable
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
                if abs(wd.value_int - dep.value_int) > Decimal(str(tolerance)) * dep.value_int:
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
    return lambda address: [r for r in rows if r.involves(address)]


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
    assert [(p.src_tx.hash, p.dst_tx.hash, p.time_delta_s) for p in pairs] == expected
    pair = pairs[0]
    assert pair.token == "RUNE"
    assert pair.amount_src == str(DEPOSIT_AMOUNT)
    assert pair.amount_dst == str(WITHDRAW_OK)
    assert pair.bridge_hint == "hoplink"
    assert matcher.diagnostics == []


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
    assert [(p.src_tx.hash, p.dst_tx.hash, p.time_delta_s) for p in pairs] == expected


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


def test_pair_destination_carries_destination_chain(tmp_path):
    deposit = make_tx(1, ACCOUNT, BRIDGE_ETH, value=str(DEPOSIT_AMOUNT), ts=T0, token="RUNE")
    wd = make_tx(2, BRIDGE_BSC, DST_USER, value=str(WITHDRAW_OK), ts=T0 + 300, token="RUNE")
    matcher = matcher_for(tmp_path, [wd])
    (pair,) = matcher.expand(ACCOUNT, [deposit])
    assert isinstance(pair, CrossChainPair)
    assert pair.dst_tx.to_addr.chain == "bsc"
