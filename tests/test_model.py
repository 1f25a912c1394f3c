"""Core type contracts: normalization, ordering, round-trips, validation."""

import re
from dataclasses import make_dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import addr, make_tx, tx_hash
from risktagger.errors import MalformedAddress
from risktagger.model import (
    Address,
    CrossChainPair,
    RiskAssessment,
    RiskDimension,
    SuspicionLevel,
    TracerConfig,
    TransactionRecord,
    normalize_address,
    normalize_chain,
    normalize_hex,
    normalize_tx_hash,
)

# Expected value computed independently: canonical form is the lowercase map
# of the checksummed input, frozen here as a literal.
CHECKSUMMED = "0x47666FAB8bd0Ac7003bce3f5C3585383F09486E2"
CANONICAL = "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"


def test_normalize_lowercases_checksummed_form():
    a = normalize_address(CHECKSUMMED, "ethereum")
    assert a.hex == CANONICAL
    assert a.chain == "ethereum"


def test_normalize_is_idempotent_on_example():
    once = normalize_address(CHECKSUMMED, "ethereum")
    twice = normalize_address(once.hex, once.chain)
    assert once == twice


@given(st.integers(min_value=0, max_value=2**160 - 1), st.booleans())
def test_normalize_idempotent_property(n, upper):
    raw = "0x" + format(n, "X" if upper else "x").rjust(40, "0")
    a = normalize_address(raw, "ethereum")
    assert normalize_address(a.hex, a.chain) == a
    assert a.hex == a.hex.lower() and len(a.hex) == 42


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "0x",
        "0x1234",  # too short
        CANONICAL + "ab",  # too long
        CANONICAL[2:],  # missing prefix
        "0x" + "g" * 40,  # non-hex charset
        "1x" + "a" * 40,
    ],
)
def test_normalize_rejects_malformed(bad):
    with pytest.raises(MalformedAddress):
        normalize_address(bad, "ethereum")


def test_normalize_rejects_bad_chain():
    with pytest.raises(MalformedAddress):
        normalize_address(CANONICAL, "Ether eum")
    with pytest.raises(MalformedAddress):
        normalize_address(CANONICAL, "")
    for bad in (5, None, ["ethereum"]):
        with pytest.raises(MalformedAddress, match="must be a string"):
            normalize_chain(bad)


def test_addresses_on_one_chain_share_one_chain_string():
    first = normalize_address(addr(1).hex, "".join(["ether", "eum"]))
    second = normalize_address(addr(2).hex, " Ethereum")
    assert first.chain == "ethereum" and first.chain is second.chain
    assert not hasattr(first, "__dict__")


def former_normalize_hex(raw):
    """normalize_hex before canonical input took one match: strip, then
    lowercase the digits after a 0x prefix of either case, then check."""
    if not isinstance(raw, str):
        raise MalformedAddress("not a string")
    candidate = raw.strip()
    if not candidate.lower().startswith("0x"):
        raise MalformedAddress("no prefix")
    candidate = "0x" + candidate[2:].lower()
    if not re.match(r"^0x[0-9a-f]{40}$", candidate):
        raise MalformedAddress("not 40 hex digits")
    return candidate


HEX_DIGITS = st.text("0123456789abcdef", min_size=40, max_size=40)


@st.composite
def hex_text(draw):
    """Canonical hex, or it made uppercase in part, padded with whitespace,
    one digit short or long, or with a stray character."""
    raw = "0x" + draw(HEX_DIGITS)
    kind = draw(st.sampled_from(["canonical", "upper", "padded", "short", "long", "stray"]))
    if kind == "upper":
        cut = draw(st.integers(0, 42))
        raw = raw[:cut].upper() + raw[cut:]
    elif kind == "padded":
        raw = draw(st.sampled_from([" ", "\t", "\n", "\r\n"])) + raw + draw(st.sampled_from(["", " ", "\n"]))
    elif kind == "short":
        raw = raw[:-1]
    elif kind == "long":
        raw += draw(st.sampled_from(["0", "f", "\n0"]))
    elif kind == "stray":
        at = draw(st.integers(0, 41))
        raw = raw[:at] + draw(st.sampled_from(["g", "X", ",", "\n", " ", "\u0660"])) + raw[at + 1 :]
    return raw


@given(hex_text())
def test_normalize_hex_returns_what_the_full_path_returns(raw):
    try:
        expected = former_normalize_hex(raw)
    except MalformedAddress:
        with pytest.raises(MalformedAddress):
            normalize_hex(raw)
    else:
        assert normalize_hex(raw) == expected


# Address as it was before it became a tuple type, as the reference
DataclassAddress = make_dataclass("Address", [("hex", str), ("chain", str)], frozen=True, order=True, slots=True)


ADDRESSES = st.builds(
    lambda digits, chain: normalize_address("0x" + digits, chain),
    HEX_DIGITS | st.sampled_from(["0" * 40, "0" * 39 + "1"]),
    st.sampled_from(["ethereum", "bsc", "a", "ethereum2"]),
)


@given(st.lists(ADDRESSES, min_size=1, max_size=8))
def test_address_keeps_the_dataclass_contract(addresses):
    former = [DataclassAddress(a.hex, a.chain) for a in addresses]
    for a, f in zip(addresses, former):
        assert hash(a) == hash((a.hex, a.chain)) == hash(f)
        assert repr(a) == repr(f)
        assert a == (a.hex, a.chain) and a == Address(a.hex, a.chain)
        assert a != Address(a.hex, a.chain + "2")
        with pytest.raises(AttributeError):
            a.hex = "0x" + "0" * 40
        with pytest.raises(AttributeError):
            a.extra = 1
    order = sorted(range(len(addresses)), key=addresses.__getitem__)
    assert [former[i] for i in order] == sorted(former)
    assert list(set(addresses)) == [Address(f.hex, f.chain) for f in set(former)]


def test_tx_hash_normalization():
    raw = "0x" + "AB" * 32
    assert normalize_tx_hash(raw) == "0x" + "ab" * 32
    with pytest.raises(MalformedAddress):
        normalize_tx_hash("0x" + "ab" * 16)


def test_suspicion_from_label_tolerates_case():
    assert SuspicionLevel.from_label("high") is SuspicionLevel.HIGH
    assert SuspicionLevel.from_label("No suspicion") is SuspicionLevel.NO_SUSPICION
    assert SuspicionLevel.from_label(" MEDIUM ") is SuspicionLevel.MEDIUM
    with pytest.raises(ValueError):
        SuspicionLevel.from_label("severe")


def test_transaction_rejects_bad_values():
    with pytest.raises(ValueError, match="in \\[0, 2\\*\\*256\\)"):
        make_tx(3, addr(1), addr(2), value="-5")
    with pytest.raises(ValueError, match="in \\[0, 2\\*\\*256\\)"):
        make_tx(3, addr(1), addr(2), value=2**256)
    with pytest.raises(ValueError, match="must be an int"):
        # the builders parse decimal text; a record holds the int only
        TransactionRecord(hash=tx_hash(3), from_addr=addr(1), to_addr=addr(2), value="5",
                          timeStamp=1, blockNumber=1)
    with pytest.raises(ValueError, match="timeStamp must be positive"):
        make_tx(3, addr(1), addr(2), ts=0)
    with pytest.raises(ValueError, match="same chain"):
        # records never span chains
        TransactionRecord(
            hash=tx_hash(4),
            from_addr=addr(1, "ethereum"),
            to_addr=addr(2, "bsc"),
            value=1,
            timeStamp=1,
            blockNumber=1,
        )


def test_cross_chain_pair_requires_two_chains():
    src = make_tx(5, addr(1), addr(2))
    dst_same = make_tx(6, addr(3), addr(4))
    with pytest.raises(ValueError):
        CrossChainPair(src, dst_same)
    dst = make_tx(6, addr(3, "bsc"), addr(4, "bsc"))
    CrossChainPair(src, dst)


@pytest.mark.parametrize(
    "result,risky",
    [
        ("", False),
        ("No anomalies detected", False),
        ("no activity", False),
        ("Normal business flow", False),
        ("N/A", False),
        ("Round-number transfers detected", True),
        ("Aggregation-dispersion pattern present", True),
        ("not suspicious", False),
    ],
)
def test_dimension_risk_heuristic(result, risky):
    assert RiskDimension(result=result).indicates_risk() is risky


def _assessment(**over):
    base = dict(
        target_address=addr(1),
        suspicion_level=SuspicionLevel.HIGH,
        transaction_patterns=RiskDimension("x", "e"),
        fund_flows=RiskDimension(),
        associated_addresses=RiskDimension(),
        temporal_signs=RiskDimension(),
        justification="j",
        gaps="g",
        out_neighbors=[addr(2), addr(3)],
        hop_depth=1,
    )
    base.update(over)
    return RiskAssessment(**base)


def test_assessment_round_trip():
    a = _assessment(reflection_issues=["vague evidence"], reasoner_backend="rules")
    assert RiskAssessment.from_json(a.to_json()) == a


def test_assessment_rejects_self_and_duplicate_neighbors():
    with pytest.raises(ValueError):
        _assessment(out_neighbors=[addr(1)])
    with pytest.raises(ValueError):
        _assessment(out_neighbors=[addr(2), addr(2)])


def test_assessment_distinguishes_chains_in_neighbors():
    # same hex on another chain is a different account, allowed
    a = _assessment(out_neighbors=[addr(2), addr(2, "bsc")])
    assert len(a.out_neighbors) == 2


def test_tracer_config_defaults_and_weights():
    cfg = TracerConfig()
    assert cfg.D == 20 and cfg.k == 100 and cfg.frontier_cap == 500
    assert cfg.min_value_threshold == "0"
    assert cfg.expand_levels == frozenset(SuspicionLevel)
    with pytest.raises(ValueError):
        TracerConfig(value_weight=0.5, recency_weight=0.5, flag_weight=0.5)
    with pytest.raises(ValueError):
        TracerConfig(D=0)
    with pytest.raises(ValueError):
        TracerConfig(frontier_cap=0)
    for threshold in ("abc", "5\n", "5 ", " 5", "", "-5", "5.0", "\u0665"):
        with pytest.raises(ValueError, match="min_value_threshold"):
            TracerConfig(min_value_threshold=threshold)


def test_tracer_config_round_trip():
    cfg = TracerConfig(D=3, frontier_cap=None, expand_levels=frozenset({SuspicionLevel.HIGH}))
    again = TracerConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(ValueError):
        TracerConfig.from_json({"D": 3, "bogus": 1})
