"""Fixture replay contracts: schema strictness, dedup, ordering, indexing."""

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import addr, make_tx, tx_hash
from risktagger.chaindata import (
    FIXTURE_COLUMNS,
    FixtureChainClient,
    FixtureStore,
    dedup_and_sort,
    load_fixture,
)
from risktagger.chaindata.fetch import _row_to_record
from risktagger.errors import MalformedAddress, ParseError, SchemaMismatch, UnknownChain
from risktagger.model import TransactionRecord

HEADER = ",".join(FIXTURE_COLUMNS)


def row(
    n,
    src,
    dst,
    value="1000",
    ts=1700000000,
    block=1,
    token="",
    contract="",
    is_error="0",
):
    return (
        f"{tx_hash(n)},{src.hex},{dst.hex},{value},{ts},{block},{token},{contract},"
        f"{is_error},0x,0,0xb{n:03d},21000,50,21000,10"
    )


def write_fixture(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    return path


def test_load_fixture_happy_path(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2))])
    records = load_fixture(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.chain == "ethereum"
    assert rec.from_addr == addr(1)
    assert rec.value == "1000"
    assert rec.contractAddress is None


def test_header_drift_is_schema_mismatch(tmp_path):
    bad = HEADER.replace("timeStamp", "timestamp")
    path = tmp_path / "ethereum.csv"
    path.write_text(bad + "\n" + row(1, addr(1), addr(2)) + "\n")
    with pytest.raises(SchemaMismatch) as err:
        load_fixture(path)
    assert "timeStamp" in str(err.value)


def test_reordered_header_rejected(tmp_path):
    cols = list(FIXTURE_COLUMNS)
    cols[0], cols[1] = cols[1], cols[0]
    path = tmp_path / "ethereum.csv"
    path.write_text(",".join(cols) + "\n")
    with pytest.raises(SchemaMismatch):
        load_fixture(path)


def test_bad_row_reports_line_number(tmp_path):
    lines = [row(1, addr(1), addr(2)), row(2, addr(1), addr(2)).replace("1700000000", "notanint")]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert ":3:" in str(err.value)  # header is line 1


@pytest.mark.parametrize(
    "column, bad",
    [("hash", "0x123"), ("from", "0x123"), ("to", "47666fab8bd0ac7003bce3f5c3585383f09486e2"),
     ("contractAddress", "0xzz")],
)
def test_malformed_hash_or_address_reports_line(tmp_path, column, bad):
    values = row(2, addr(1), addr(2)).split(",")
    values[FIXTURE_COLUMNS.index(column)] = bad
    lines = [row(1, addr(1), addr(2)), ",".join(values)]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert "ethereum.csv:3: bad fixture row: " in str(err.value)
    assert repr(bad) in str(err.value)


def test_wrong_column_count_reports_line(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2)) + ",extra"])
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert ":2:" in str(err.value)


def test_dedup_identical_rows_keep_one(tmp_path):
    same = row(1, addr(1), addr(2))
    path = write_fixture(tmp_path, "ethereum.csv", [same, same])
    store = FixtureStore({"ethereum": load_fixture(path)})
    records = FixtureChainClient(store).fetch_transactions(addr(1))
    assert len(records) == 1


def test_same_hash_native_and_token_rows_both_kept():
    native = make_tx(1, addr(1), addr(2), value="5")
    token = make_tx(1, addr(1), addr(2), value="7", token="USDT")
    out = dedup_and_sort([native, token])
    assert len(out) == 2


def test_sorted_by_block_then_hash():
    a = make_tx(9, addr(1), addr(2), block=5)
    b = make_tx(2, addr(1), addr(2), block=5)
    c = make_tx(1, addr(1), addr(2), block=3)
    out = dedup_and_sort([a, b, c])
    assert [r.blockNumber for r in out] == [3, 5, 5]
    assert out[1].hash < out[2].hash


def test_fetch_touches_only_queried_address(tmp_path):
    lines = [row(1, addr(1), addr(2)), row(2, addr(2), addr(3)), row(3, addr(4), addr(5))]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    records = FixtureChainClient(store).fetch_transactions(addr(2))
    assert len(records) == 2
    assert all(r.involves(addr(2)) for r in records)


def test_rows_are_built_only_when_fetched(tmp_path):
    lines = [row(1, addr(1), addr(2)), row(2, addr(2), addr(3)), row(3, addr(4), addr(5))]
    write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    rows = store.records_by_chain["ethereum"]
    assert len(rows) == 3 and all(isinstance(r, str) for r in rows)
    first = store.records_for(addr(2))
    assert [type(r) for r in rows] == [TransactionRecord, TransactionRecord, str]
    again = store.records_for(addr(2))
    assert again == first and all(a is b for a, b in zip(again, first))
    assert first[0].to_addr is first[1].from_addr  # one Address object per hex


def test_unknown_chain(tmp_path):
    write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2))])
    store = FixtureStore.load_dir(tmp_path)
    with pytest.raises(UnknownChain):
        FixtureChainClient(store).fetch_transactions(addr(1, "bsc"))


def test_self_transfer_indexed_once(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(7), addr(7))])
    store = FixtureStore({"ethereum": load_fixture(path)})
    assert len(store.records_for(addr(7))) == 1


def test_all_addresses_sorted(tmp_path):
    lines = [row(1, addr(9), addr(2)), row(2, addr(5), addr(9))]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    addrs = store.all_addresses("ethereum")
    assert addrs == sorted(addrs)
    assert addr(2) in addrs and addr(5) in addrs and addr(9) in addrs


def test_empty_fixture_dir_rejected(tmp_path):
    with pytest.raises(ParseError):
        FixtureStore.load_dir(tmp_path)


# --- the loader against the row-by-row reference ---------------------------------

POOL = [addr(n).hex for n in (1, 2, 0xABC)]


def reference_load(path, chain="ethereum"):
    """The reference loader: csv.reader and _row_to_record on every row."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, values in enumerate(reader, start=2):
            if not values or (len(values) == 1 and not values[0].strip()):
                continue
            if len(values) != len(FIXTURE_COLUMNS):
                raise ParseError(f"{path}:{line_no}: expected 16 columns, got {len(values)}")
            try:
                records.append(_row_to_record(values, chain))
            except (ValueError, ArithmeticError, MalformedAddress) as exc:
                raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
    return records


def digits(lo, hi):
    return st.integers(lo, hi).map(str)


CANONICAL = {
    "hash": st.integers(0, 2**256 - 1).map(lambda n: f"0x{n:064x}"),
    "from": st.sampled_from(POOL),
    "to": st.sampled_from(POOL),
    "value": digits(0, 10**30),
    "timeStamp": digits(1, 2**40),
    "blockNumber": digits(0, 10**12),
    "tokenSymbol": st.sampled_from(["", "USDT", "a b"]),
    "contractAddress": st.sampled_from([""] + POOL),
    "isError": st.sampled_from(["0", "1", "", "yes"]),
    "input": st.sampled_from(["0x", "", "0xdeadbeef"]),
    "nonce": digits(0, 10**6),
    "blockHash": st.sampled_from(["", "0xb001"]),
    "gas": digits(0, 10**9),
    "gasPrice": digits(0, 10**12),
    "gasUsed": digits(0, 10**9),
    "confirmations": digits(0, 10**6),
}
MUTATIONS = {
    "upper": str.upper,
    "upper_digits": lambda v: v[:2] + v[2:].upper(),
    "lead": lambda v: " " + v,
    "trail": lambda v: v + "\t",
    "zeros": lambda v: "00" + v,
    "long": lambda v: "1" * 19,
    "plus": lambda v: "+" + v,
    "underscore": lambda v: v[:1] + "_" + v[1:],
    "zero": lambda v: "0",
    "short": lambda v: v[:-1],
    "comma": lambda v: v + ",x",
    "break": lambda v: v[:1] + "\n" + v[1:],
    "quote": lambda v: v,
}
HEX_KINDS = ["upper", "upper_digits", "lead", "trail", "short", "quote"]
INT_KINDS = ["lead", "trail", "zeros", "long", "plus", "underscore", "zero", "quote"]
TEXT_KINDS = ["upper", "lead", "trail", "comma", "break", "quote"]
KINDS = {
    "hash": HEX_KINDS, "from": HEX_KINDS, "to": HEX_KINDS, "contractAddress": HEX_KINDS,
    "tokenSymbol": TEXT_KINDS, "isError": TEXT_KINDS, "input": TEXT_KINDS, "blockHash": TEXT_KINDS,
}
QUOTED_KINDS = ("quote", "comma", "break")
MUTATION_SITES = [
    (FIXTURE_COLUMNS.index(column), kind) for column in FIXTURE_COLUMNS for kind in KINDS.get(column, INT_KINDS)
]


@st.composite
def fixture_line(draw):
    """A canonical row with up to two mutations: uppercase hex, edge whitespace,
    padded or signed or underscored digits, quoted fields (some spanning two
    lines), zeros, short hex."""
    values = [draw(CANONICAL[column]) for column in FIXTURE_COLUMNS]
    quoted = set()
    for index, kind in draw(st.lists(st.sampled_from(MUTATION_SITES), max_size=2)):
        values[index] = MUTATIONS[kind](values[index])
        if kind in QUOTED_KINDS:
            quoted.add(index)
    return ",".join(f'"{v}"' if i in quoted else v for i, v in enumerate(values))


def assert_loader_agrees(directory, lines, ending="\n"):
    """The loader raises the reference's ParseError, or returns its records,
    through load_fixture and through the store's per-address index."""
    path = Path(directory) / "ethereum.csv"
    path.write_text(ending.join([HEADER] + lines) + ending, encoding="utf-8", newline="")
    try:
        expected = reference_load(path)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            FixtureStore.load_dir(directory)
        assert str(got.value) == str(err)
        return
    assert load_fixture(path) == expected
    store = FixtureStore.load_dir(directory)
    for hex_ in POOL:
        account = addr(int(hex_, 16))
        assert store.records_for(account) == [r for r in expected if r.involves(account)]


def test_every_mutation_agrees_with_the_reference(tmp_path):
    values = row(1, addr(1), addr(2), token="USDT", contract=addr(0xABC).hex).split(",")
    for index, kind in MUTATION_SITES:
        mutated = list(values)
        mutated[index] = MUTATIONS[kind](mutated[index])
        if kind in QUOTED_KINDS:
            mutated[index] = f'"{mutated[index]}"'
        lines = [",".join(values), ",".join(mutated)]
        assert_loader_agrees(tmp_path, lines + [",".join(values)])
        # a bad row after it is reported at the same record number
        assert_loader_agrees(tmp_path, lines + [",".join(values[:-1])])


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.one_of(fixture_line(), st.sampled_from(["", "  "])), min_size=1, max_size=8),
    ending=st.sampled_from(["\n", "\r\n"]),
)
def test_loader_agrees_with_the_row_by_row_reference(lines, ending):
    with tempfile.TemporaryDirectory() as tmp:
        assert_loader_agrees(tmp, lines, ending)
