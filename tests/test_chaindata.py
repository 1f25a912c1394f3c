"""Fixture replay contracts: schema strictness, dedup, ordering, indexing."""

import csv
import gc
import itertools
import os
import sys
import tempfile
import threading
import tracemalloc
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
)
from risktagger.chaindata.fetch import _row_to_record
from risktagger.errors import MalformedAddress, ParseError, SchemaMismatch, UnknownChain

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


def load_fixture(path):
    """Every row of one fixture, in file order, loaded with the rest of its
    directory."""
    source = FixtureStore.load_dir(path.parent).records_by_chain[path.stem]
    return source.build(range(len(source)))


def test_load_fixture_happy_path(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2))])
    records = load_fixture(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.chain == "ethereum"
    assert rec.from_addr == addr(1)
    assert rec.value == 1000
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
     ("contractAddress", "0xzz"),
     # the six columns a record drops are still checked
     ("gas", "1.5"), ("gasPrice", ""), ("gasUsed", "x"), ("nonce", "-1"), ("confirmations", "-2"),
     # the builder parses the value once, from decimal digits only
     ("value", "1.5")],
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


@pytest.mark.parametrize(
    "value", [str(2**256), '"' + "1" * 5000 + '"'], ids=["canonical-2**256", "quoted-5000-digits"]
)
def test_a_value_of_2_256_or_more_fails_the_load_naming_its_line(tmp_path, value):
    lines = [row(1, addr(1), addr(2)), row(2, addr(1), addr(2), value=value)]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    with pytest.raises(ParseError) as err:
        FixtureStore.load_dir(tmp_path)
    assert str(err.value).startswith(f"{path}:3: bad fixture row: value")
    assert "2**256" in str(err.value)


def test_values_below_2_256_load_as_ints_whatever_their_leading_zeros(tmp_path):
    values = [str(10**77 - 1), str(2**256 - 1), "0" * 5000 + "5", "007"]
    lines = [row(n, addr(1), addr(2), value=value) for n, value in enumerate(values)]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    assert [r.value for r in load_fixture(path)] == [10**77 - 1, 2**256 - 1, 5, 7]
    assert_loader_agrees(tmp_path, lines)


def test_rows_equal_but_for_leading_zeros_in_the_value_collapse(tmp_path):
    write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2), value=v) for v in ("7", "07")])
    records = FixtureChainClient(FixtureStore.load_dir(tmp_path)).fetch_transactions(addr(1))
    assert [r.value for r in records] == [7]


def test_wrong_column_count_reports_line(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2)) + ",extra"])
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert ":2:" in str(err.value)


def test_dedup_identical_rows_keep_one(tmp_path):
    same = row(1, addr(1), addr(2))
    path = write_fixture(tmp_path, "ethereum.csv", [same, same])
    store = FixtureStore.load_dir(tmp_path)
    records = FixtureChainClient(store).fetch_transactions(addr(1))
    assert len(records) == 1


def test_same_hash_native_and_token_rows_both_kept():
    native = make_tx(1, addr(1), addr(2), value="5")
    token = make_tx(1, addr(1), addr(2), value="7", token="USDT")
    out = dedup_and_sort([native, token])
    assert len(out) == 2


def test_same_hash_transfers_differing_in_value_both_kept():
    five = make_tx(1, addr(1), addr(2), value="5", token="USDT")
    seven = make_tx(1, addr(1), addr(2), value="7", token="USDT")
    assert dedup_and_sort([five, seven, five]) == [five, seven]


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
    assert all(addr(2) in (r.from_addr, r.to_addr) for r in records)


def reachable_strings(root):
    """Every str the garbage collector can reach from `root`."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.append(obj)
        elif not isinstance(obj, type):
            stack.extend(gc.get_referents(obj))
            if isinstance(obj, dict):
                stack.extend(obj.keys())  # get_referents skips an all-str-key dict's keys
    return found


def test_reachable_strings_sees_text_held_only_as_a_dict_key():
    key = "".join(["held-only", "-as-a-key"])
    assert key in reachable_strings([{key: 1}])


def test_rows_are_built_only_when_fetched(tmp_path):
    lines = [row(1, addr(1), addr(2)), row(2, addr(2), addr(3)), row(3, addr(4), addr(5))]
    write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    assert len(store.records_by_chain["ethereum"]) == 3
    assert not any(tx_hash(n) in s for n in (1, 2, 3) for s in reachable_strings(store))
    first = store.records_for(addr(2))
    assert [r.hash for r in first] == [tx_hash(1), tx_hash(2)]
    # the store keeps no record it built
    assert len(store.records_by_chain["ethereum"]) == 3
    assert not any(tx_hash(n) in s for n in (1, 2, 3) for s in reachable_strings(store))
    again = store.records_for(addr(2))
    assert again == first and not any(a is b for a, b in zip(again, first))
    assert first[0].to_addr is first[1].from_addr is again[0].to_addr  # one Address object per hex


def two_line_row(n, src, dst, **fields):
    """A row csv reads across two lines: its quoted input field holds a line
    break. It is not canonical, so the load takes the checked path for it."""
    values = row(n, src, dst, **fields).split(",")
    values[FIXTURE_COLUMNS.index("input")] = '"0xab\ncd"'
    return ",".join(values)


def test_a_two_line_row_is_kept_as_its_span_and_rebuilt_on_each_fetch(tmp_path):
    lines = [row(1, addr(1), addr(2)), two_line_row(2, addr(2), addr(3)), row(3, addr(3), addr(1))]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    source = store.records_by_chain["ethereum"]
    assert len(source) == 3 and source.irregular == {1}
    assert str(path) in reachable_strings(store)  # the walk reaches the file

    def kept_hashes():
        return [n for n in (1, 2, 3) if any(tx_hash(n) in s for s in reachable_strings(store))]

    assert kept_hashes() == []
    first = store.records_for(addr(2))
    assert first == [r for r in reference_load(path) if addr(2) in (r.from_addr, r.to_addr)]
    assert first[1].input == "0xab\ncd"
    assert kept_hashes() == []
    again = store.records_for(addr(2))
    assert again == first and again[1] is not first[1]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_rows_read_back_by_byte_span_equal_the_checked_build(tmp_path, ending):
    """Spans stay exact after multi-byte UTF-8 text, a blank line and a quoted
    record spanning two lines, whatever the line ending."""
    lines = [
        row(1, addr(1), addr(2), token="ÜSD₮"),
        row(2, addr(2), addr(0xABC), token="稳定币", contract=addr(0xABC).hex),
        "",
        two_line_row(5, addr(2), addr(1)),
        row(3, addr(0xABC), addr(1), token="€"),
        row(4, addr(1), addr(1), token="USDT"),
    ]
    assert_loader_agrees(tmp_path, lines, ending)
    store = FixtureStore.load_dir(tmp_path)
    assert len(store.records_by_chain["ethereum"]) == 5
    assert store.records_by_chain["ethereum"].irregular == {2}


def append_a_row(path):
    with path.open("a", encoding="utf-8") as fh:
        fh.write(row(9, addr(2), addr(1)) + "\n")


def truncate_the_last_row(path):
    os.truncate(path, path.stat().st_size - 10)


def uppercase_a_row_keeping_size_and_mtime(path):
    stat = path.stat()
    path.write_bytes(path.read_bytes().replace(addr(3).hex.encode(), addr(3).hex.upper().encode()))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def replace_by_rename_keeping_size_and_mtime(path):
    """Another address of equal width: the copy is as long as the original
    and every row in it is still canonical."""
    stat = path.stat()
    copy = path.with_name(path.name + ".new")
    copy.write_bytes(path.read_bytes().replace(addr(3).hex.encode(), addr(4).hex.encode()))
    os.utime(copy, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert copy.stat().st_size == stat.st_size
    os.replace(copy, path)


@pytest.mark.parametrize(
    "edit",
    [
        append_a_row,
        truncate_the_last_row,
        uppercase_a_row_keeping_size_and_mtime,
        replace_by_rename_keeping_size_and_mtime,
        Path.unlink,
    ],
)
def test_a_fixture_edited_after_the_load_fails_the_fetch_naming_it(tmp_path, edit):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2)), row(2, addr(2), addr(3))])
    store = FixtureStore.load_dir(tmp_path)
    edit(path)
    with pytest.raises(ParseError) as err:
        store.records_for(addr(2))
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "old, new",
    [
        (b",2222,", b",22x2,"),  # value no longer digits
        (addr(3).hex.encode(), addr(3).hex[:-1].encode() + b"g"),  # sender no longer hex
        (b"0xab", b"0x\xff\xfe"),  # no longer UTF-8
        (b'"10\n"', b'10\n""'),  # a valid record, then a second one
        (b'"0xab\ncd"', b"0xab,cd  "),  # seventeen columns
    ],
)
def test_a_two_line_row_made_malformed_at_the_same_size_and_mtime_fails_the_fetch(tmp_path, old, new):
    # the quoted confirmations hold a line break, which int() ignores
    irregular = two_line_row(2, addr(3), addr(2), value="2222").removesuffix(",10") + ',"10\n"'
    lines = [row(1, addr(1), addr(2)), irregular]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    store = FixtureStore.load_dir(tmp_path)
    stat = path.stat()
    data = path.read_bytes()
    assert data.count(old) == 1 and len(old) == len(new)
    path.write_bytes(data.replace(old, new))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert len(store.records_for(addr(1))) == 1  # the canonical row still reads back
    with pytest.raises(ParseError) as err:
        store.records_for(addr(2))
    assert str(path) in str(err.value)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_store_holds_no_file_open(tmp_path):
    write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2)), row(2, addr(2), addr(3))])
    write_fixture(tmp_path, "bsc.csv", [row(3, addr(1, "bsc"), addr(2, "bsc"))])
    before = len(os.listdir("/proc/self/fd"))
    store = FixtureStore.load_dir(tmp_path)
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(store.records_for(addr(2))) == 2
    assert len(os.listdir("/proc/self/fd")) == before


def test_threads_fetching_together_read_back_every_row_right(tmp_path):
    accounts = [addr(n) for n in range(1, 41)]
    lines = [row(n, accounts[n % 40], accounts[(3 * n + 1) % 40], token="稳定币") for n in range(400)]
    path = write_fixture(tmp_path, "ethereum.csv", lines)
    expected = reference_load(path)
    results: dict = {}

    def fetch_all(worker):
        results[worker] = {a: store.records_for(a) for a in accounts[worker % 4 :] + accounts[: worker % 4]}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        store = FixtureStore.load_dir(tmp_path)
        threads = [threading.Thread(target=fetch_all, args=(worker,)) for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(store.records_by_chain["ethereum"]) == len(expected)
    finally:
        sys.setswitchinterval(switch)
    assert len(results) == 8
    for fetched in results.values():
        assert fetched == {a: [r for r in expected if a in (r.from_addr, r.to_addr)] for a in accounts}


ROWS_N, ADDRESSES_N = 20_000, 2_000


def scaled_fixture(tmp_path):
    """A 20k-row fixture, ten rows per address as in the scaled benchmark
    graph; a line is ~230 bytes of text."""
    lines = [
        row(n, addr(n % ADDRESSES_N + 1), addr((7 * n + 1) % ADDRESSES_N + 1),
            value=str(10**18 + n), ts=1_700_000_000 + n, block=18_000_000 + n, token="USDT")
        for n in range(ROWS_N)
    ]
    write_fixture(tmp_path, "ethereum.csv", lines)


def retained_bytes(action):
    """What `action()` returns, and the bytes still allocated once it has."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = action()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_loaded_row_costs_its_span_and_index_entries_not_its_text(tmp_path):
    """Under 60 bytes per row: span, row slot and two 4-byte index entries,
    each address's key and index array once."""
    scaled_fixture(tmp_path)
    store, retained = retained_bytes(lambda: FixtureStore.load_dir(tmp_path))
    assert len(store.records_by_chain["ethereum"]) == ROWS_N
    assert retained / ROWS_N < 60


def test_fetching_every_address_keeps_no_record(tmp_path):
    """After every address is fetched, the store has grown by its interned
    Addresses only: under 90 bytes per row in all (a kept record is over 1 kB)."""
    scaled_fixture(tmp_path)

    def load_and_fetch_all():
        store = FixtureStore.load_dir(tmp_path)
        fetched = sum(len(store.records_for(a)) for a in store.all_addresses("ethereum"))
        return store, fetched

    (store, fetched), retained = retained_bytes(load_and_fetch_all)
    assert fetched == 2 * ROWS_N  # every row has two distinct addresses
    assert retained / ROWS_N < 90


def test_unknown_chain(tmp_path):
    write_fixture(tmp_path, "ethereum.csv", [row(1, addr(1), addr(2))])
    store = FixtureStore.load_dir(tmp_path)
    with pytest.raises(UnknownChain):
        FixtureChainClient(store).fetch_transactions(addr(1, "bsc"))


def test_self_transfer_indexed_once(tmp_path):
    path = write_fixture(tmp_path, "ethereum.csv", [row(1, addr(7), addr(7))])
    store = FixtureStore.load_dir(path.parent)
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
        for line_no in itertools.count(1):
            try:
                values = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
            if line_no == 1:
                continue  # the header
            if not values or (len(values) == 1 and not values[0].strip()):
                continue
            if len(values) != len(FIXTURE_COLUMNS):
                raise ParseError(f"{path}:{line_no}: expected 16 columns, got {len(values)}")
            try:
                records.append(_row_to_record(values, chain))
            except (ValueError, ArithmeticError, MalformedAddress) as exc:
                raise ParseError(f"{path}:{line_no}: bad fixture row: {exc}") from exc
    return records


def test_a_field_over_the_csv_limit_fails_the_load_naming_its_line(tmp_path):
    huge = row(2, addr(2), addr(3), token="A" * 200_000)
    path = write_fixture(tmp_path, "ethereum.csv", [huge])
    with pytest.raises(ParseError) as got:
        FixtureStore.load_dir(tmp_path)
    assert str(got.value).startswith(f"{path}:2: bad fixture row: field larger than field limit")
    assert_loader_agrees(tmp_path, [row(1, addr(1), addr(2)), huge])  # named at line 3 by both


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
        assert store.records_for(account) == [r for r in expected if account in (r.from_addr, r.to_addr)]


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
