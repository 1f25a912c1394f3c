"""Live REST adapter against an in-process stub: paging, cache, retries, and
its rows built by the shared checked builder exactly as its own builder did."""

import json
import os
import random
import re
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import addr, labels_in
from risktagger import upstream
from risktagger.chaindata import FIXTURE_COLUMNS, EtherscanClient, FetchCache
from risktagger.errors import ChainUnavailable, RateLimited, UnknownChain
from risktagger.model import TracerConfig, TransactionRecord, normalize_address
from risktagger.reasoner import RuleBackend
from risktagger.tracer import TracerPorts, trace
from risktagger.translator import build_subgraph, to_reasoner_payload
from risktagger.upstream import Upstream
from stub_chain_server import LimitedFirst, StubChainServer, native_row, token_row

CENTER = addr(0x500)
PEERS = [addr(0x600 + i) for i in range(5)]


def five_rows(account=CENTER):
    """Five transfers out of `account`, as its own page lists them."""
    return [native_row(i + 1, account.hex, PEERS[i].hex, ts=1_740_000_000 + i, block=10 + i) for i in range(5)]


def client_for(server, cache=None, page_size=1000, **kw):
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("rate_limit_per_s", 0.0)  # no throttling in tests
    return EtherscanClient(
        server.url, "ethereum", api_key="test", cache=cache, page_size=page_size, **kw
    )


def test_pagination_merge_equals_single_page():
    rows = five_rows()
    paged = {
        (CENTER.hex, "txlist", 1): rows[:2],
        (CENTER.hex, "txlist", 2): rows[2:4],
        (CENTER.hex, "txlist", 3): rows[4:],
    }
    single = {(CENTER.hex, "txlist", 1): rows}
    with StubChainServer(paged) as paged_srv, StubChainServer(single) as single_srv:
        got_paged = client_for(paged_srv, page_size=2).fetch_transactions(CENTER)
        got_single = client_for(single_srv).fetch_transactions(CENTER)
    assert got_paged == got_single
    assert len(got_paged) == 5


def test_native_and_token_actions_merged_and_sorted():
    pages = {
        (CENTER.hex, "txlist", 1): [native_row(2, CENTER.hex, PEERS[0].hex, block=20)],
        (CENTER.hex, "tokentx", 1): [token_row(1, PEERS[1].hex, CENTER.hex, "USDT", "500", block=10)],
    }
    with StubChainServer(pages) as srv:
        records = client_for(srv).fetch_transactions(CENTER)
    assert [r.blockNumber for r in records] == [10, 20]
    assert records[0].tokenSymbol == "USDT"
    assert records[0].contractAddress is not None
    assert records[1].tokenSymbol == ""


def test_warm_cache_issues_zero_requests(tmp_path):
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    cache = FetchCache(tmp_path / "cache")
    with StubChainServer(pages) as srv:
        first = client_for(srv, cache=cache).fetch_transactions(CENTER)
        cold_count = srv.request_count
        assert cold_count > 0
        second = client_for(srv, cache=cache).fetch_transactions(CENTER)
        assert srv.request_count == cold_count  # zero upstream traffic
    assert first == second


def test_cache_layout_on_disk(tmp_path):
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    cache = FetchCache(tmp_path / "cache")
    with StubChainServer(pages) as srv:
        client_for(srv, cache=cache).fetch_transactions(CENTER)
    expected = tmp_path / "cache" / "ethereum" / CENTER.hex / "txlist_p1.json"
    assert expected.is_file()


def test_a_write_racing_another_instance_on_the_same_root_keeps_a_whole_page(tmp_path, monkeypatch):
    first, second = FetchCache(tmp_path / "cache"), FetchCache(tmp_path / "cache")
    replace = os.replace
    raced = []

    def interleaved(src, dst):
        # the other instance writes the same key between this write and its rename
        if not raced:
            raced.append(src)
            second.put("ethereum", CENTER.hex, "txlist_p1", b'{"writer": "second"}')
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    first.put("ethereum", CENTER.hex, "txlist_p1", b'{"writer": "first"}')
    assert raced
    page = first.get("ethereum", CENTER.hex, "txlist_p1")
    assert page in (b'{"writer": "first"}', b'{"writer": "second"}')
    assert [p.name for p in (tmp_path / "cache" / "ethereum" / CENTER.hex).iterdir()] == ["txlist_p1.json"]


class YieldingCount(int):
    """An int whose += yields the interpreter lock mid-update, widening the
    window in which an unlocked read-modify-write loses increments."""

    def __add__(self, other):
        time.sleep(0)
        return YieldingCount(int(self) + other)


def test_cache_counters_exact_under_threads(tmp_path):
    cache = FetchCache(tmp_path / "cache")
    cache.put("ethereum", CENTER.hex, "txlist_p1", b"{}")
    cache.hits, cache.misses = YieldingCount(0), YieldingCount(0)
    threads, rounds = 16, 200
    start = threading.Barrier(threads)

    def hammer():
        start.wait()
        for _ in range(rounds):
            cache.get("ethereum", CENTER.hex, "txlist_p1")
            cache.get("ethereum", CENTER.hex, "absent_p1")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert (cache.hits, cache.misses) == (threads * rounds, threads * rounds)


def test_retry_then_success():
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    with StubChainServer(pages, fail_first=[500]) as srv:
        records = client_for(srv).fetch_transactions(CENTER)
        assert len(records) == 5
        assert srv.request_count >= 2


def test_persistent_failure_exhausts_retries():
    with StubChainServer({}, fail_first=[500] * 10) as srv:
        with pytest.raises(ChainUnavailable):
            client_for(srv).fetch_transactions(CENTER)
        assert srv.request_count == 3  # the documented retry budget


def test_rate_limit_message_raises_typed_error():
    pages = {(CENTER.hex, "txlist", 1): "RATE_LIMIT"}
    with StubChainServer(pages) as srv:
        with pytest.raises(RateLimited):
            client_for(srv).fetch_transactions(CENTER)
        assert srv.request_count == 3  # the documented retry budget


def test_a_page_rate_limited_once_in_its_body_is_retried_and_cached_as_served(tmp_path):
    cache = FetchCache(tmp_path / "cache")
    pages = {(CENTER.hex, "txlist", 1): LimitedFirst(1, five_rows())}
    with StubChainServer(pages) as srv:
        records = client_for(srv, cache=cache).fetch_transactions(CENTER)
        assert srv.request_count == 3  # txlist twice, tokentx once
    assert len(records) == 5
    assert json.loads(cache.get("ethereum", CENTER.hex, "txlist_p1"))["result"] == five_rows()


def test_a_page_rate_limited_in_its_body_on_every_request_is_never_cached(tmp_path):
    cache = FetchCache(tmp_path / "cache")
    pages = {(CENTER.hex, "txlist", 1): "RATE_LIMIT"}
    with StubChainServer(pages) as srv:
        with pytest.raises(RateLimited, match="Max rate limit reached"):
            client_for(srv, cache=cache).fetch_transactions(CENTER)
        assert [r["action"] for r in srv.requests] == ["txlist"] * 3
    assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]


@pytest.mark.parametrize("action", ["txlist", "tokentx"])
def test_a_cached_rate_limit_page_raises_like_a_fresh_one(tmp_path, action):
    cache = FetchCache(tmp_path / "cache")
    empty = {"status": "0", "message": "No transactions found", "result": []}
    limited = {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"}
    for kind in ("txlist", "tokentx"):
        cache.put("ethereum", CENTER.hex, f"{kind}_p1", json.dumps(limited if kind == action else empty).encode())
    with StubChainServer({}) as srv:
        with pytest.raises(RateLimited, match="Max rate limit reached"):
            client_for(srv, cache=cache).fetch_transactions(CENTER)
        assert srv.request_count == 0
    assert cache.misses == 0


def test_http_429_raises_rate_limited():
    with StubChainServer({}, fail_first=[429] * 10) as srv:
        with pytest.raises(RateLimited):
            client_for(srv).fetch_transactions(CENTER)


def test_throttle_spaces_requests_across_threads():
    pages = {(peer.hex, "txlist", 1): five_rows(peer) for peer in PEERS}
    threads = 8
    start = threading.Barrier(threads)
    with StubChainServer(pages) as srv:
        client = client_for(srv, rate_limit_per_s=10.0)

        def fetch(i):
            start.wait()
            client.fetch_transactions(PEERS[i % len(PEERS)])

        workers = [threading.Thread(target=fetch, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        times = sorted(srv.request_times)
    assert not any(worker.is_alive() for worker in workers)
    assert len(times) == threads * 2  # txlist and tokentx per fetch
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    # the tolerance absorbs scheduling jitter between a request's slot and its arrival
    assert min(gaps) >= client.upstream.min_interval_s - 0.03, gaps


class OversleepingClock:
    """Stands in for the upstream's time module across threads: a sleep moves
    the clock on to its end at once, except the first sleep of the `late`
    thread, which returns only once `wake` is set and ends `overshoot` s late."""

    def __init__(self, now, overshoot):
        self.now = now
        self.overshoot = overshoot
        self.late = None
        self.asleep = threading.Event()
        self.wake = threading.Event()

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        end = self.now + seconds
        if threading.current_thread() is self.late and not self.asleep.is_set():
            self.asleep.set()
            assert self.wake.wait(timeout=10)
            end += self.overshoot
        self.now = max(self.now, end)


def test_a_request_that_oversleeps_its_slot_leaves_an_interval_after_the_last_one(monkeypatch):
    clock = OversleepingClock(now=100.0, overshoot=1.5)
    monkeypatch.setattr(upstream, "time", clock)
    departures = []

    class Session:
        def get(self, url, timeout):
            departures.append(clock.now)
            return SimpleNamespace(status_code=200)

    up = Upstream(ChainUnavailable, "chain API", 1.0, 5.0, 0.01, Session())

    def send():
        up.send("GET", "http://chain.test/api", lambda resp: None)

    send()  # leaves at once, at 100
    late = clock.late = threading.Thread(target=send)
    late.start()
    assert clock.asleep.wait(timeout=10)  # holding the slot at 101
    send()  # reserves the slot at 102 and leaves then
    clock.wake.set()  # the late request wakes at 102.5, too close behind
    late.join(timeout=10)
    assert not late.is_alive()
    assert departures == [100.0, 102.0, 103.0]
    assert min(later - earlier for earlier, later in zip(departures, departures[1:])) >= up.min_interval_s


class ShakyClock:
    """Stands in for the upstream's time module across threads: a sleep moves
    the shared clock on by its length, and half the time by up to `max_late`
    s more. `read` holds each thread's latest reading, which for a request
    just handed to the session is the moment it left."""

    def __init__(self, seed, max_late):
        self.now = 1000.0
        self.max_late = max_late
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.read = {}

    def monotonic(self):
        with self.lock:
            self.read[threading.get_ident()] = self.now
            return self.now

    def sleep(self, seconds):
        with self.lock:
            late = self.rng.uniform(0, self.max_late) if self.rng.random() < 0.5 else 0.0
            self.now += seconds + late


@pytest.mark.parametrize("seed", range(3))
def test_requests_of_many_threads_that_oversleep_at_random_leave_an_interval_apart(monkeypatch, seed):
    clock = ShakyClock(seed, max_late=1.5)
    monkeypatch.setattr(upstream, "time", clock)
    departures = []

    class Session:
        def get(self, url, timeout):
            departures.append(clock.read[threading.get_ident()])
            return SimpleNamespace(status_code=200)

    up = Upstream(ChainUnavailable, "chain API", 1.0, 5.0, 0.01, Session())
    start = threading.Barrier(12)

    def sends():
        start.wait()
        for _ in range(5):
            up.send("GET", "http://chain.test/api", lambda resp: None)

    workers = [threading.Thread(target=sends) for _ in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(departures) == 60
    times = sorted(departures)
    # in the throttle's own form: a difference of two clock readings can round below it
    assert all(later >= earlier + up.min_interval_s for earlier, later in zip(times, times[1:]))


def test_http_429_waits_for_retry_after():
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    with StubChainServer(pages, fail_first=[429], retry_after="1") as srv:
        records = client_for(srv, backoff_base_s=0.01).fetch_transactions(CENTER)
        times = srv.request_times
    assert len(records) == 5
    assert times[1] - times[0] >= 1.0


def test_http_429_pauses_every_thread_sharing_the_client():
    pages = {(peer.hex, "txlist", 1): five_rows(peer) for peer in PEERS[:2]}
    start = threading.Barrier(2)
    with StubChainServer(pages, fail_first=[429], retry_after="1") as srv:
        client = client_for(srv, rate_limit_per_s=5.0)

        def fetch(peer):
            start.wait()
            client.fetch_transactions(peer)

        workers = [threading.Thread(target=fetch, args=(peer,)) for peer in PEERS[:2]]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        times = list(srv.request_times)  # arrival order; the first drew the 429
    assert not any(worker.is_alive() for worker in workers)
    assert len(times) == 5  # txlist and tokentx per thread, plus the retry
    offsets = [t - times[0] for t in times[1:]]
    assert min(offsets) >= 1.0, offsets


@pytest.mark.parametrize("form", ["in_body", "http_429"])
def test_a_rate_limit_without_retry_after_pauses_every_thread_for_the_backoff(form):
    # the other thread starts once the first has drawn the limit, so only the
    # shared pause, not its own backoff, can hold its first request back
    pages = {(peer.hex, "txlist", 1): five_rows(peer) for peer in PEERS[:2]}
    if form == "in_body":
        pages[(PEERS[0].hex, "txlist", 1)] = LimitedFirst(1, five_rows(PEERS[0]))
    with StubChainServer(pages, fail_first=[429] if form == "http_429" else []) as srv:
        client = client_for(srv, backoff_base_s=0.5)
        first = threading.Thread(target=client.fetch_transactions, args=(PEERS[0],))
        first.start()
        deadline = time.monotonic() + 10
        while not client.upstream._pause_until and time.monotonic() < deadline:
            time.sleep(0.01)  # until the first thread has noted the limit's pause
        assert len(client.fetch_transactions(PEERS[1])) == 5
        first.join(timeout=10)
        times = list(srv.request_times)  # arrival order; the first drew the limit
    assert not first.is_alive()
    assert len(times) == 5  # txlist and tokentx per thread, plus the retry
    offsets = [t - times[0] for t in times[1:]]
    assert min(offsets) >= 0.5, offsets


def test_http_429_beyond_the_retry_budget_fails_at_once(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    with StubChainServer(pages, fail_first=[429], retry_after="86400") as srv:
        client = client_for(srv, timeout_s=5.0)
        with pytest.raises(ChainUnavailable, match="86400"):
            client.fetch_transactions(CENTER)
        assert len(srv.request_times) == 1
    assert sum(sleeps) == 0  # the unthrottled client's zero wait before its one request


def test_wrong_chain_rejected():
    with StubChainServer({}) as srv:
        with pytest.raises(UnknownChain):
            client_for(srv).fetch_transactions(addr(1, "bsc"))


def test_malformed_row_dropped_with_diagnostic():
    bad = native_row(3, CENTER.hex, PEERS[0].hex)
    bad["to"] = ""  # contract creation; cannot become an Address
    pages = {(CENTER.hex, "txlist", 1): [bad, native_row(4, CENTER.hex, PEERS[1].hex)]}
    with StubChainServer(pages) as srv:
        client = client_for(srv)
        records = client.fetch_transactions(CENTER)
    assert len(records) == 1
    assert any(d["kind"] == "dropped_row" for d in client.diagnostics)


def test_a_row_that_does_not_touch_the_account_is_dropped_with_diagnostic():
    """A misbehaving page lists another account's transfer: it is dropped,
    and neither the account's records nor its payload hold it."""
    foreign = native_row(3, PEERS[0].hex, PEERS[1].hex)
    kept = native_row(4, PEERS[2].hex, CENTER.hex)
    pages = {(CENTER.hex, "txlist", 1): [foreign, kept]}
    with StubChainServer(pages) as srv:
        client = client_for(srv)
        records = client.fetch_transactions(CENTER)
    assert [r.hash for r in records] == [kept["hash"]]
    [dropped] = [d for d in client.diagnostics if d["kind"] == "dropped_row"]
    assert foreign["hash"] in dropped["reason"] and CENTER.hex in dropped["reason"]
    payload = to_reasoner_payload(build_subgraph(CENTER, records, [], TracerConfig(), 1_740_000_100))
    assert kept["hash"] in payload and PEERS[2].hex in payload
    assert foreign["hash"] not in payload and PEERS[0].hex not in payload and PEERS[1].hex not in payload


def test_a_row_valued_2_256_or_more_is_dropped_and_the_rest_kept():
    rows = five_rows()
    rows[1]["value"] = str(2**256)
    rows[3]["value"] = "1" * 5000
    rows[4]["value"] = str(2**256 - 1)
    with StubChainServer({(CENTER.hex, "txlist", 1): rows}) as srv:
        client = client_for(srv)
        records = client.fetch_transactions(CENTER)
    assert [r.to_addr for r in records] == [PEERS[0], PEERS[2], PEERS[4]]
    assert records[-1].value == 2**256 - 1
    dropped = [d["reason"] for d in client.diagnostics if d["kind"] == "dropped_row"]
    assert len(dropped) == 2 and all("2**256" in reason for reason in dropped)


def test_a_row_dated_past_9999_is_dropped_and_the_rest_kept():
    """The trace would die formatting its date; the last second of 9999,
    which takes the checked path, is kept."""
    rows = five_rows()
    rows[1]["timeStamp"] = "253402300800"
    rows[3]["timeStamp"] = 253402300800  # a JSON number
    rows[4]["timeStamp"] = "253402300799"
    with StubChainServer({(CENTER.hex, "txlist", 1): rows}) as srv:
        client = client_for(srv)
        records = client.fetch_transactions(CENTER)
    assert [r.to_addr for r in records] == [PEERS[0], PEERS[2], PEERS[4]]
    dropped = [d["reason"] for d in client.diagnostics if d["kind"] == "dropped_row"]
    reason = "timeStamp must be positive and at most 253402300799 (9999-12-31T23:59:59Z), got 253402300800"
    assert dropped == [reason, reason]
    payload = to_reasoner_payload(build_subgraph(CENTER, records, [], TracerConfig(), 1_740_000_100))
    assert "9999-12-31T23:59:59+00:00" in payload


@pytest.mark.parametrize(
    "body, error",
    [
        (b"[]", "JSON list, not an object"),
        (b'"Invalid API Key"', "JSON str, not an object"),
        (b"null", "JSON NoneType, not an object"),
        # a bare number past int()'s digit limit fails json.loads with a ValueError
        (b'{"status": "1", "result": [' + b"1" * 5000 + b"]}", "unparseable upstream response"),
    ],
    ids=["list", "str", "null", "5000-digit-number"],
)
def test_a_body_that_is_not_a_json_object_is_chain_unavailable(body, error):
    with StubChainServer({(CENTER.hex, "txlist", 1): body}) as srv:
        with pytest.raises(ChainUnavailable, match=error):
            client_for(srv).fetch_transactions(CENTER)


def test_a_page_whose_body_is_not_an_object_makes_the_account_a_recorded_skip(tmp_path):
    with StubChainServer({(CENTER.hex, "txlist", 1): b"[]"}) as srv:
        ports = TracerPorts(client=client_for(srv), backend=RuleBackend(), now=1_740_000_000, out_dir=tmp_path)
        state = trace([CENTER], "ethereum", TracerConfig(D=1), ports)
    assert state.labeled == 0 and labels_in(tmp_path) == []
    assert [(e["address"], e["error"]) for e in state.diagnostics["errors"]] == [(CENTER.hex, "ChainUnavailable")]


def test_truncation_diagnostic_at_page_cap():
    rows = five_rows()
    pages = {
        (CENTER.hex, "txlist", 1): rows[:2],
        (CENTER.hex, "txlist", 2): rows[2:4],
    }
    with StubChainServer(pages) as srv:
        client = client_for(srv, page_size=2, max_pages=2)
        client.fetch_transactions(CENTER)
    assert any(d["kind"] == "truncated_fetch" for d in client.diagnostics)


# --- the shared builder against the adapter's former row builder ----------------


class FormerRowBuilder:
    """The live adapter's own row builder before rows went through the shared
    builder, kept as the reference. Records have since dropped six columns;
    the checks those columns had, in the builder and in the record, are
    spelled out here, so the reference refuses what it always did."""

    def __init__(self, chain):
        self.chain = chain
        self.diagnostics = []

    def _row_to_record(self, row: dict, action: str) -> TransactionRecord | None:
        try:
            contract = (row.get("contractAddress") or "").strip()
            if int(row.get("nonce", 0) or 0) < 0 or int(row.get("confirmations", 0) or 0) < 0:
                raise ValueError("nonce and confirmations must be non-negative")
            (row.get("blockHash") or "").strip()  # a blockHash that is not a string fails here
            for column in ("gas", "gasPrice", "gasUsed"):
                if not re.match(r"^[0-9]+$", str(row.get(column, "0") or "0").strip()):
                    raise ValueError(f"{column} must be a non-negative decimal integer string")
            value = str(row.get("value", "0")).strip()
            if not re.match(r"^[0-9]+$", value):
                raise ValueError("value must be a non-negative decimal integer string")
            return TransactionRecord(
                hash=row["hash"],
                from_addr=normalize_address(row["from"], self.chain),
                to_addr=normalize_address(row["to"], self.chain),
                value=int(value),
                timeStamp=int(row["timeStamp"]),
                blockNumber=int(row["blockNumber"]),
                tokenSymbol=(row.get("tokenSymbol") or "").strip() if action == "tokentx" else "",
                contractAddress=normalize_address(contract, self.chain) if contract else None,
                isError=str(row.get("isError", "0")).strip() == "1",
                input=(row.get("input") or "0x").strip() or "0x",
            )
        except Exception as exc:
            # live data is messy (contract creations have empty `to`); drop the
            # row but leave a trace for the diagnostics file
            self.diagnostics.append(
                {"kind": "dropped_row", "chain": self.chain, "reason": str(exc)[:200]}
            )
            return None


class OnePageSession:
    """A session answering each action's first page with canned rows, as JSON."""

    def __init__(self, rows_by_action):
        self.rows_by_action = rows_by_action
        self.actions = []  # the action of each request, in order

    def get(self, url, params, timeout):
        self.actions.append(params["action"])
        rows = self.rows_by_action.get(params["action"], [])
        body = {"status": "1", "message": "OK", "result": rows} if rows else {
            "status": "0", "message": "No transactions found", "result": []
        }
        return SimpleNamespace(status_code=200, content=json.dumps(body).encode(), headers={}, text="")


# every column filled, with letters in the hex so that case matters; the
# account fetched is its sender, as an account's own page lists its rows
SENDER = addr(0xABCDEF)
FULL_ROW = token_row(0xBEEF, SENDER.hex, addr(0xFEDCBA).hex, "USDT", "123", contract=addr(0xC0FFEE).hex)
FULL_ROW.update(isError="0", input="0xa9059cbb")
NATIVE_ROW = {k: v for k, v in FULL_ROW.items() if k not in ("tokenSymbol", "tokenName", "tokenDecimal")}
NATIVE_ROW.update(contractAddress="", input="0x")
MUTATE = {
    "empty": lambda v: "",
    "lead": lambda v: " " + v,
    "trail": lambda v: v + "\n",
    "comma": lambda v: v + ",x",
    "quote": lambda v: '"' + v + '"',
    "upper": str.upper,
    "upper_digits": lambda v: v[:2] + v[2:].upper(),
    "zeros": lambda v: "00" + v,
}
SIDES = ("from", "to", "self")


def with_side(row, side):
    """A copy of a row of SENDER's, SENDER being its sender, its receiver
    (the counterparty sending) or both."""
    if side == "to":
        return dict(row, **{"from": row["to"], "to": SENDER.hex})
    return dict(row, to=SENDER.hex) if side == "self" else dict(row)


CANONICAL_ROWS = [with_side(row, side) for row in (FULL_ROW, NATIVE_ROW) for side in SIDES]
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2.5, 1.74e9, float("nan")]), st.integers(-2, 2**70)
)


@st.composite
def explorer_row(draw):
    """A txlist or tokentx row, the account fetched its sender, its receiver
    or both, with up to three fields missing, None, a JSON number or
    boolean, or mutated: empty, edge whitespace, a comma, quotes, uppercase
    hex. With none of these the row is in canonical form."""
    action = draw(st.sampled_from(["txlist", "tokentx"]))
    side = draw(st.sampled_from(SIDES))
    full = with_side(FULL_ROW, side)
    row = with_side(draw(st.sampled_from([FULL_ROW, NATIVE_ROW])), side)
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(FIXTURE_COLUMNS))
        kind = draw(st.sampled_from(["missing", "odd"] + list(MUTATE)))
        if kind == "missing":
            row.pop(column, None)
        elif kind == "odd":
            row[column] = draw(ODD_VALUES)
        else:
            row[column] = MUTATE[kind](full[column])
    return action, row


@settings(max_examples=500, deadline=None)
@given(case=explorer_row())
def test_live_rows_decode_as_the_former_builder_did(case):
    action, row = case
    former = FormerRowBuilder("ethereum")
    expected = former._row_to_record(row, action)
    client = EtherscanClient(
        "http://explorer.test/api", "ethereum", api_key="k",
        session=OnePageSession({action: [row]}), rate_limit_per_s=0.0,
    )
    records = client.fetch_transactions(SENDER)
    assert records == ([] if expected is None else [expected])
    dropped = [d for d in client.diagnostics if d["kind"] == "dropped_row"]
    assert len(dropped) == len(former.diagnostics)
    if row in CANONICAL_ROWS:
        # the canonical-row path: the fetched side is the fetched Address itself
        [record] = records
        sides = [a for a in (record.from_addr, record.to_addr) if a == SENDER]
        assert sides and all(a is SENDER for a in sides)


def test_an_injected_session_is_the_one_used():
    session = OnePageSession({"txlist": five_rows()})
    client = EtherscanClient(
        "http://explorer.test/api", "ethereum", api_key="k", session=session, rate_limit_per_s=0.0
    )
    assert len(client.fetch_transactions(CENTER)) == 5
    assert client.upstream.session is session
    assert session.actions == ["txlist", "tokentx"]
