"""Live REST adapter against an in-process stub: paging, cache, retries."""

import sys
import threading
import time

import pytest

from conftest import addr
from risktagger.chaindata import EtherscanClient, FetchCache
from risktagger.errors import ChainUnavailable, RateLimited, UnknownChain
from stub_chain_server import StubChainServer, native_row, token_row

CENTER = addr(0x500)
PEERS = [addr(0x600 + i) for i in range(5)]


def five_rows():
    return [native_row(i + 1, CENTER.hex, PEERS[i].hex, ts=1_740_000_000 + i, block=10 + i) for i in range(5)]


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


def test_http_429_raises_rate_limited():
    with StubChainServer({}, fail_first=[429] * 10) as srv:
        with pytest.raises(RateLimited):
            client_for(srv).fetch_transactions(CENTER)


def test_throttle_spaces_requests_across_threads():
    pages = {(peer.hex, "txlist", 1): five_rows() for peer in PEERS}
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
    assert min(gaps) >= client.min_interval_s - 0.03, gaps


def test_http_429_waits_for_retry_after():
    pages = {(CENTER.hex, "txlist", 1): five_rows()}
    with StubChainServer(pages, fail_first=[429], retry_after="1") as srv:
        records = client_for(srv, backoff_base_s=0.01).fetch_transactions(CENTER)
        times = srv.request_times
    assert len(records) == 5
    assert times[1] - times[0] >= 1.0


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
