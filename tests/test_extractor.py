"""Chunking, pattern extraction, and consolidation behavior."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from risktagger.errors import EmptyDocument
from risktagger.extractor import (
    CaseClues,
    ChunkSummary,
    DocumentChunk,
    LlmExtractor,
    PatternExtractor,
    consolidate,
    extract_case_clues,
    split_document,
    summarize_chunk,
)

BYBIT_DOC = (FIXTURES / "bybit_incident.txt").read_text()

GOLD = {
    "chain": "ethereum",
    "attack_vector": (
        "Supply chain compromise via malicious JavaScript injection in "
        "Safe{Wallet} frontend. DELEGATECALL-based contract logic hijacking."
    ),
    "affected_platform": "Bybit (via compromised Safe{Wallet} infrastructure)",
    "contract_address": [
        "0xbdd077f651ebe7f7b3ce16fe5f2b025be2969516",
        "0x96221423681a6d52e184d440a8efcebb105c7242",
    ],
    "attacker_addresses": ["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"],
    "victim_addresses": ["0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4"],
    "stolen_usd": 1500000000,
    "stolen_token": {"ETH": "401000", "stETH": "90000", "mETH": "8000", "cmETH": "15000"},
}


# --- chunking -------------------------------------------------------------------


def test_three_paragraphs_pack_into_two_chunks():
    paragraphs = ["a" * 400, "b" * 400, "c" * 400]
    text = "\n\n".join(paragraphs)
    chunks = split_document(text, max_chunk_chars=1000)
    assert [c.chunk_id for c in chunks] == [1, 2]
    assert chunks[0].text == paragraphs[0] + "\n\n" + paragraphs[1]
    assert chunks[1].text == "\n\n" + paragraphs[2]


def test_short_text_single_chunk():
    chunks = split_document("just one line of text")
    assert len(chunks) == 1
    assert chunks[0].chunk_id == 1
    assert chunks[0].text == "just one line of text"


@pytest.mark.parametrize("text", ["", "   \n\n  \t\n"])
def test_empty_document_rejected(text):
    with pytest.raises(EmptyDocument):
        split_document(text)


def test_tiny_limit_rejected():
    with pytest.raises(ValueError):
        split_document("some text", max_chunk_chars=100)


def test_oversized_paragraph_splits_at_sentences():
    sentence = "word " * 17 + "end."  # 89 chars
    text = " ".join([sentence] * 8)  # one paragraph, 719 chars
    chunks = split_document(text, max_chunk_chars=200)
    assert len(chunks) > 1
    assert "".join(c.text for c in chunks) == text
    assert all(len(c.text) <= 200 for c in chunks)


@settings(max_examples=60)
@given(
    st.lists(
        st.text(alphabet="abc .!\n", min_size=1, max_size=240).filter(lambda s: s.strip()),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["\n\n", "\n  \n", "\n\n\n"]),
    st.integers(min_value=200, max_value=600),
)
def test_chunks_rebuild_source_exactly(paragraphs, sep, limit):
    text = sep.join(paragraphs)
    chunks = split_document(text, max_chunk_chars=limit)
    assert "".join(c.text for c in chunks) == text
    assert [c.chunk_id for c in chunks] == list(range(1, len(chunks) + 1))


# --- pattern extraction ------------------------------------------------------------


def candidates(text):
    chunk = DocumentChunk(1, text)
    return summarize_chunk(chunk, PatternExtractor()).candidate_clues


def test_address_found_and_canonicalized():
    got = candidates("Funds went to the attacker wallet 0x47666FAB8bd0ac7003bce3f5C3585383F09486E2 today.")
    assert got["attacker_addresses"][0][0] == "0x47666fab8bd0ac7003bce3f5c3585383f09486e2"


def test_tx_hash_prefix_never_becomes_address():
    text = (
        "The attacker broadcast transaction "
        "0x46deef0f52e3a983b67abf4714448a41dd7ffd6d32d32da69d62081c68ad7882 first, "
        "then moved funds to the attacker address 0x47666fab8bd0ac7003bce3f5c3585383f09486e2."
    )
    got = candidates(text)
    values = [v for v, _ in got.get("attacker_addresses", [])]
    assert values == ["0x47666fab8bd0ac7003bce3f5c3585383f09486e2"]


@pytest.mark.parametrize(
    "phrase,expected",
    [
        ("losses of $1.5 billion were", "1500000000"),
        ("approximately 1.5 billion US dollars", "1500000000"),
        ("a $950,000 payment", "950000"),
        ("roughly $2.5 million vanished", "2500000"),
        ("about 3 billion USD", "3000000000"),
    ],
)
def test_usd_amounts(phrase, expected):
    got = candidates(f"The report said {phrase} in total.")
    assert (expected) in [v for v, _ in got["stolen_usd"]]


@pytest.mark.parametrize(
    "phrase,symbol,amount",
    [
        ("401,000 ETH", "ETH", "401000"),
        ("8,000 mETH", "mETH", "8000"),
        ("15,000 cmETH", "cmETH", "15000"),
        ("90,000 stETH", "stETH", "90000"),
        ("0.0001 ETH", "ETH", "0.0001"),
    ],
)
def test_token_quantities(phrase, symbol, amount):
    got = candidates(f"They moved {phrase} through bridges.")
    assert f"{symbol}:{amount}" in [v for v, _ in got["stolen_token"]]


def test_meth_is_not_read_as_eth():
    got = candidates("A slice of 8,000 mETH left the wallet.")
    assert [v for v, _ in got["stolen_token"]] == ["mETH:8000"]


def test_chain_gazetteer():
    got = candidates("The theft happened on Ethereum; some funds reached Binance Smart Chain.")
    values = [v for v, _ in got["chain"]]
    assert "ethereum" in values and "bsc" in values


def test_roles_by_nearest_keyword():
    text = (
        "The victim account 0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4 signed it. "
        "A malicious contract 0xbdd077f651ebe7f7b3ce16fe5f2b025be2969516 took over."
    )
    got = candidates(text)
    assert [v for v, _ in got["victim_addresses"]] == ["0x1db92e2eebc8e0c075a02bea49a2935bcd2dfcf4"]
    assert [v for v, _ in got["contract_address"]] == ["0xbdd077f651ebe7f7b3ce16fe5f2b025be2969516"]


def test_address_without_role_keyword_goes_to_evidence():
    text = "Funds later surfaced at 0x00000000000000000000000000000000000000aa before dispersing."
    got = candidates(text)
    assert "attacker_addresses" not in got
    assert "victim_addresses" not in got
    assert "contract_address" not in got
    assert len(got["evidence_snippets"]) == 1
    assert "0x00000000000000000000000000000000000000aa" in got["evidence_snippets"][0][0]


def test_equidistant_role_keywords_are_ambiguous():
    # attacker starts at 0, the address at 43, victim at 86: a perfect tie
    text = "attacker" + " " * 35 + "0x" + "a" * 40 + " victim"
    got = candidates(text)
    assert "attacker_addresses" not in got
    assert "victim_addresses" not in got
    assert got["evidence_snippets"]


def test_labeled_lines():
    text = (
        "Attack vector: JavaScript injection in the signing frontend.\n"
        "Affected platform: ExampleEx custody\n"
        "Laundering methods: mixers; peel chains\n"
        "Laundering path: hot wallet to bridge\n"
    )
    got = candidates(text)
    assert got["attack_vector"][0][0] == "JavaScript injection in the signing frontend."
    assert got["affected_platform"][0][0] == "ExampleEx custody"
    assert [v for v, _ in got["laundering_methods"]] == ["mixers", "peel chains"]
    assert got["laundering_path"][0][0] == "hot wallet to bridge"


def test_snippets_quote_the_chunk():
    chunk = DocumentChunk(1, BYBIT_DOC[:2000])
    summary = summarize_chunk(chunk, PatternExtractor())
    for entries in summary.candidate_clues.values():
        for _, snippet in entries:
            assert snippet in chunk.text


# --- consolidation ------------------------------------------------------------------


def summary_of(chunk_id, **fields):
    s = ChunkSummary(chunk_id)
    for field_name, values in fields.items():
        for v in values:
            s.add(field_name, v, f"snippet {chunk_id}")
    return s


def test_majority_wins_across_chunks():
    summaries = [
        summary_of(1, stolen_usd=["1500000000"]),
        summary_of(2, stolen_usd=["1400000000"]),
        summary_of(3, stolen_usd=["1500000000"]),
    ]
    clues, _ = consolidate(summaries)
    assert clues.stolen_usd == 1500000000


def test_tie_resolved_by_earliest_chunk():
    summaries = [
        summary_of(1, chain=["bsc"]),
        summary_of(2, chain=["ethereum"]),
    ]
    clues, _ = consolidate(summaries)
    assert clues.chain == "bsc"


def test_repeated_mentions_in_one_chunk_count_once():
    # chunk 1 mentions polygon three times; chunks 2 and 3 each say ethereum
    summaries = [
        summary_of(1, chain=["polygon", "polygon", "polygon"]),
        summary_of(2, chain=["ethereum"]),
        summary_of(3, chain=["ethereum"]),
    ]
    clues, _ = consolidate(summaries)
    assert clues.chain == "ethereum"


def test_addresses_dedup_across_chunks():
    a = "0x" + "1" * 40
    b = "0x" + "2" * 40
    summaries = [
        summary_of(1, attacker_addresses=[a], chain=["ethereum"]),
        summary_of(2, attacker_addresses=[a, b]),
    ]
    clues, _ = consolidate(summaries)
    assert [x.hex for x in clues.attacker_addresses] == [a, b]


def test_token_amounts_resolved_per_symbol():
    summaries = [
        summary_of(1, stolen_token=["ETH:401000", "stETH:90000"]),
        summary_of(2, stolen_token=["ETH:400000"]),
        summary_of(3, stolen_token=["ETH:401000"]),
    ]
    clues, _ = consolidate(summaries)
    assert clues.stolen_token == {"ETH": "401000", "stETH": "90000"}


def test_missing_mandatory_fields_reported_not_raised():
    clues, _ = consolidate([summary_of(1, chain=["ethereum"])])
    missing = clues.missing_mandatory()
    assert "chain" not in missing
    assert "attack_vector" in missing
    assert "stolen_usd" in missing
    assert clues.status["attack_vector"] == "missing"


# --- full pipeline -------------------------------------------------------------------


def test_incident_document_yields_gold_values():
    clues, _ = extract_case_clues(BYBIT_DOC)
    got = clues.to_json()
    for field_name, expected in GOLD.items():
        assert got[field_name] == expected, field_name
    assert clues.missing_mandatory() == []


def test_extraction_is_deterministic():
    first = extract_case_clues(BYBIT_DOC)[0].to_json()
    second = extract_case_clues(BYBIT_DOC)[0].to_json()
    assert json.dumps(first) == json.dumps(second)


def test_audit_provenance_points_into_real_chunks():
    chunks = split_document(BYBIT_DOC)
    by_id = {c.chunk_id: c for c in chunks}
    clues, audit = extract_case_clues(BYBIT_DOC)
    assert set(audit)  # at least one field audited
    for field_name, prov in audit.items():
        assert prov, field_name
        for entry in prov:
            assert entry["chunk_id"] in by_id
            assert entry["snippet"] in by_id[entry["chunk_id"]].text


def test_every_clue_value_has_provenance():
    clues, audit = extract_case_clues(BYBIT_DOC)
    for field_name in ("chain", "attack_vector", "affected_platform", "stolen_usd"):
        assert field_name in audit
    audited_attackers = {e["value"] for e in audit["attacker_addresses"]}
    assert {a.hex for a in clues.attacker_addresses} <= audited_attackers


def test_case_clues_roundtrip():
    clues, _ = extract_case_clues(BYBIT_DOC)
    clone = CaseClues.from_json(clues.to_json())
    assert clone.to_json() == clues.to_json()


# --- model-backed backend (scripted port) ---------------------------------------------


class ScriptedPort:
    name = "scripted-port"

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt, temperature, max_tokens):
        self.prompts.append(prompt)
        return self.replies.pop(0)


def test_llm_backend_extracts_and_validates_snippets():
    doc = "The incident touched Ethereum.\n\nLosses were severe."
    chunk_reply = json.dumps(
        {
            "chain": [
                {"value": "ethereum", "snippet": "touched Ethereum"},
                {"value": "bsc", "snippet": "never said this"},  # not a quote: dropped
            ]
        }
    )
    port = ScriptedPort([chunk_reply])
    clues, _ = extract_case_clues(doc, backend=LlmExtractor(port))
    assert clues.chain == "ethereum"
    assert len(port.prompts) == 1  # one chunk call, and no other


def test_llm_extract_makes_one_backend_call_per_chunk():
    doc = "\n\n".join(f"Paragraph {n} says the funds moved on Ethereum. " + "x" * 3000 for n in (1, 2, 3))
    chunks = split_document(doc)
    assert len(chunks) == 3
    reply = json.dumps({"chain": [["ethereum", "moved on Ethereum"]]})
    port = ScriptedPort([reply] * len(chunks))
    clues, audit = extract_case_clues(doc, backend=LlmExtractor(port))
    assert len(port.prompts) == len(chunks)
    assert all(f"Chunk {c.chunk_id}:" in p for c, p in zip(chunks, port.prompts))
    assert clues.chain == "ethereum"
    assert [p["chunk_id"] for p in audit["chain"]] == [1, 2, 3]


@pytest.mark.parametrize(
    "reply, field_name, value, status",
    [
        # the form extractor_chunk.txt asks for: [value, snippet] pairs
        ({"chain": [["ethereum", "touched Ethereum"]]}, "chain", "ethereum", "complete"),
        ({"stolen_usd": [[1500000000, "$1.5 billion"]]}, "stolen_usd", 1500000000, "complete"),
        # a field that is not a list is skipped, as is an entry of neither form
        ({"stolen_usd": 1500000000}, "stolen_usd", 0, "missing"),
        ({"chain": ["ethereum", ["ethereum"], ["a", "b", "c"]]}, "chain", "", "missing"),
        # a value or snippet that is not a string or a number is skipped likewise
        ({"chain": [[None, "touched Ethereum"]]}, "chain", "", "missing"),
        ({"chain": [{"value": None, "snippet": "touched Ethereum"}]}, "chain", "", "missing"),
        ({"chain": [[True, "touched Ethereum"]]}, "chain", "", "missing"),
        ({"chain": [[["ethereum"], "touched Ethereum"]]}, "chain", "", "missing"),
        ({"chain": [[{"id": "ethereum"}, "touched Ethereum"]]}, "chain", "", "missing"),
        ({"chain": [["ethereum", None]]}, "chain", "", "missing"),
        ({"stolen_usd": [[False, "$1.5 billion"]]}, "stolen_usd", 0, "missing"),
    ],
    ids=["pair", "pair-with-a-number", "field-not-a-list", "entries-of-neither-form", "null-value",
         "null-value-object", "boolean-value", "list-value", "object-value", "null-snippet", "boolean-usd"],
)
def test_llm_chunk_reply_forms(reply, field_name, value, status):
    doc = "The incident touched Ethereum and cost $1.5 billion."
    port = ScriptedPort([json.dumps(reply)])
    clues, _ = extract_case_clues(doc, backend=LlmExtractor(port))
    assert getattr(clues, field_name) == value
    assert clues.status[field_name] == status


@pytest.mark.parametrize(
    "field_name, proposed, kept",
    [
        ("chain", "Ethereum", "ethereum"),
        ("chain", "Ethereum Mainnet", None),
        ("chain", "", None),
        ("stolen_usd", "1,500,000,000", None),
        ("stolen_usd", "1500000000.0", None),
        ("stolen_usd", "-1500000000", None),
        ("stolen_usd", "\u0661\u0665", None),  # digits, but not decimal ASCII ones
        ("stolen_usd", "1500000000", "1500000000"),
        # SYMBOL:amount, as the pattern extractor writes it
        ("stolen_token", "ETH:401000", "ETH:401000"),
        ("stolen_token", "mETH:8000.5", "mETH:8000.5"),
        ("stolen_token", "401,000 ETH", None),
        ("stolen_token", "ETH:401,000", None),
        ("stolen_token", "ETH:", None),
        ("stolen_token", ":401000", None),
        ("stolen_token", "ETH:1.", None),
        ("stolen_token", "ETH:\u0661\u0665", None),
    ],
)
def test_a_malformed_candidate_value_is_dropped_and_logged(field_name, proposed, kept, caplog):
    class Proposing:
        def extract_candidates(self, chunk):
            summary = ChunkSummary(chunk.chunk_id)
            summary.add(field_name, proposed, "touched Ethereum")
            return summary

    chunk = DocumentChunk(1, "The incident touched Ethereum.")
    summary = summarize_chunk(chunk, Proposing())
    expected = [(kept, "touched Ethereum")] if kept is not None else []
    assert summary.candidate_clues.get(field_name, []) == expected
    dropped = [r.getMessage() for r in caplog.records if "dropping malformed" in r.getMessage()]
    assert dropped == ([] if kept is not None else [f"dropping malformed {field_name} candidate {proposed!r}"])


def test_a_free_form_stolen_token_from_the_model_is_dropped_not_written_as_a_symbol():
    doc = "The attacker took 401,000 ETH from the cold wallet."
    reply = {"stolen_token": [["401,000 ETH", "401,000 ETH"], ["ETH:401000", "took 401,000 ETH"]]}
    port = ScriptedPort([json.dumps(reply)])
    clues, audit = extract_case_clues(doc, backend=LlmExtractor(port))
    assert clues.stolen_token == {"ETH": "401000"}
    assert [p["value"] for p in audit["stolen_token"]] == ["ETH:401000"]
    port = ScriptedPort([json.dumps({"stolen_token": [["401,000 ETH", "401,000 ETH"]]})])
    clues, _ = extract_case_clues(doc, backend=LlmExtractor(port))
    assert clues.stolen_token == {} and clues.status["stolen_token"] == "missing"
