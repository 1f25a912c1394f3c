"""Incident documents to structured case clues, in two stages.

Stage one slices the document into chunks and pulls candidate clues out of
each chunk independently; stage two folds the candidates into one record,
resolving conflicts by majority across chunks with ties going to the
earliest chunk. A backend only proposes candidates, one chunk at a time:
summarize_chunk drops any it cannot check, and the deterministic fold in
consolidate alone decides the clues, whichever backend proposed them.

Chunks are literal slices of the source string, so concatenating them in
id order reproduces the input byte for byte. Boundary whitespace is
charged to the following chunk, which keeps every chunk within the size
limit except when a single paragraph (or sentence) alone exceeds it.

The pattern backend needs no language model: addresses, amounts, token
quantities, and chain names come from regular expressions and a small
gazetteer, and the attacker/victim/contract role of an address is decided
by the nearest role keyword inside the same sentence. Addresses whose role
cannot be pinned down land in evidence_snippets instead of a role list.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import EmptyDocument, MalformedAddress, UnparseableVerdict
from .model import normalize_address, normalize_chain
from .reasoner.parsing import extract_json_fragment
from .reasoner.prompts import get_template, render

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_CHARS = 4000
MIN_CHUNK_CHARS = 200
SNIPPET_CAP = 240
EXTRACT_TEMPERATURE = 0.1
EXTRACT_MAX_TOKENS = 2048

MANDATORY_FIELDS = (
    "chain",
    "attack_vector",
    "affected_platform",
    "contract_address",
    "attacker_addresses",
    "victim_addresses",
    "stolen_usd",
    "stolen_token",
)
OPTIONAL_FIELDS = ("laundering_methods", "laundering_path", "evidence_snippets")
ALL_FIELDS = MANDATORY_FIELDS + OPTIONAL_FIELDS

@dataclass
class DocumentChunk:
    chunk_id: int  # consecutive from 1
    text: str  # exact slice of the source document


@dataclass
class ChunkSummary:
    chunk_id: int
    candidate_clues: dict = field(default_factory=dict)  # field -> [(value, snippet)]

    def add(self, field_name: str, value: str, snippet: str) -> None:
        self.candidate_clues.setdefault(field_name, []).append((value, snippet))


@dataclass
class CaseClues:
    chain: str = ""
    attack_vector: str = ""
    affected_platform: str = ""
    contract_address: list = field(default_factory=list)
    attacker_addresses: list = field(default_factory=list)
    victim_addresses: list = field(default_factory=list)
    stolen_usd: int = 0
    stolen_token: dict = field(default_factory=dict)  # symbol -> decimal string
    laundering_methods: list = field(default_factory=list)
    laundering_path: str = ""
    evidence_snippets: list = field(default_factory=list)
    status: dict = field(default_factory=dict)  # field -> complete|missing|absent

    def missing_mandatory(self) -> list:
        return [f for f in MANDATORY_FIELDS if self.status.get(f) != "complete"]

    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "attack_vector": self.attack_vector,
            "affected_platform": self.affected_platform,
            "contract_address": [a.hex for a in self.contract_address],
            "attacker_addresses": [a.hex for a in self.attacker_addresses],
            "victim_addresses": [a.hex for a in self.victim_addresses],
            "stolen_usd": self.stolen_usd,
            "stolen_token": dict(self.stolen_token),
            "laundering_methods": list(self.laundering_methods),
            "laundering_path": self.laundering_path,
            "evidence_snippets": list(self.evidence_snippets),
            "status": dict(self.status),
        }

    @staticmethod
    def from_json(obj: dict) -> "CaseClues":
        chain = obj.get("chain") or "ethereum"
        to_addr = lambda hexes: [normalize_address(h, chain) for h in hexes]
        return CaseClues(
            chain=obj.get("chain", ""),
            attack_vector=obj.get("attack_vector", ""),
            affected_platform=obj.get("affected_platform", ""),
            contract_address=to_addr(obj.get("contract_address", [])),
            attacker_addresses=to_addr(obj.get("attacker_addresses", [])),
            victim_addresses=to_addr(obj.get("victim_addresses", [])),
            stolen_usd=int(obj.get("stolen_usd", 0)),
            stolen_token=dict(obj.get("stolen_token", {})),
            laundering_methods=list(obj.get("laundering_methods", [])),
            laundering_path=obj.get("laundering_path", ""),
            evidence_snippets=list(obj.get("evidence_snippets", [])),
            status=dict(obj.get("status", {})),
        )


# --- chunking -----------------------------------------------------------------

_PARA_SEP_RE = re.compile(r"\n[ \t]*\n+")
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")


def _paragraph_spans(text: str) -> list:
    spans = []
    pos = 0
    for sep in _PARA_SEP_RE.finditer(text):
        if text[pos : sep.start()].strip():
            spans.append((pos, sep.start()))
        pos = sep.end()
    if text[pos:].strip():
        spans.append((pos, len(text)))
    return spans


def _sentence_cuts(text: str, start: int, end: int) -> list:
    """Candidate cut offsets inside [start, end), at sentence boundaries."""
    return [start + m.end() for m in _SENTENCE_END_RE.finditer(text[start:end])]


def split_document(text: str, max_chunk_chars: int = DEFAULT_CHUNK_CHARS) -> list:
    if max_chunk_chars < MIN_CHUNK_CHARS:
        raise ValueError(f"max_chunk_chars must be >= {MIN_CHUNK_CHARS}")
    if not text.strip():
        raise EmptyDocument("document contains no text")

    # packing units: one per paragraph, except oversized paragraphs which
    # contribute one unit per sentence group
    units = []  # (start, end)
    for p_start, p_end in _paragraph_spans(text):
        if p_end - p_start > max_chunk_chars:
            unit_start = p_start
            for cut in _sentence_cuts(text, p_start, p_end):
                if unit_start < cut < p_end:
                    units.append((unit_start, cut))
                    unit_start = cut
            if unit_start < p_end:
                units.append((unit_start, p_end))
        else:
            units.append((p_start, p_end))

    # greedy fill; a chunk closes at the end of its last unit, so separator
    # whitespace rides with the chunk that follows it
    ends = []  # slice end of each chunk
    chunk_start = 0
    prev_unit_end = 0
    for u_start, u_end in units:
        if prev_unit_end > chunk_start and u_end - chunk_start > max_chunk_chars:
            ends.append(prev_unit_end)
            chunk_start = prev_unit_end
        prev_unit_end = u_end
    ends.append(len(text))

    chunks = []
    start = 0
    for chunk_id, end in enumerate(ends, start=1):
        chunks.append(DocumentChunk(chunk_id, text[start:end]))
        start = end
    return chunks


# --- pattern extraction ---------------------------------------------------------

_ADDRESS_RE = re.compile(r"(?<![0-9a-fA-F])0x[0-9a-fA-F]{40}(?![0-9a-fA-F])")

_MULTIPLIERS = {
    "billion": 10**9,
    "bn": 10**9,
    "million": 10**6,
    "mn": 10**6,
    "thousand": 10**3,
    "k": 10**3,
}
_USD_SIGN_RE = re.compile(
    r"\$\s*([0-9][\d,]*(?:\.\d+)?)\s*(billion|bn|million|mn|thousand|k)?\b", re.IGNORECASE
)
_USD_WORD_RE = re.compile(
    r"\b([0-9][\d,]*(?:\.\d+)?)\s*(billion|million|thousand)?\s*(?:US\s?dollars|USD)\b",
    re.IGNORECASE,
)

# longest symbols first so "8,000 mETH" never reads as 000 ETH
TOKEN_SYMBOLS = (
    "wstETH", "cmETH", "stETH", "mETH", "WETH", "WBTC", "USDT", "USDC",
    "MATIC", "DAI", "ETH", "BTC", "BNB", "SOL", "TRX", "XRP",
)
_TOKEN_RE = re.compile(
    r"\b([0-9][\d,]*(?:\.\d+)?)\s*(" + "|".join(TOKEN_SYMBOLS) + r")(?![A-Za-z0-9])"
)

CHAIN_GAZETTEER = {
    "ethereum": ("ethereum", "ethereum mainnet"),
    "bsc": ("bsc", "binance smart chain", "bnb chain", "binance chain"),
    "polygon": ("polygon", "matic network"),
    "tron": ("tron",),
    "bitcoin": ("bitcoin",),
    "arbitrum": ("arbitrum",),
    "optimism": ("optimism",),
    "avalanche": ("avalanche",),
    "solana": ("solana",),
}
_CHAIN_PATTERNS = [
    (chain, re.compile(r"\b" + re.escape(name) + r"\b", re.IGNORECASE))
    for chain, names in CHAIN_GAZETTEER.items()
    for name in names
]

_LABELED_LINES = {
    "attack_vector": re.compile(r"^[ \t]*attack\s+vector[ \t]*:[ \t]*(.+?)[ \t]*$", re.IGNORECASE | re.MULTILINE),
    "affected_platform": re.compile(r"^[ \t]*(?:affected\s+platform|target\s+platform)[ \t]*:[ \t]*(.+?)[ \t]*$", re.IGNORECASE | re.MULTILINE),
    "laundering_path": re.compile(r"^[ \t]*laundering\s+path[ \t]*:[ \t]*(.+?)[ \t]*$", re.IGNORECASE | re.MULTILINE),
}
_METHODS_LINE_RE = re.compile(
    r"^[ \t]*laundering\s+(?:methods?|techniques?)[ \t]*:[ \t]*(.+?)[ \t]*$",
    re.IGNORECASE | re.MULTILINE,
)

ROLE_KEYWORDS = {
    "attacker_addresses": ("attacker", "exploiter", "hacker", "perpetrator", "drainer", "thief"),
    "victim_addresses": ("victim", "cold wallet", "custodial wallet"),
    "contract_address": ("contract", "implementation"),
}
_ROLE_PATTERNS = [
    (role, re.compile(r"\b" + re.escape(kw).replace(r"\ ", r"\s+") + r"\b", re.IGNORECASE))
    for role, keywords in ROLE_KEYWORDS.items()
    for kw in keywords
]


def _sentences(text: str):
    """(offset, sentence) pairs; a sentence is the slice up to its end mark."""
    out = []
    pos = 0
    for m in _SENTENCE_END_RE.finditer(text):
        out.append((pos, text[pos : m.start()]))
        pos = m.end()
    out.append((pos, text[pos:]))
    return [(start, sent) for start, sent in out if sent.strip()]


def _snippet(sentence: str) -> str:
    return sentence.strip()[:SNIPPET_CAP]


def _clean_amount(raw: str) -> str:
    amount = raw.replace(",", "")
    if "." in amount:
        amount = amount.rstrip("0").rstrip(".")
    return amount or "0"


def _usd_value(number: str, unit: str | None) -> str:
    value = Decimal(number.replace(",", ""))
    if unit:
        value *= _MULTIPLIERS[unit.lower()]
    return str(int(value.to_integral_value(rounding="ROUND_HALF_UP")))


class PatternExtractor:
    """Deterministic regex/gazetteer backend; no model involved."""

    def extract_candidates(self, chunk: DocumentChunk) -> ChunkSummary:
        summary = ChunkSummary(chunk.chunk_id)
        text = chunk.text

        for field_name, pattern in _LABELED_LINES.items():
            for m in pattern.finditer(text):
                summary.add(field_name, m.group(1), _snippet(m.group(0)))
        for m in _METHODS_LINE_RE.finditer(text):
            parts = m.group(1).split(";") if ";" in m.group(1) else m.group(1).split(",")
            for part in parts:
                if part.strip():
                    summary.add("laundering_methods", part.strip(), _snippet(m.group(0)))

        sentences = _sentences(text)
        starts = [start for start, _ in sentences]

        def enclosing(position: int):  # the last sentence starting at or before position
            i = bisect_right(starts, position)
            return sentences[i - 1] if i else (0, text)

        for chain, pattern in _CHAIN_PATTERNS:
            for m in pattern.finditer(text):
                _, sentence = enclosing(m.start())
                summary.add("chain", chain, _snippet(sentence))

        for m in _USD_SIGN_RE.finditer(text):
            _, sentence = enclosing(m.start())
            summary.add("stolen_usd", _usd_value(m.group(1), m.group(2)), _snippet(sentence))
        for m in _USD_WORD_RE.finditer(text):
            _, sentence = enclosing(m.start())
            summary.add("stolen_usd", _usd_value(m.group(1), m.group(2)), _snippet(sentence))

        for m in _TOKEN_RE.finditer(text):
            amount, symbol = _clean_amount(m.group(1)), m.group(2)
            _, sentence = enclosing(m.start())
            summary.add("stolen_token", f"{symbol}:{amount}", _snippet(sentence))

        for m in _ADDRESS_RE.finditer(text):
            hex_addr = m.group(0).lower()
            offset, sentence = enclosing(m.start())
            role = _nearest_role(sentence, m.start() - offset)
            if role is None:
                summary.add("evidence_snippets", _snippet(sentence), _snippet(sentence))
            else:
                summary.add(role, hex_addr, _snippet(sentence))
        return summary


def _nearest_role(sentence: str, addr_offset: int) -> str | None:
    """Closest role keyword in the sentence decides; a tie is ambiguous."""
    best_role = None
    best_distance = None
    tie = False
    for role, pattern in _ROLE_PATTERNS:
        for m in pattern.finditer(sentence):
            distance = abs(m.start() - addr_offset)
            if best_distance is None or distance < best_distance:
                best_role, best_distance, tie = role, distance, False
            elif distance == best_distance and role != best_role:
                tie = True
    if best_role is None or tie:
        return None
    return best_role


# --- model-backed extraction ------------------------------------------------------


def _is_text(value) -> bool:
    """A JSON string, or a number that is not a boolean."""
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


class LlmExtractor:
    """Candidate extraction through a completion port: one extractor_chunk
    prompt per chunk, whose reply maps each field to a list of [value,
    snippet] pairs or {"value", "snippet"} objects, each a JSON string or a
    number; any other entry, such as one holding null, a boolean, a list or
    an object, and a field whose value is not a list, is skipped. A reply
    that cannot be decoded yields an empty summary rather than an abort;
    transport-level failures propagate from the port itself."""

    def __init__(self, port):
        self.port = port

    def extract_candidates(self, chunk: DocumentChunk) -> ChunkSummary:
        prompt = render(
            get_template("extractor_chunk"),
            {"chunk_id": str(chunk.chunk_id), "chunk_text": chunk.text},
        )
        raw = self.port.complete(prompt, EXTRACT_TEMPERATURE, EXTRACT_MAX_TOKENS)
        summary = ChunkSummary(chunk.chunk_id)
        try:
            obj, _ = extract_json_fragment(raw)
        except UnparseableVerdict:
            logger.warning("undecodable extractor_chunk reply (%d chars)", len(raw))
            return summary
        for field_name in ALL_FIELDS:
            entries = obj.get(field_name)
            for entry in entries if isinstance(entries, list) else ():
                if isinstance(entry, dict):
                    entry = [entry.get("value", ""), entry.get("snippet", "")]
                if isinstance(entry, list) and len(entry) == 2 and all(map(_is_text, entry)):
                    value, snippet = str(entry[0]), str(entry[1])
                    if value and snippet:
                        summary.add(field_name, value, snippet)
        return summary


# --- consolidation ----------------------------------------------------------------

# The forms a candidate value must have in these fields; any other is dropped.
# stolen_token is SYMBOL:amount, as the pattern extractor writes it.
_VALUE_FORMS = {
    "stolen_usd": re.compile("[0-9]+"),
    "stolen_token": re.compile(r"[A-Za-z0-9]+:[0-9]+(?:\.[0-9]+)?"),
}


def summarize_chunk(chunk: DocumentChunk, backend) -> ChunkSummary:
    """One chunk through the backend. A candidate whose snippet does not quote
    the chunk is dropped, and so is a malformed value: a chain id that
    normalize_chain refuses (one it accepts is kept normalized), a
    stolen_usd that is not bare decimal digits, or a stolen_token that is not
    SYMBOL:amount."""
    raw = backend.extract_candidates(chunk)
    cleaned = ChunkSummary(chunk.chunk_id)
    for field_name, entries in raw.candidate_clues.items():
        if field_name not in ALL_FIELDS:
            continue
        for value, snippet in entries:
            if not (snippet and snippet in chunk.text):
                continue
            try:
                kept = normalize_chain(value) if field_name == "chain" else value
            except MalformedAddress:
                kept = None
            form = _VALUE_FORMS.get(field_name)
            if form is not None and not form.fullmatch(value):
                kept = None
            if kept is None:
                logger.warning("dropping malformed %s candidate %r", field_name, value)
            else:
                cleaned.add(field_name, kept, snippet)
    return cleaned


def _scalar_winner(entries):
    """Majority by chunks mentioning the value; ties to the earliest chunk,
    then lexicographically smallest value so reruns cannot flap."""
    by_value = {}
    for chunk_id, value, snippet in entries:
        rec = by_value.setdefault(value, {"chunks": set(), "prov": []})
        rec["chunks"].add(chunk_id)
        rec["prov"].append({"value": value, "chunk_id": chunk_id, "snippet": snippet})
    value, rec = min(
        by_value.items(), key=lambda kv: (-len(kv[1]["chunks"]), min(kv[1]["chunks"]), kv[0])
    )
    return value, rec["prov"]


def _ordered_dedup(entries):
    seen = set()
    values = []
    prov = []
    for chunk_id, value, snippet in entries:
        prov_entry = {"value": value, "chunk_id": chunk_id, "snippet": snippet}
        if value in seen:
            prov.append(prov_entry)
            continue
        seen.add(value)
        values.append(value)
        prov.append(prov_entry)
    return values, prov


def consolidate(summaries: list):
    """Folds chunk candidates into (CaseClues, audit provenance map)."""
    gathered = {name: [] for name in ALL_FIELDS}
    for summary in sorted(summaries, key=lambda s: s.chunk_id):
        for field_name, entries in summary.candidate_clues.items():
            if field_name not in gathered:
                continue
            for value, snippet in entries:
                gathered[field_name].append((summary.chunk_id, value, snippet))

    clues = CaseClues()
    audit = {}

    if gathered["chain"]:
        clues.chain, audit["chain"] = _scalar_winner(gathered["chain"])
    for field_name in ("attack_vector", "affected_platform", "laundering_path"):
        if gathered[field_name]:
            value, prov = _scalar_winner(gathered[field_name])
            setattr(clues, field_name, value)
            audit[field_name] = prov
    if gathered["stolen_usd"]:
        value, audit["stolen_usd"] = _scalar_winner(gathered["stolen_usd"])
        clues.stolen_usd = int(value)

    if gathered["stolen_token"]:
        by_symbol = {}
        for chunk_id, value, snippet in gathered["stolen_token"]:
            symbol, _, amount = value.partition(":")
            by_symbol.setdefault(symbol, []).append((chunk_id, amount, snippet))
        audit["stolen_token"] = []
        for symbol, entries in by_symbol.items():
            amount, prov = _scalar_winner(entries)
            clues.stolen_token[symbol] = amount
            for p in prov:
                p["value"] = f"{symbol}:{p['value']}"
            audit["stolen_token"].extend(prov)

    address_chain = clues.chain or "ethereum"  # typing fallback; status still flags a missing chain
    for field_name in ("contract_address", "attacker_addresses", "victim_addresses"):
        if not gathered[field_name]:
            continue
        hexes, prov = _ordered_dedup(gathered[field_name])
        typed = []
        for hex_addr in hexes:
            try:
                typed.append(normalize_address(hex_addr, address_chain))
            except MalformedAddress:
                logger.warning("dropping malformed %s candidate %r", field_name, hex_addr)
        if typed:
            setattr(clues, field_name, typed)
            audit[field_name] = prov

    for field_name in ("laundering_methods", "evidence_snippets"):
        if gathered[field_name]:
            values, prov = _ordered_dedup(gathered[field_name])
            setattr(clues, field_name, values)
            audit[field_name] = prov

    for field_name in MANDATORY_FIELDS:
        present = bool(getattr(clues, field_name)) or (
            field_name == "stolen_usd" and bool(gathered["stolen_usd"])
        )
        clues.status[field_name] = "complete" if present else "missing"
    for field_name in OPTIONAL_FIELDS:
        clues.status[field_name] = "complete" if getattr(clues, field_name) else "absent"
    return clues, audit


def extract_case_clues(text: str, backend=None):
    """Full pipeline: split, per-chunk extraction, consolidation."""
    backend = backend if backend is not None else PatternExtractor()
    chunks = split_document(text)
    summaries = [summarize_chunk(chunk, backend) for chunk in chunks]
    return consolidate(summaries)
