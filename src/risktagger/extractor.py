"""Incident documents to structured case clues, in two stages.

Stage one slices the document into chunks and pulls candidate clues out of
each chunk independently; stage two folds the candidates into one record,
resolving conflicts by majority across chunks with ties going to the
earliest chunk. A backend only proposes candidates, one chunk at a time:
summarize_chunk keeps each in the form its field's check in FORMS gives it
and drops any that check refuses, and the deterministic fold in consolidate
alone decides the clues, whichever backend proposed them. The same checks
admit the values of a case_clues.json document (CaseClues.from_json).

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

from .errors import EmptyDocument, MalformedAddress, ParseError, UnparseableVerdict
from .model import Address, normalize_chain, normalize_hex
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
# consolidate's two loops, in the order extract_audit.json lists the fields;
# a stolen_token value votes as a scalar of its symbol
SCALAR_FIELDS = ("chain", "attack_vector", "affected_platform", "laundering_path", "stolen_usd", "stolen_token")
ADDRESS_FIELDS = ("contract_address", "attacker_addresses", "victim_addresses")
LIST_FIELDS = ADDRESS_FIELDS + ("laundering_methods", "evidence_snippets")


def _matching(pattern: str, form: str):
    """The check that keeps a string the pattern matches whole."""
    compiled = re.compile(pattern)

    def check(value) -> str:
        if isinstance(value, str) and compiled.fullmatch(value):
            return value
        raise ParseError(f"{value!r} is not {form}")

    return check


_digits = _matching("[0-9]+", "bare decimal digits")


def _usd(value) -> str:
    """Bare decimal digits, or a JSON integer >= 0 (not a boolean) written as digits."""
    return str(value) if type(value) is int and value >= 0 else _digits(value)


# field -> the check of one value: it returns the value in its kept form or
# raises MalformedAddress or ParseError. stolen_token is SYMBOL:amount, as the
# pattern extractor writes it.
FORMS = {
    **{name: _matching("(?s).+", "a non-empty string") for name in ALL_FIELDS},
    "chain": normalize_chain,
    **{name: normalize_hex for name in ADDRESS_FIELDS},
    "stolen_usd": _usd,
    "stolen_token": _matching(r"[A-Za-z0-9]+:[0-9]+(?:\.[0-9]+)?", "SYMBOL:amount"),
}


@dataclass
class DocumentChunk:
    chunk_id: int  # consecutive from 1
    text: str  # exact slice of the source document


@dataclass
class ChunkSummary:
    chunk_id: int
    candidate_clues: dict = field(default_factory=dict)  # field -> [(value, snippet)]

    def add(self, field_name: str, value, snippet) -> None:
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

    def put(self, field_name: str, value: str) -> None:
        """Sets one value in the form FORMS keeps: a list field appends it,
        an address typed on the clue chain, and a stolen_token value sets
        its symbol's amount."""
        if field_name in ADDRESS_FIELDS:
            value = Address(value, self.chain or "ethereum")  # a missing chain shows in status
        if field_name in LIST_FIELDS:
            getattr(self, field_name).append(value)
        elif field_name == "stolen_token":
            symbol, _, amount = value.partition(":")
            self.stolen_token[symbol] = amount
        else:
            setattr(self, field_name, int(value) if field_name == "stolen_usd" else value)

    @staticmethod
    def from_json(obj: dict) -> "CaseClues":
        """The clues of a case_clues.json document. Every non-empty value
        goes through its field's check in FORMS; one it refuses raises
        ParseError naming the field."""
        clues = CaseClues(status=dict(obj.get("status", {})))
        for field_name in SCALAR_FIELDS + LIST_FIELDS:
            values = obj.get(field_name)
            if not values:
                continue
            if field_name == "stolen_token":
                values = [f"{symbol}:{amount}" for symbol, amount in values.items()]
            elif field_name not in LIST_FIELDS:
                values = [values]
            for value in values:
                try:
                    clues.put(field_name, FORMS[field_name](value))
                except (MalformedAddress, ParseError) as exc:
                    raise ParseError(f"{field_name}: {exc}") from exc
        return clues


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


class LlmExtractor:
    """Candidate extraction through a completion port: one extractor_chunk
    prompt per chunk, whose reply maps each field to a list of [value,
    snippet] pairs or {"value", "snippet"} objects. Each pair goes on as the
    reply holds it, for summarize_chunk to check; any other entry, and a
    field whose value is not a list, is skipped. A reply that cannot be
    decoded yields an empty summary rather than an abort; transport-level
    failures propagate from the port itself."""

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
        for field_name, entries in obj.items():
            for entry in entries if isinstance(entries, list) else ():
                if isinstance(entry, dict):
                    entry = [entry.get("value"), entry.get("snippet")]
                if isinstance(entry, list) and len(entry) == 2:
                    summary.add(field_name, *entry)
        return summary


# --- consolidation ----------------------------------------------------------------


def summarize_chunk(chunk: DocumentChunk, backend) -> ChunkSummary:
    """One chunk through the backend. A candidate of a field FORMS does not
    know, or whose snippet is not a string quoting the chunk, is dropped, and
    so is one whose value its field's check refuses, with a warning; the rest
    keep the form the check gives them."""
    raw = backend.extract_candidates(chunk)
    cleaned = ChunkSummary(chunk.chunk_id)
    for field_name, entries in raw.candidate_clues.items():
        check = FORMS.get(field_name)
        if check is None:
            continue
        for value, snippet in entries:
            if not (isinstance(snippet, str) and snippet and snippet in chunk.text):
                continue
            try:
                cleaned.add(field_name, check(value), snippet)
            except (MalformedAddress, ParseError):
                logger.warning("dropping malformed %s candidate %r", field_name, value)
    return cleaned


def _provenance(entries) -> list:
    return [{"value": value, "chunk_id": chunk_id, "snippet": snippet} for chunk_id, value, snippet in entries]


def _scalar_winner(entries):
    """Majority by chunks mentioning the value; ties to the earliest chunk,
    then lexicographically smallest value so reruns cannot flap. Provenance
    is the winner's entries."""
    chunks = {}
    for chunk_id, value, _ in entries:
        chunks.setdefault(value, set()).add(chunk_id)
    winner = min(chunks, key=lambda value: (-len(chunks[value]), min(chunks[value]), value))
    return winner, _provenance(e for e in entries if e[1] == winner)


def consolidate(summaries: list):
    """Folds checked chunk candidates, as summarize_chunk keeps them, into
    (CaseClues, audit provenance map): a scalar field, and the amount of each
    stolen_token symbol, takes _scalar_winner's value; a list field keeps
    each value once, in order."""
    gathered = {}
    for summary in sorted(summaries, key=lambda s: s.chunk_id):
        for field_name, entries in summary.candidate_clues.items():
            gathered.setdefault(field_name, []).extend((summary.chunk_id, v, s) for v, s in entries)

    clues = CaseClues()
    audit = {}
    for field_name in SCALAR_FIELDS:
        ballots = {}  # one per stolen_token symbol, else one
        for entry in gathered.get(field_name, ()):
            symbol = entry[1].partition(":")[0] if field_name == "stolen_token" else None
            ballots.setdefault(symbol, []).append(entry)
        for entries in ballots.values():
            value, prov = _scalar_winner(entries)
            clues.put(field_name, value)
            audit.setdefault(field_name, []).extend(prov)
    for field_name in LIST_FIELDS:
        if gathered.get(field_name):
            audit[field_name] = _provenance(gathered[field_name])
            for value in dict.fromkeys(value for _, value, _ in gathered[field_name]):
                clues.put(field_name, value)

    for field_name in MANDATORY_FIELDS:
        present = bool(getattr(clues, field_name)) or (field_name == "stolen_usd" and "stolen_usd" in audit)
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
