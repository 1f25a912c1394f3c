"""Core value types shared by every pipeline stage.

A transfer's amount is an int in the asset's smallest unit, below 2**256
(401000 ETH in wei does not fit a double), parsed once where a row becomes a
record, so no value math ever touches float or re-parses text. Its asset is
its tokenSymbol, "" being the chain's native coin. Addresses are canonalized
once at the boundary via normalize_address and compared exactly afterwards.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import MalformedAddress

_CHAIN_RE = re.compile(r"[a-z0-9]+")
_HEX40_RE = re.compile(r"0x[0-9a-f]{40}")
_HEX66_RE = re.compile(r"0x[0-9a-f]{64}")
_DIGITS_RE = re.compile(r"[0-9]+")
MAX_TIMESTAMP = 253402300799  # 9999-12-31T23:59:59Z, the last second a UTC datetime holds
_CHAINS: dict[str, str] = {}  # one entry per canonical chain id seen, interned


def normalize_chain(raw: str) -> str:
    """Lowercase and validate a chain id (non-empty ASCII alphanumeric). The
    result is interned, so every Address on one chain shares one string; an
    id already in that form is one lookup."""
    if not isinstance(raw, str):
        raise MalformedAddress(f"chain id must be a string, got {type(raw).__name__}")
    known = _CHAINS.get(raw)
    if known is not None:
        return known
    chain = raw.strip().lower()
    if not _CHAIN_RE.fullmatch(chain):
        raise MalformedAddress(f"invalid chain id {raw!r}: must be non-empty lowercase alphanumeric")
    chain = sys.intern(chain)
    return _CHAINS.setdefault(chain, chain)


class Address(NamedTuple):
    """A chain-qualified account address, the tuple type (hex, chain): it
    compares, hashes and sorts as that pair, and equals the plain pair.

    Equality includes the chain: the same hex on two chains is two distinct
    accounts (this is what makes the cross-chain visited set sound).
    """

    hex: str
    chain: str

    def to_json(self) -> dict:
        return {"hex": self.hex, "chain": self.chain}

    @staticmethod
    def from_json(obj: dict) -> "Address":
        return normalize_address(obj["hex"], obj["chain"])


def normalize_address(raw: str, chain: str) -> Address:
    """The address of normalize_hex(raw) on the normalized chain."""
    return Address(normalize_hex(raw), normalize_chain(chain))


def normalize_hex(raw: str) -> str:
    """Canonical form: lowercase 0x-prefixed 40-hex-digit string.

    Raises MalformedAddress on wrong length, missing prefix, or non-hex
    characters. Idempotent: a string already in canonical form is one match
    and is returned as it is.
    """
    if not isinstance(raw, str):
        raise MalformedAddress(f"address must be a string, got {type(raw).__name__}")
    if _HEX40_RE.fullmatch(raw):
        return raw
    candidate = raw.strip()
    if not candidate.lower().startswith("0x"):
        raise MalformedAddress(f"address {raw!r} lacks 0x prefix")
    candidate = "0x" + candidate[2:].lower()
    if not _HEX40_RE.fullmatch(candidate):
        raise MalformedAddress(
            f"address {raw!r} is not 40 hex digits after the prefix"
        )
    return candidate


def normalize_tx_hash(raw: str) -> str:
    """Canonical 32-byte tx id: lowercase 0x-prefixed 64 hex digits."""
    candidate = raw.strip()
    if not candidate.lower().startswith("0x"):
        raise MalformedAddress(f"tx hash {raw!r} lacks 0x prefix")
    candidate = "0x" + candidate[2:].lower()
    if not _HEX66_RE.fullmatch(candidate):
        raise MalformedAddress(f"tx hash {raw!r} is not 64 hex digits after the prefix")
    return candidate


class SuspicionLevel(enum.Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"
    NO_SUSPICION = "No Suspicion"

    @staticmethod
    def from_label(label: str) -> "SuspicionLevel":
        """Exact (case-insensitive) label lookup; 'nosuspicion' tolerated. A
        label already in canonical form is one lookup."""
        level = _LEVELS.get(label)
        if level is not None:
            return level
        key = " ".join(label.strip().lower().split())
        for level in SuspicionLevel:
            if key == level.value.lower():
                return level
        if key in ("nosuspicion", "no-suspicion", "none"):
            return SuspicionLevel.NO_SUSPICION
        raise ValueError(f"unknown suspicion level {label!r}")


_LEVELS = {level.value: level for level in SuspicionLevel}


def _require_digits(name: str, value: str) -> None:
    if not isinstance(value, str) or not _DIGITS_RE.fullmatch(value):
        raise ValueError(f"{name} must be a non-negative decimal integer string, got {value!r}")


@dataclass(frozen=True)
class TransactionRecord:
    """One transfer: the ten of the crawler schema's 16 columns that the
    pipeline reads. The builders check the other six, then drop them.

    Field names mirror the upstream API (hence timeStamp's capitalization).
    `from`/`to` are reserved in Python, so the attributes are from_addr and
    to_addr.
    """

    hash: str
    from_addr: Address
    to_addr: Address
    value: int  # in [0, 2**256), in the asset's smallest unit
    timeStamp: int
    blockNumber: int
    tokenSymbol: str = ""  # "" means the chain's native asset
    contractAddress: Address | None = None
    isError: bool = False
    input: str = "0x"

    def __post_init__(self):
        object.__setattr__(self, "hash", normalize_tx_hash(self.hash))
        if type(self.value) is not int or not 0 <= self.value < 2**256:
            raise ValueError(f"value must be an int in [0, 2**256), got {self.value!r}")
        if not 0 < self.timeStamp <= MAX_TIMESTAMP:
            raise ValueError(
                f"timeStamp must be positive and at most {MAX_TIMESTAMP} (9999-12-31T23:59:59Z), got {self.timeStamp}"
            )
        if self.blockNumber < 0:
            raise ValueError(f"blockNumber must be non-negative, got {self.blockNumber}")
        if self.from_addr.chain != self.to_addr.chain:
            raise ValueError("from and to must live on the same chain")
        if self.contractAddress is not None and self.contractAddress.chain != self.from_addr.chain:
            raise ValueError("contractAddress must live on the record's chain")

    @classmethod
    def prechecked(cls, fields: dict) -> "TransactionRecord":
        """A record from a dict of all of its fields in declaration order,
        already in the canonical form __post_init__ would produce and check;
        that check is not repeated, and the dict becomes the record's own."""
        record = object.__new__(cls)
        object.__setattr__(record, "__dict__", fields)
        return record

    @property
    def chain(self) -> str:
        return self.from_addr.chain


@dataclass(frozen=True)
class CrossChainPair:
    """A matched bridge deposit (src) and withdrawal (dst) on different chains."""

    src_tx: TransactionRecord
    dst_tx: TransactionRecord
    bridge_hint: str = ""

    def __post_init__(self):
        if self.src_tx.chain == self.dst_tx.chain:
            raise ValueError("cross-chain pair must span two different chains")


_NO_RISK_RE = re.compile(r"^\s*(no\b|none\b|not\b|n/?a\b|normal\b|clean\b|negative\b)", re.IGNORECASE)


@dataclass(frozen=True)
class RiskDimension:
    """One checked risk dimension: a short finding plus cited evidence."""

    result: str = ""
    evidence: str = ""

    def indicates_risk(self) -> bool:
        # Empty or negation-leading results ("No anomalies...", "normal") do not count.
        text = self.result.strip()
        return bool(text) and not _NO_RISK_RE.match(text)

    def to_json(self) -> dict:
        return {"result": self.result, "evidence": self.evidence}

    @staticmethod
    def from_json(obj: dict) -> "RiskDimension":
        return RiskDimension(result=obj.get("result", ""), evidence=obj.get("evidence", ""))


@dataclass
class RiskAssessment:
    """Verdict for one account at one hop of the trace."""

    target_address: Address
    suspicion_level: SuspicionLevel
    transaction_patterns: RiskDimension
    fund_flows: RiskDimension
    associated_addresses: RiskDimension
    temporal_signs: RiskDimension
    justification: str
    gaps: str
    out_neighbors: list[Address]
    hop_depth: int
    reflection_issues: list[str] = field(default_factory=list)
    reasoner_backend: str = "rules"

    def __post_init__(self):
        if self.hop_depth < 0:
            raise ValueError("hop_depth must be non-negative")
        seen = set()
        for n in self.out_neighbors:
            if n == self.target_address:
                raise ValueError("out_neighbors must not contain the target itself")
            if n in seen:
                raise ValueError(f"duplicate out_neighbor {n.hex} on {n.chain}")
            seen.add(n)

    def to_json(self) -> dict:
        return {
            "target_address": self.target_address.to_json(),
            "suspicion_level": self.suspicion_level.value,
            "transaction_patterns": self.transaction_patterns.to_json(),
            "fund_flows": self.fund_flows.to_json(),
            "associated_addresses": self.associated_addresses.to_json(),
            "temporal_signs": self.temporal_signs.to_json(),
            "justification": self.justification,
            "gaps": self.gaps,
            "out_neighbors": [n.to_json() for n in self.out_neighbors],
            "hop_depth": self.hop_depth,
            "reflection_issues": list(self.reflection_issues),
            "reasoner_backend": self.reasoner_backend,
        }

    @staticmethod
    def from_json(obj: dict) -> "RiskAssessment":
        return RiskAssessment(
            target_address=Address.from_json(obj["target_address"]),
            suspicion_level=SuspicionLevel.from_label(obj["suspicion_level"]),
            transaction_patterns=RiskDimension.from_json(obj["transaction_patterns"]),
            fund_flows=RiskDimension.from_json(obj["fund_flows"]),
            associated_addresses=RiskDimension.from_json(obj["associated_addresses"]),
            temporal_signs=RiskDimension.from_json(obj["temporal_signs"]),
            justification=obj.get("justification", ""),
            gaps=obj.get("gaps", ""),
            out_neighbors=[Address.from_json(n) for n in obj.get("out_neighbors", [])],
            hop_depth=int(obj["hop_depth"]),
            reflection_issues=list(obj.get("reflection_issues", [])),
            reasoner_backend=obj.get("reasoner_backend", "rules"),
        )


ALL_LEVELS = frozenset(SuspicionLevel)


@dataclass(frozen=True)
class TracerConfig:
    """Knobs for the hop-by-hop trace. Weights must sum to 1 (±1e-9)."""

    D: int = 20
    k: int = 100
    frontier_cap: int | None = 500
    min_value_threshold: str = "0"
    expand_levels: frozenset = ALL_LEVELS
    value_weight: float = 0.5
    recency_weight: float = 0.3
    flag_weight: float = 0.2

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("D (max hop depth) must be >= 1")
        if self.k < 1:
            raise ValueError("k (retained tx cap) must be >= 1")
        if self.frontier_cap is not None and self.frontier_cap < 1:
            raise ValueError("frontier_cap must be >= 1 or None for unlimited")
        _require_digits("min_value_threshold", self.min_value_threshold)
        for name in ("value_weight", "recency_weight", "flag_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        total = self.value_weight + self.recency_weight + self.flag_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if not isinstance(self.expand_levels, frozenset):
            object.__setattr__(self, "expand_levels", frozenset(self.expand_levels))

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "k": self.k,
            "frontier_cap": self.frontier_cap,
            "min_value_threshold": self.min_value_threshold,
            "expand_levels": sorted(level.value for level in self.expand_levels),
            "value_weight": self.value_weight,
            "recency_weight": self.recency_weight,
            "flag_weight": self.flag_weight,
        }

    @staticmethod
    def from_json(obj: dict) -> "TracerConfig":
        kwargs = dict(obj)
        if "expand_levels" in kwargs:
            kwargs["expand_levels"] = frozenset(
                SuspicionLevel.from_label(v) for v in kwargs["expand_levels"]
            )
        known = {f.name for f in fields(TracerConfig)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown tracer config keys: {sorted(unknown)}")
        return TracerConfig(**kwargs)
