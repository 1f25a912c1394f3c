"""Chain data access: fixture replay, live REST adapter, cross-chain matching."""

from .cache import FetchCache
from .fetch import FIXTURE_COLUMNS, dedup_and_sort
from .fixtures import FixtureChainClient, FixtureStore
from .crosschain import BridgeTable, BridgeMatcher
from .live import EtherscanClient

__all__ = [
    "FetchCache",
    "dedup_and_sort",
    "FIXTURE_COLUMNS",
    "FixtureChainClient",
    "FixtureStore",
    "BridgeTable",
    "BridgeMatcher",
    "EtherscanClient",
]
