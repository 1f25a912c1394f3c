"""Exception hierarchy for the annotation pipeline.

Every error the package raises on purpose derives from RiskTaggerError so
callers can split pipeline failures from genuine bugs with one except clause.
"""

from contextlib import contextmanager


class RiskTaggerError(Exception):
    """Base class for all deliberate pipeline errors."""


class MalformedAddress(RiskTaggerError):
    """Address string failed normalization (length, charset, or prefix)."""


class UnknownChain(RiskTaggerError):
    """Chain id is syntactically valid but no adapter/fixture covers it."""


class ChainUnavailable(RiskTaggerError):
    """Upstream chain API kept failing after all retry attempts."""


class RateLimited(RiskTaggerError):
    """An upstream API refused the request rate; retry_after_s is the wait it
    asked for."""

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SchemaMismatch(RiskTaggerError):
    """Fixture CSV header does not match the canonical 16-column schema."""


class ParseError(RiskTaggerError):
    """A fixture row or config value could not be parsed; carries location."""


@contextmanager
def reading_utf8(path):
    """A byte that is not UTF-8, read from `path` in the block, raises ParseError
    naming the file; no line, as text-mode reads decode whole buffers."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc.reason} at byte {exc.object[exc.start]:#04x}") from exc


class EmptyDocument(RiskTaggerError):
    """Document splitter got empty or whitespace-only input."""


class MissingPlaceholder(RiskTaggerError):
    """Prompt rendering was asked to proceed without a required value."""


class UnparseableVerdict(RiskTaggerError):
    """No well-formed JSON object could be recovered from backend output."""


class SchemaViolation(RiskTaggerError):
    """Verdict JSON parsed but is missing required keys or uses unknown values."""


class BackendFailure(RiskTaggerError):
    """Reasoning backend failed (HTTP error, timeout, empty completion)."""


class EmptyChecklist(RiskTaggerError):
    """Coverage scoring needs at least one expected entity."""


class CheckpointError(RiskTaggerError):
    """Run journal unreadable, or written by a different run, on resume."""
