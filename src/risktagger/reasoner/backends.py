"""Reasoning backend port and the live chat-completions adapter.

A backend is anything with complete(prompt, temperature, max_tokens) -> str
and a stable `name` tag that ends up in every assessment it produced. One
whose complete() is pure computation sets `in_process = True`, and the tracer
then keeps its calls off worker threads. The deterministic rule engine lives
in rules.py; this module holds the protocol and the HTTP adapter for a
hosted model.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..config import LLM_ENDPOINT_ENV
from ..errors import BackendFailure, RateLimited

if TYPE_CHECKING:
    import requests

LLM_KEY_ENV = "RISKTAGGER_LLM_KEY"

RETRY_ATTEMPTS = 3

DEFAULT_MAX_TOKENS = 2048


@runtime_checkable
class BackendPort(Protocol):
    name: str

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str: ...


class HttpLlmBackend:
    """Chat-completions adapter; the endpoint must accept an OpenAI-style POST.
    A 429 or 5xx is retried after exponential backoff, a 429 no sooner than
    its Retry-After header asks; a 429 asking for more than the retry budget
    (timeout_s * RETRY_ATTEMPTS) fails at once. The bearer token is read from
    RISKTAGGER_LLM_KEY only."""

    name = "llm"

    def __init__(
        self,
        endpoint: str | None = None,
        model: str = "default",
        session: requests.Session | None = None,
        backoff_base_s: float = 1.0,
        timeout_s: float = 120.0,
    ):
        self.endpoint = endpoint or os.environ.get(LLM_ENDPOINT_ENV, "")
        self.api_key = os.environ.get(LLM_KEY_ENV, "")
        if not self.endpoint:
            raise BackendFailure(f"no LLM endpoint configured (flag, config, or {LLM_ENDPOINT_ENV})")
        import requests  # deferred: runs on the rules backend never load it

        self.model = model
        self.session = session or requests.Session()
        self.backoff_base_s = backoff_base_s
        self.timeout_s = timeout_s

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        import requests

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_err = None
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                backoff = self.backoff_base_s * (2 ** (attempt - 1))
                time.sleep(max(backoff, getattr(last_err, "retry_after_s", 0.0)))
            try:
                resp = self.session.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code == 429:
                last_err = RateLimited.from_headers("LLM endpoint returned 429", resp.headers)
                if last_err.retry_after_s > self.timeout_s * RETRY_ATTEMPTS:
                    raise BackendFailure(
                        f"LLM endpoint returned 429 asking to retry after {last_err.retry_after_s:g} s,"
                        " beyond the retry budget"
                    )
                continue
            if resp.status_code >= 500:
                last_err = BackendFailure(f"LLM endpoint returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BackendFailure(
                    f"LLM endpoint returned {resp.status_code}: {resp.text[:200]}"
                )
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendFailure(f"malformed completion response: {exc}") from exc
            if not content:
                raise BackendFailure("empty completion")
            return content
        raise BackendFailure(
            f"LLM endpoint unreachable after {RETRY_ATTEMPTS} attempts: {last_err}"
        )
