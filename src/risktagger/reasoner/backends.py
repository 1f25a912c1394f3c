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
from typing import TYPE_CHECKING, Protocol

from ..errors import BackendFailure
from ..upstream import Upstream

if TYPE_CHECKING:
    from ..upstream import Response, Session

LLM_KEY_ENV = "RISKTAGGER_LLM_KEY"

DEFAULT_MAX_TOKENS = 2048


class BackendPort(Protocol):
    name: str

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str: ...


class HttpLlmBackend:
    """Chat-completions adapter; the endpoint must accept an OpenAI-style POST,
    sent through an upstream.Upstream, which holds the retry, rate-limit and
    Retry-After policy. The bearer token is read from RISKTAGGER_LLM_KEY only."""

    name = "llm"

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        session: Session | None = None,
        backoff_base_s: float = 1.0,
        timeout_s: float = 120.0,
    ):
        self.endpoint = endpoint
        self.api_key = os.environ.get(LLM_KEY_ENV, "")
        self.model = model
        self.upstream = Upstream(BackendFailure, "LLM endpoint", 0.0, timeout_s, backoff_base_s, session)

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return self.upstream.send("POST", self.endpoint, _completion, json=body, headers=headers)


def _completion(resp: Response) -> str:
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise BackendFailure(f"malformed completion response: {exc}") from exc
    if not content:
        raise BackendFailure("empty completion")
    return content
