"""Completion and fill-mask clients: HTTP transport, response cache, stubs.

Wire contracts:
  completion  POST {"prompt", "max_tokens", "temperature", "beam_size"}
              -> {"candidates": [str, ...]}
  fill-mask   POST {"text_with_masks", "top_k"}
              -> {"fills": [[str, ...], ...]}   one ranked list per mask

Responses are cached under a digest of the full request body; a cache hit
never touches the transport. The stub clients replay a table-driven
transcript keyed by the final Input line (completions) or the masked text
(fills), so tests and offline runs are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

from .corpus import read_jsonl

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecodeParams:
    beam_size: int = 4
    max_tokens: int = 512
    temperature: float = 0.7


# Decode presets for the three request families.
HARD_NEGATIVE_DECODE = DecodeParams(beam_size=4, max_tokens=512, temperature=0.7)
EXTRACTION_DECODE = DecodeParams(beam_size=4, max_tokens=256, temperature=0.2)
POSITIVE_DECODE = DecodeParams(beam_size=1, max_tokens=512, temperature=0.7)


@dataclass(frozen=True)
class CompletionClientConfig:
    endpoint: str = ""
    auth_env: str = "VERBFOCUS_API_TOKEN"
    timeout: float = 30.0
    max_retries: int = 3
    cache_dir: str | None = None


class ClientError(RuntimeError):
    """Transport failure after retries were exhausted."""


class CompletionClient(Protocol):
    def complete(self, prompt: str, decode: DecodeParams) -> list[str]: ...


class FillMaskClient(Protocol):
    def fill(self, text_with_masks: str, top_k: int) -> list[list[str]]: ...


def request_digest(body: dict) -> str:
    """Stable digest of a request body; the cache key."""
    canonical = json.dumps(body, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def completion_body(prompt: str, decode: DecodeParams) -> dict:
    return {
        "prompt": prompt,
        "max_tokens": decode.max_tokens,
        "temperature": decode.temperature,
        "beam_size": decode.beam_size,
    }


def fill_body(text_with_masks: str, top_k: int) -> dict:
    return {"text_with_masks": text_with_masks, "top_k": top_k}


class ResponseCache:
    """One file per request digest holding the verbatim response JSON.

    Reads are lock-free; writes are serialized and land via atomic rename.
    """

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _path(self, digest: str) -> Path:
        return self.dir / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        path = self._path(digest)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None

    def put(self, digest: str, response: dict) -> None:
        with self._write_lock:
            tmp = self._path(digest).with_suffix(".tmp")
            tmp.write_text(json.dumps(response, ensure_ascii=False), encoding="utf-8")
            os.replace(tmp, self._path(digest))


def with_retries(fn: Callable[[], dict], max_retries: int, sleep=time.sleep) -> dict:
    """Run ``fn`` with exponential backoff; raise ClientError when exhausted."""
    delay = 0.5
    last: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            return fn()
        except ClientError:
            raise
        except Exception as e:  # transport-level failures only
            last = e
            if attempt < max_retries:
                log.warning("request failed (%s), retry %d/%d", e, attempt + 1, max_retries)
                sleep(delay)
                delay *= 2
    raise ClientError(f"request failed after {max_retries + 1} attempts: {last}")


class HttpTransport:
    """POST JSON transport with bearer auth from a configured env var."""

    def __init__(self, config: CompletionClientConfig):
        self.config = config
        self.network_calls = 0

    def post(self, body: dict) -> dict:
        import requests

        self.network_calls += 1
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        resp = requests.post(
            self.config.endpoint, json=body, headers=headers, timeout=self.config.timeout
        )
        resp.raise_for_status()
        return resp.json()


def final_input_line(prompt: str) -> str:
    """The query caption of a rendered prompt: its last Input line."""
    matches = re.findall(r"^Input: (.*)$", prompt, re.MULTILINE)
    if not matches:
        raise ValueError("prompt has no Input line")
    return matches[-1]


@dataclass
class StubCompletionClient:
    """Transcript-driven completion client for offline runs.

    The transcript maps the query caption (the prompt's final Input line) to
    a list of candidate completions. Unknown captions yield no candidates.
    """

    transcript: dict[str, list[str]]
    calls: list[dict] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str | Path) -> "StubCompletionClient":
        table: dict[str, list[str]] = {}

        def entry(obj):
            table[obj["input"]] = list(obj["candidates"])

        read_jsonl(path, entry, ValueError)
        return cls(table)

    def complete(self, prompt: str, decode: DecodeParams) -> list[str]:
        self.calls.append(completion_body(prompt, decode))
        key = final_input_line(prompt)
        if key not in self.transcript:
            log.warning("stub transcript has no entry for %r", key)
            return []
        return list(self.transcript[key])


@dataclass
class StubFillMaskClient:
    """Transcript-driven fill-mask client keyed by the masked text."""

    transcript: dict[str, list[list[str]]]
    calls: list[dict] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str | Path) -> "StubFillMaskClient":
        table: dict[str, list[list[str]]] = {}

        def entry(obj):
            table[obj["text_with_masks"]] = [list(f) for f in obj["fills"]]

        read_jsonl(path, entry, ValueError)
        return cls(table)

    def fill(self, text_with_masks: str, top_k: int) -> list[list[str]]:
        self.calls.append(fill_body(text_with_masks, top_k))
        fills = self.transcript.get(text_with_masks)
        if fills is None:
            log.warning("stub transcript has no entry for %r", text_with_masks)
            return []
        return [list(f)[:top_k] for f in fills]


class HttpCompletionClient:
    def __init__(self, config: CompletionClientConfig, transport: HttpTransport | None = None):
        self.config = config
        self.transport = transport or HttpTransport(config)

    def complete(self, prompt: str, decode: DecodeParams) -> list[str]:
        body = completion_body(prompt, decode)
        resp = with_retries(lambda: self.transport.post(body), self.config.max_retries)
        if "candidates" not in resp or not isinstance(resp["candidates"], list):
            raise ClientError(f"malformed completion response: {sorted(resp)}")
        return [str(c) for c in resp["candidates"]]


class HttpFillMaskClient:
    def __init__(self, config: CompletionClientConfig, transport: HttpTransport | None = None):
        self.config = config
        self.transport = transport or HttpTransport(config)

    def fill(self, text_with_masks: str, top_k: int) -> list[list[str]]:
        body = fill_body(text_with_masks, top_k)
        resp = with_retries(lambda: self.transport.post(body), self.config.max_retries)
        if "fills" not in resp or not isinstance(resp["fills"], list):
            raise ClientError(f"malformed fill response: {sorted(resp)}")
        return [[str(x) for x in fills] for fills in resp["fills"]]


class CachedCompletionClient:
    """Wraps a completion client with the digest-keyed response cache."""

    def __init__(self, inner: CompletionClient, cache_dir: str | Path):
        self.inner = inner
        self.cache = ResponseCache(cache_dir)
        self.hits = 0
        self.misses = 0

    def complete(self, prompt: str, decode: DecodeParams) -> list[str]:
        digest = request_digest(completion_body(prompt, decode))
        cached = self.cache.get(digest)
        if cached is not None:
            self.hits += 1
            return [str(c) for c in cached["candidates"]]
        self.misses += 1
        candidates = self.inner.complete(prompt, decode)
        self.cache.put(digest, {"candidates": candidates})
        return candidates


class CachedFillMaskClient:
    def __init__(self, inner: FillMaskClient, cache_dir: str | Path):
        self.inner = inner
        self.cache = ResponseCache(cache_dir)
        self.hits = 0
        self.misses = 0

    def fill(self, text_with_masks: str, top_k: int) -> list[list[str]]:
        digest = request_digest(fill_body(text_with_masks, top_k))
        cached = self.cache.get(digest)
        if cached is not None:
            self.hits += 1
            return [list(f) for f in cached["fills"]]
        self.misses += 1
        fills = self.inner.fill(text_with_masks, top_k)
        self.cache.put(digest, {"fills": fills})
        return fills

