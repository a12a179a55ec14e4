"""Completion and fill-mask generation: one cached request path, two transports.

Wire contracts:
  completion  POST {"prompt", "max_tokens", "temperature", "beam_size"}
              -> {"candidates": [str, ...]}
  fill-mask   POST {"text_with_masks", "top_k"}
              -> {"fills": [[str, ...], ...]}   one ranked list per mask

A transport answers a request body: HttpTransport posts it to an endpoint,
ReplayTransport looks it up in a recorded transcript, so tests and offline
runs are deterministic. GenerationClient does the same for both kinds over
either transport: look the body up in the response cache under a digest of
endpoint + body, post it with retries, validate and parse the response, and
store it verbatim when it yields something. An unreadable or malformed
cache entry is a logged miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .corpus import read_jsonl, write_atomic

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


class ClientError(RuntimeError):
    """Transport failure after retries were exhausted, or a malformed response."""


def request_digest(body: dict) -> str:
    """Stable digest of a JSON object; the cache key."""
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


def _strings(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings")
    return list(value)


def _fills(value: object) -> list[list[str]]:
    if not isinstance(value, list):
        raise ValueError("fills must be a list of lists of strings")
    return [_strings(slot, "each fills slot") for slot in value]


def _field(response: object, name: str) -> object:
    if not isinstance(response, dict) or name not in response:
        raise ValueError(f"expected a JSON object with {name!r}")
    return response[name]


class ResponseCache:
    """One file per request digest holding the verbatim response JSON,
    written atomically."""

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.dir / f"{digest}.json"

    def get(self, digest: str, parse: Callable[[object], list]) -> list | None:
        """The parsed stored response; None when there is none, or when it
        cannot be read or parsed (logged)."""
        path = self._path(digest)
        try:
            return parse(json.loads(path.read_text(encoding="utf-8")))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as e:  # ValueError: bad JSON or a bad shape
            log.warning("cache entry %s is unreadable, treated as a miss: %s", path, e)
            return None

    def put(self, digest: str, response: dict) -> None:
        write_atomic(self._path(digest), json.dumps(response, ensure_ascii=False).encode("utf-8"))


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
        self.endpoint = config.endpoint
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
class ReplayTransport:
    """Transcript-driven transport for offline runs.

    The transcript maps a query caption (a completion prompt's final Input
    line) to ``{"candidates": [...]}`` and a masked text to ``{"fills":
    [...]}``. Unknown keys answer with no candidates or fills. Every posted
    body is kept in ``calls``.
    """

    transcript: dict[str, dict]
    endpoint: str = "transcript"
    calls: list[dict] = field(default_factory=list)
    network_calls = 0  # a replay never reaches the network

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayTransport":
        """Load completion lines ``{"input", "candidates"}`` and fill lines
        ``{"text_with_masks", "fills"}``; a bad line raises ValueError."""
        table: dict[str, dict] = {}

        def entry(obj):
            if "input" in obj:
                table.setdefault(obj["input"], {})["candidates"] = _strings(
                    obj["candidates"], "candidates")
            else:
                table.setdefault(obj["text_with_masks"], {})["fills"] = _fills(obj["fills"])

        read_jsonl(path, entry, ValueError)
        return cls(table, endpoint=f"transcript:{Path(path).resolve()}")

    def post(self, body: dict) -> dict:
        self.calls.append(body)
        if "prompt" in body:
            key, kind = final_input_line(body["prompt"]), "candidates"
        else:
            key, kind = body["text_with_masks"], "fills"
        response = self.transcript.get(key, {})
        if kind not in response:
            log.warning("transcript has no entry for %r", key)
            return {kind: []}
        return {kind: response[kind]}


class GenerationClient:
    """Completions and fills over one transport, with an optional response
    cache counting its hits and misses."""

    def __init__(self, transport: HttpTransport | ReplayTransport, max_retries: int = 3,
                 cache_dir: str | Path | None = None):
        self.transport = transport
        self.max_retries = max_retries
        self.cache = ResponseCache(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0

    def complete(self, prompt: str, decode: DecodeParams) -> list[str]:
        return self._request(completion_body(prompt, decode),
                             lambda resp: _strings(_field(resp, "candidates"), "candidates"))

    def fill(self, text_with_masks: str, top_k: int) -> list[list[str]]:
        return self._request(fill_body(text_with_masks, top_k),
                             lambda resp: [slot[:top_k] for slot in _fills(_field(resp, "fills"))])

    def _request(self, body: dict, parse: Callable[[object], list]) -> list:
        """Cache lookup, transport call, parse and cache store, for either kind."""
        digest = request_digest({"endpoint": self.transport.endpoint, "body": body})
        if self.cache is not None:
            result = self.cache.get(digest, parse)
            if result:
                self.hits += 1
                return result
            self.misses += 1
        response = with_retries(lambda: self.transport.post(body), self.max_retries)
        try:
            result = parse(response)
        except ValueError as e:
            raise ClientError(f"malformed response from {self.transport.endpoint}: {e}") from None
        if result and self.cache is not None:
            self.cache.put(digest, response)
        return result
