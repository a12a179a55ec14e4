"""One request path for completions and fills: cache, validation, transports.

Every test runs offline. A fake transport stands in for an endpoint, and a
fake ``requests`` module stands in for the network under HttpTransport.
"""

import json
import logging
import sys
from types import SimpleNamespace

import pytest

from verbfocus.cli import main
from verbfocus.clients import (ClientError, DecodeParams, GenerationClient,
                               ReplayTransport, final_input_line, with_retries)
from verbfocus.corpus import CaptionRecord, DatasetManifest, VideoRecord, save_manifest

DECODE = DecodeParams()
PROMPT = "Rewrite the caption.\nInput: a man is eating\nOutput:"


class FakeTransport:
    """Answers every post with ``respond(body)`` and counts the posts."""

    def __init__(self, endpoint, respond):
        self.endpoint = endpoint
        self.respond = respond
        self.posts = []

    def post(self, body):
        self.posts.append(body)
        return self.respond(body)


def answering(endpoint, response):
    return FakeTransport(endpoint, lambda body: response)


# -- cache correctness ------------------------------------------------------


def test_empty_result_is_not_cached(tmp_path):
    """A transcript miss answers no candidates; once the transcript has the
    entry, the same request returns it instead of a cached empty list."""
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps({"input": "a cat", "candidates": []}) + "\n")
    cache = tmp_path / "cache"
    missing = GenerationClient(ReplayTransport.from_file(transcript), cache_dir=cache)
    assert missing.complete(PROMPT, DECODE) == []
    assert list(cache.iterdir()) == []

    transcript.write_text(json.dumps({"input": "a man is eating",
                                      "candidates": ["1. a man is cooking"]}) + "\n")
    fixed = GenerationClient(ReplayTransport.from_file(transcript), cache_dir=cache)
    assert fixed.complete(PROMPT, DECODE) == ["1. a man is cooking"]
    assert (fixed.hits, fixed.misses) == (0, 1)
    again = GenerationClient(ReplayTransport.from_file(transcript), cache_dir=cache)
    assert again.complete(PROMPT, DECODE) == ["1. a man is cooking"]
    assert (again.hits, again.misses, again.transport.calls) == (1, 0, [])


def test_endpoints_sharing_a_cache_dir_stay_apart(tmp_path):
    a = answering("http://a.test", {"candidates": ["from-a"]})
    b = answering("http://b.test", {"candidates": ["from-b"]})
    for _ in range(2):
        assert GenerationClient(a, cache_dir=tmp_path).complete(PROMPT, DECODE) == ["from-a"]
        assert GenerationClient(b, cache_dir=tmp_path).complete(PROMPT, DECODE) == ["from-b"]
    assert (len(a.posts), len(b.posts)) == (1, 1)
    assert len(list(tmp_path.iterdir())) == 2


@pytest.mark.parametrize("entry", [b"not json", b"{}", b"null", b"[1, 2]", b"\xff\xfe",
                                   b'{"candidates": "abc"}', b'{"candidates": [1]}'])
def test_unreadable_cache_entry_is_a_logged_miss(tmp_path, caplog, entry):
    transport = answering("http://a.test", {"candidates": ["fresh"]})
    GenerationClient(transport, cache_dir=tmp_path).complete(PROMPT, DECODE)
    [path] = tmp_path.iterdir()
    path.write_bytes(entry)
    client = GenerationClient(transport, cache_dir=tmp_path)
    with caplog.at_level(logging.WARNING, logger="verbfocus.clients"):
        assert client.complete(PROMPT, DECODE) == ["fresh"]
    assert (client.hits, client.misses, len(transport.posts)) == (0, 1, 2)
    assert str(path) in caplog.text
    assert json.loads(path.read_text()) == {"candidates": ["fresh"]}


def test_cache_hit_never_touches_the_transport(tmp_path):
    transport = answering("http://a.test", {"fills": [["run", "walk", "sit"]]})
    cold = GenerationClient(transport, cache_dir=tmp_path)
    assert cold.fill("a man is [MASK]", 2) == [["run", "walk"]]
    warm = GenerationClient(transport, cache_dir=tmp_path)
    assert warm.fill("a man is [MASK]", 2) == [["run", "walk"]]
    assert (warm.hits, warm.misses, len(transport.posts)) == (1, 0, 1)
    # A different top_k is a different request body.
    assert warm.fill("a man is [MASK]", 3) == [["run", "walk", "sit"]]
    assert len(transport.posts) == 2


# -- response validation ----------------------------------------------------

MALFORMED = [
    ("complete", ["a man is cooking"]),
    ("complete", "a man is cooking"),
    ("complete", None),
    ("complete", {"text": "a man is cooking"}),
    ("complete", {"candidates": "a man is cooking"}),
    ("complete", {"candidates": [1, 2]}),
    ("complete", {"candidates": [["a man is cooking"]]}),
    ("fill", [["run"]]),
    ("fill", {"fills": "run"}),
    ("fill", {"fills": ["run"]}),
    ("fill", {"fills": [["run", 1]]}),
    ("fill", {"fills": [{"run": 1}]}),
]


@pytest.mark.parametrize("kind,response", MALFORMED)
def test_malformed_response_is_a_client_error(tmp_path, kind, response):
    client = GenerationClient(answering("http://a.test", response), cache_dir=tmp_path)
    with pytest.raises(ClientError, match="malformed response from http://a.test"):
        if kind == "complete":
            client.complete(PROMPT, DECODE)
        else:
            client.fill("a man is [MASK]", 5)
    assert list(tmp_path.iterdir()) == []


def test_transport_failure_after_retries_is_a_client_error():
    def refuse(body):
        raise ConnectionError("refused")

    client = GenerationClient(FakeTransport("http://a.test", refuse), max_retries=0)
    with pytest.raises(ClientError, match="after 1 attempts: refused"):
        client.complete(PROMPT, DECODE)


def test_each_retry_doubles_the_delay():
    failures = [ConnectionError("refused")] * 3

    def flaky():
        if failures:
            raise failures.pop()
        return {"ok": True}

    sleeps = []
    assert with_retries(flaky, max_retries=3, sleep=sleeps.append) == {"ok": True}
    assert sleeps == [0.5, 1.0, 2.0]

    failures[:] = [ConnectionError("refused")] * 3
    sleeps.clear()
    with pytest.raises(ClientError, match="after 3 attempts: refused"):
        with_retries(flaky, max_retries=2, sleep=sleeps.append)
    assert sleeps == [0.5, 1.0]


# -- transcript replay ------------------------------------------------------


def test_replay_keys_completions_by_final_input_line_and_fills_by_masked_text(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(
        json.dumps({"input": "a man is eating", "candidates": ["1. a man is cooking"]}) + "\n"
        + json.dumps({"text_with_masks": "a man is [MASK]", "fills": [["run", "sit"]]}) + "\n")
    transport = ReplayTransport.from_file(transcript)
    client = GenerationClient(transport)
    assert final_input_line(PROMPT) == "a man is eating"
    assert client.complete(PROMPT, DECODE) == ["1. a man is cooking"]
    assert client.fill("a man is [MASK]", 1) == [["run"]]
    assert client.fill("a dog is [MASK]", 1) == []
    assert [sorted(call) for call in transport.calls] == [
        ["beam_size", "max_tokens", "prompt", "temperature"],
        ["text_with_masks", "top_k"], ["text_with_masks", "top_k"]]


@pytest.mark.parametrize("line", [
    {"text_with_masks": "a man is [MASK]", "fills": ["run"]},
    {"text_with_masks": "a man is [MASK]", "fills": "run"},
    {"input": "a man is eating", "candidates": "1. a man is cooking"},
    {"input": "a man is eating", "candidates": [1]},
])
def test_transcript_rejects_bad_shapes_at_load_time(tmp_path, line):
    path = tmp_path / "transcript.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(ValueError, match=r"^transcript\.jsonl:1: .* must be a list"):
        ReplayTransport.from_file(path)


# -- the HTTP transport under the CLI ----------------------------------------


class FakeRequests:
    """Stands in for the ``requests`` module: answers each post from a table
    keyed by the prompt's query caption."""

    def __init__(self, table):
        self.table = table
        self.posts = []

    def post(self, url, json, headers, timeout):
        self.posts.append({"url": url, "body": json, "headers": headers, "timeout": timeout})
        payload = self.table[final_input_line(json["prompt"])]
        return SimpleNamespace(raise_for_status=lambda: None, json=lambda: payload)


def gen_over_http(tmp_path, out, table, monkeypatch):
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(DatasetManifest(
        [VideoRecord("v0", "train"), VideoRecord("v1", "train")],
        [CaptionRecord("v0", "a man eating at home"),
         CaptionRecord("v1", "a man running at home")],
        []), manifest_path)
    cfg = {"manifest": str(manifest_path), "out": str(out),
           "gen": {"backend": "llm_completion", "endpoint": "http://gen.test/v1",
                   "auth_env": "VERBFOCUS_TEST_TOKEN", "timeout": 7.5, "max_retries": 0,
                   "cache_dir": str(tmp_path / "cache")}}
    cfg_path = tmp_path / f"cfg_{out.name}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    fake = FakeRequests(table)
    monkeypatch.setitem(sys.modules, "requests", fake)
    monkeypatch.setenv("VERBFOCUS_TEST_TOKEN", "tok")
    return main(["gen", "--config", str(cfg_path)]), fake


def test_http_generation_goes_through_the_same_cache(tmp_path, monkeypatch, capsys):
    table = {"a man eating at home": {"candidates": ["1. a man cooking at home"]},
             "a man running at home": {"candidates": ["1. a man swimming at home"]}}
    code, fake = gen_over_http(tmp_path, tmp_path / "cold", table, monkeypatch)
    assert code == 0
    cold = json.loads((tmp_path / "cold" / "gen_report.json").read_text())
    assert cold["network_calls"] == 2
    assert cold["cache"] == {"hits": 0, "misses": 2}
    assert cold["generated"] == {"hard_negative": 2}
    assert {p["url"] for p in fake.posts} == {"http://gen.test/v1"}
    assert {p["timeout"] for p in fake.posts} == {7.5}
    assert {p["headers"]["Authorization"] for p in fake.posts} == {"Bearer tok"}

    code, fake = gen_over_http(tmp_path, tmp_path / "warm", table, monkeypatch)
    assert code == 0
    warm = json.loads((tmp_path / "warm" / "gen_report.json").read_text())
    assert warm["network_calls"] == 0
    assert warm["cache"] == {"hits": 2, "misses": 0}
    assert fake.posts == []
    assert (tmp_path / "cold" / "manifest_generated.jsonl").read_bytes() == \
        (tmp_path / "warm" / "manifest_generated.jsonl").read_bytes()
    capsys.readouterr()


def test_http_malformed_response_exits_2(tmp_path, monkeypatch, capsys):
    table = {"a man eating at home": {"candidates": "a man cooking at home"},
             "a man running at home": {"candidates": ["1. a man swimming at home"]}}
    code, _ = gen_over_http(tmp_path, tmp_path / "run", table, monkeypatch)
    assert code == 2
    assert "runtime failure: malformed response from http://gen.test/v1" in \
        capsys.readouterr().err
