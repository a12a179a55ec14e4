"""Shared text normalization: one tokenizer for captions, verb phrases and labels.

Matching throughout the package is exact-match on normalized surface forms.
There is deliberately no lemmatization or stemming; two phrases are the same
concept iff their normalized strings are equal.
"""

from __future__ import annotations

import re

_PUNCT = re.compile(r"[^\w\s]+")
_WS = re.compile(r"\s+")
_WORD = re.compile(r"\w")


def normalize_text(raw: str) -> str:
    """Lowercase, replace punctuation with spaces, collapse whitespace."""
    s = _PUNCT.sub(" ", raw.lower())
    return _WS.sub(" ", s).strip()


def tokenize(raw: str) -> list[str]:
    """Normalized whitespace tokens of ``raw``; empty input gives [].

    One pass: str.split collapses and strips the same whitespace as
    normalize_text, so this equals normalize_text(raw).split().
    """
    return _PUNCT.sub(" ", raw.lower()).split()


def has_tokens(raw: str) -> bool:
    """Whether tokenize(raw) is non-empty, without building the tokens."""
    return _WORD.search(raw) is not None


def is_normalized(s: str) -> bool:
    return s == normalize_text(s) and bool(s)
