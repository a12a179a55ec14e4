import pytest
from hypothesis import given
from hypothesis import strategies as st

from verbfocus.text import has_tokens, is_normalized, normalize_text, tokenize


def test_normalize_examples():
    assert normalize_text("A Man, Eating   a sandwich!") == "a man eating a sandwich"
    assert normalize_text("  tabs\tand\nnewlines ") == "tabs and newlines"
    assert normalize_text("...") == ""


def test_tokenize():
    assert tokenize("Dogs bark. Cats don't!") == ["dogs", "bark", "cats", "don", "t"]
    assert tokenize("") == []
    assert tokenize("   ") == []
    assert not has_tokens("!!! ...")


@given(st.text(max_size=80))
def test_normalize_idempotent(s):
    once = normalize_text(s)
    assert normalize_text(once) == once
    if once:
        assert is_normalized(once)


@given(st.text(max_size=80))
def test_tokens_are_normalized_words(s):
    for tok in tokenize(s):
        assert tok == normalize_text(tok)
        assert " " not in tok


@given(st.text(max_size=80))
def test_has_tokens_agrees_with_tokenize(s):
    assert has_tokens(s) == bool(tokenize(s))


@given(st.text(max_size=80))
def test_tokenize_is_split_of_normalize_text(s):
    assert tokenize(s) == normalize_text(s).split()


def test_is_normalized_rejects_empty_and_upper():
    assert not is_normalized("")
    assert not is_normalized("Upper case")
    assert is_normalized("lower case")
