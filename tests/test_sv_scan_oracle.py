"""Differential properties: the regex-driven scanner helpers agree with the
character-walking oracles in scan_oracle on text dense in the characters
that open, close or escape comments, strings and brackets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from chipkit import sv_scan
from chipkit.sv_scan import MalformedSource, SourceFile

# every character the scanners branch on, plus filler; the openers and the
# newline are repeated so comments, strings and lines start often
ALPHABET = list('/*"\\\n()[]{},a') + list('/*"\n') + [" "]
texts = st.text(alphabet=st.sampled_from(ALPHABET), max_size=60)


def _mask(impl, text: str, path: str = "t.sv"):
    try:
        return "ok", impl(SourceFile(path, text))
    except MalformedSource as err:
        return "err", str(err), err.path, err.line


@settings(max_examples=1000, deadline=None)
@given(text=texts)
def test_mask_matches_oracle(text):
    assert _mask(sv_scan.mask_comments_and_strings, text) == \
        _mask(scan_oracle.mask_comments_and_strings, text)


@settings(max_examples=500, deadline=None)
@given(head=st.text(alphabet=st.sampled_from(list("\n()[]{},a ")), max_size=40), tail=texts)
def test_unterminated_comment_error_matches_oracle(head, tail):
    while "*/" in tail:
        tail = tail.replace("*/", "")
    text = head + "\n/*" + tail
    line = head.count("\n") + 2
    got = _mask(sv_scan.mask_comments_and_strings, text)
    assert got == _mask(scan_oracle.mask_comments_and_strings, text)
    assert got == ("err", f"t.sv:{line}: unterminated block comment", "t.sv", line)


@pytest.mark.parametrize("text, line", [
    ("/*", 1),
    ("a\nb\n  /* open", 3),
    ('"/*"\n/* x */\n// /*\n/*/', 4),
    ('"a\\\n/*"\n/*', 3),  # escaped newline keeps the string open
])
def test_unterminated_comment_line(text, line):
    with pytest.raises(MalformedSource, match="unterminated block comment") as err:
        sv_scan.mask_comments_and_strings(SourceFile("t.sv", text))
    assert (err.value.path, err.value.line) == ("t.sv", line)


@st.composite
def windows(draw):
    text = draw(texts)
    start = draw(st.integers(0, len(text)))
    limit = draw(st.integers(0, len(text)))
    return text, start, limit


@settings(max_examples=1000, deadline=None)
@given(window=windows())
def test_match_paren_matches_oracle(window):
    text, start, limit = window
    assert sv_scan._match_paren(text, start, limit) == scan_oracle.match_paren(text, start, limit)


@settings(max_examples=1000, deadline=None)
@given(text=texts, base=st.integers(0, 1 << 20))
def test_split_top_commas_matches_oracle(text, base):
    assert sv_scan._split_top_commas(text, base) == scan_oracle.split_top_commas(text, base)
