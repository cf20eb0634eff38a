"""Differential properties: the regex-driven scanner helpers agree with the
oracles in scan_oracle, on text dense in the characters that open, close or
escape comments, strings and brackets, and on text dense in the keywords and
the characters around them that decide where a module block or a lint
keyword starts and ends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from chipkit import sv_scan
from chipkit.sv_scan import ALL_RULES, MalformedSource, RuleSet, SourceFile

# every character the scanners branch on, plus filler; the openers and the
# newline are repeated so comments, strings and lines start often
ALPHABET = list('/*"\\\n()[]{},a') + list('/*"\n') + [" "]
texts = st.text(alphabet=st.sampled_from(ALPHABET), max_size=60)


def _mask(impl, text: str, path: str = "t.sv"):
    try:
        return "ok", impl(SourceFile(path, text))
    except MalformedSource as err:
        return "err", str(err)


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
    assert got == ("err", f"t.sv:{line}: unterminated block comment")


@pytest.mark.parametrize("text, line", [
    ("/*", 1),
    ("a\nb\n  /* open", 3),
    ('"/*"\n/* x */\n// /*\n/*/', 4),
    ('"a\\\n/*"\n/*', 3),  # escaped newline keeps the string open
])
def test_unterminated_comment_line(text, line):
    with pytest.raises(MalformedSource, match=f"^t.sv:{line}: unterminated block comment$"):
        sv_scan.mask_comments_and_strings(SourceFile("t.sv", text))


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


# keywords and the characters that end or continue an identifier next to
# them: ASCII digits and '_', a non-ASCII letter, '@', space and newline;
# brackets, '.', ',' and ';' form instantiations, and the comment and
# string openers hide keywords or break the file
KEYWORD_TOKENS = ["module", "endmodule", "wire", "reg", "always", "always_ff", "@", "(", ")",
                  ".", ";", ",", "*", "_", "9", "a", "é", " ", " ", "\n", "\t", "//", "/*", "*/", '"']
keyword_texts = st.lists(st.sampled_from(KEYWORD_TOKENS), max_size=40).map("".join)


def _blocks(impl, text: str):
    file = SourceFile("t.sv", text)
    try:
        return "ok", impl(file, sv_scan.mask_comments_and_strings(file))
    except MalformedSource as err:
        return "err", str(err)


@settings(max_examples=1000, deadline=None)
@given(text=keyword_texts)
def test_module_blocks_match_oracle(text):
    assert _blocks(sv_scan._module_blocks, text) == _blocks(scan_oracle.module_blocks, text)


@settings(max_examples=1000, deadline=None)
@given(text=keyword_texts, enabled=st.frozensets(st.sampled_from(ALL_RULES)))
def test_lint_matches_oracle(text, enabled):
    file, rules = SourceFile("t.sv", text), RuleSet(enabled=enabled)
    assert sv_scan.lint(file, rules) == scan_oracle.lint(file, rules)


# the pieces of "head inst (.pin(sig), ...);": names that a digit, '_' or a
# non-ASCII letter continue or precede, whitespace, brackets and separators
INST_TOKENS = ["a", "b", "_", "9", "x9", "é", "module", " ", " ", "\n", "\t",
               "(", ")", ".", ";", ",", "*", "(.", ".a(a)", ".b(c)"]
inst_texts = st.lists(st.sampled_from(INST_TOKENS), max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(text=inst_texts)
def test_instantiations_match_oracle(text):
    assert [(m.span(), m.groups()) for m in sv_scan._instantiations(text, text[::-1])] == \
        [(m.span(), m.groups()) for m in scan_oracle._INST_RE.finditer(text)]


@settings(max_examples=1000, deadline=None)
@given(text=inst_texts)
def test_w005_matches_oracle(text):
    file = SourceFile("t.sv", text)
    assert sv_scan.lint(file) == scan_oracle.lint(file)


@pytest.mark.parametrize("text, rules", [
    ("9wire x;", ["W001"]),        # a digit does not open an identifier
    ("09reg x;", ["W002"]),
    ("wireé x;", ["W001"]),        # identifiers are ASCII
    ("éreg x;", ["W002"]),
    ("a9wire x;", []),
    ("_9reg x;", []),
    ("_wire x;", []),
    ("wire9 x;", []),
    ("always_ffx @(x);", []),
    ("always_ff @(x);", ["W004"]),
    ("9always @(x);", ["W003"]),
    ("always" + " " * 79 + "@(x);", ["W003"]),
    ("always" + " " * 80 + "@(x);", []),
    ("sub u (.a(a));", ["W005"]),
    ("sub\n  u\n  (\n  .a(a));", ["W005"]),
    ("sub u (.a(a), .b(c));", []),
    ("9sub u (.a(a));", []),        # \b is Unicode-aware: no name starts in "9sub"
    ("ésub u (.a(a));", []),
    ("x y sub u (.a(a));", ["W005"]),
    ("sub u (.a(a)) v w (.b(b));", ["W005"]),  # one match runs on to the ';'
])
def test_lint_keyword_boundaries(text, rules):
    file = SourceFile("t.sv", text)
    assert [v.rule_id for v in sv_scan.lint(file)] == rules
    assert sv_scan.lint(file) == scan_oracle.lint(file)


@pytest.mark.parametrize("text, blocks", [
    ("module m; endmodule", [(0, 10)]),
    ("module m; xmodule endmodule", [(0, 18)]),
    ("module m; endmodulex endmodule", [(0, 21)]),
    ("module m; émodule endmodule", [(0, 18)]),   # \b is Unicode-aware here
    ("module m; 9module endmodule", [(0, 18)]),
    ("module m;endmodule\nmodule n;endmodule", [(0, 9), (19, 28)]),
])
def test_module_keyword_boundaries(text, blocks):
    assert _blocks(sv_scan._module_blocks, text) == ("ok", blocks)
    assert _blocks(scan_oracle.module_blocks, text) == ("ok", blocks)
