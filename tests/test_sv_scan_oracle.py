"""Differential properties: the scanner's fast helpers agree with the
oracles in scan_oracle, on text dense in the characters that open, close or
escape comments, strings and brackets, and on text dense in the keywords and
the characters around them that decide where a module block or a lint
keyword starts and ends. A file of several modules parses, module by module,
as the oracle parses each port group. The candidate extractors agree with
the ones that tested each affix through a method call, on ports whose names
carry any mix of the affixes, under prefix and postfix conventions, some
with an affix that begins another."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from chipkit import sv_scan
from chipkit.regdb import NamingConvention
from chipkit.sv_scan import MalformedSource, ModuleDecl, Port, SourceFile

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


# Longer texts: up to ten runs of the alphabet above with a carriage return
# and non-ASCII letters, so that comments and strings span several lines,
# CRLFs and multi-byte characters; and the fixture RTL, whole.
LONG_ALPHABET = ALPHABET + ["\r", "é", "\u2003"]
long_texts = st.lists(st.text(alphabet=st.sampled_from(LONG_ALPHABET), max_size=40),
                      max_size=10).map("".join)
FIXTURE_RTL = sorted((Path(__file__).parent / "fixtures").rglob("*.sv"))


@settings(max_examples=500, deadline=None)
@given(text=long_texts)
def test_mask_matches_oracle_on_long_texts(text):
    got = _mask(sv_scan.mask_comments_and_strings, text)
    assert got == _mask(scan_oracle.mask_comments_and_strings, text)
    assert (got[1] is text) == (got[1] == text)  # a text with nothing to blank is itself


@pytest.mark.parametrize("path", FIXTURE_RTL, ids=lambda path: path.name)
def test_mask_matches_oracle_on_fixture_rtl(path):
    text = path.read_text(encoding="utf-8")
    assert _mask(sv_scan.mask_comments_and_strings, text) == \
        _mask(scan_oracle.mask_comments_and_strings, text)


# the alphabet above with a carriage return, a vertical tab and a non-ASCII
# letter: str.splitlines would start a line after the first two, _line_at not
LINE_ALPHABET = ALPHABET + ["\r", "\x0b", "é"]


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(LINE_ALPHABET), max_size=60))
def test_line_at_counts_the_newlines_before(text):
    offsets = range(len(text) + 3)  # and past the end
    expected = [len(text[:k].split("\n")) for k in offsets]
    # each offset counted from the start of the text, and from every cursor
    # at or before it that holds its own offset's line
    assert [sv_scan._line_at(text, k) for k in offsets] == expected
    assert all(sv_scan._line_at(text, k, (j, expected[j])) == expected[k]
               for k in offsets for j in range(k + 1))


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


# keywords and their pieces, glued to ASCII and non-ASCII word characters
# (a letter, 'ß', the Arabic-Indic digit three, a superscript two, '_') and
# to characters that are not (a middle dot, an em space, ';', '\n'); a head of
# up to three such characters puts the first keyword at offsets 0 to 3
GLUE = ["a", "9", "_", "é", "ß", "\u0663", "\u00b2", "\u00b7", "\u2003", ";", " ", "\n"]
GLUED_TOKENS = ["module", "endmodule", "end", "e", "m", "nd", "odule", "module;"] + GLUE
glued_texts = st.tuples(st.text(st.sampled_from(GLUE), max_size=3),
                        st.lists(st.sampled_from(GLUED_TOKENS), max_size=30).map("".join)
                        ).map("".join)


@settings(max_examples=1000, deadline=None)
@given(text=glued_texts)
def test_literal_led_search_matches_the_alternation(text):
    """Blocks, or the first error (nested, unbalanced or unmatched keywords),
    as the alternation pattern found them."""
    assert _blocks(sv_scan._module_blocks, text) == _blocks(
        lambda f, masked: scan_oracle.module_blocks(f, masked, scan_oracle.ALTERNATION_KW_RE),
        text)


@settings(max_examples=1000, deadline=None)
@given(text=keyword_texts, enabled=st.frozensets(st.sampled_from(scan_oracle.ALL_RULES)))
def test_lint_matches_oracle(text, enabled):
    file, rules = SourceFile("t.sv", text), scan_oracle.RuleSet(enabled=enabled)
    assert [v for v in sv_scan.lint(file) if v.rule_id in enabled] == \
        scan_oracle.lint(file, rules)


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


# whole statements that break a rule of each pass, between the pieces above
STATEMENTS = ["sub u (.a(a));", "wire w;", "reg r;", "always @(x);", "always_ff @(x);", "\n", " "]


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.one_of(keyword_texts, inst_texts, st.sampled_from(STATEMENTS)),
                     max_size=8).map("".join))
def test_lint_of_both_passes_matches_oracle(text):
    """Keyword and instantiation violations interleaved in one file: each
    pass numbers its own from the start of the file."""
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
    ("sub u (.a(a));\nwire w;\nsub v (.b(b));", ["W005", "W001", "W005"]),  # lines of both passes
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
    ("module m; \u0663endmodule \u00b7endmodule", [(0, 22)]),  # a digit is \w, a dot not
    ("module m; ßmodule endmodule", [(0, 18)]),
    ("module m; xendmodule_ endmodulé endmodule", [(0, 32)]),
    ("module m;\nendmodule", [(0, 10)]),
    ("amodule m; module n;endmodule", [(11, 20)]),
    ("\u2003\u00b7 module m;endmodule", [(3, 12)]),
    ("endmodule", "t.sv:1: endmodule without matching module"),
    (" endmodule", "t.sv:1: endmodule without matching module"),
    ("module m; end module endmodule", "t.sv:1: nested or unbalanced module keyword"),
    ("module m;\nmodule", "t.sv:2: nested or unbalanced module keyword"),
    ("\nmodule m;\nendmodulex", "t.sv:2: module without endmodule"),
])
def test_module_keyword_boundaries(text, blocks):
    expected = ("err", blocks) if isinstance(blocks, str) else ("ok", blocks)
    assert _blocks(sv_scan._module_blocks, text) == expected
    assert _blocks(scan_oracle.module_blocks, text) == expected


# The parts of a port item, as (well formed, broken) choices. An item breaks
# in at most one part, so that runs of well-formed items reach the point
# where the scanner falls back to splitting, with a bare name, a duplicate, a
# reversed or non-literal range, a comma inside brackets, a lone bracket or an
# unpacked dimension. Keywords run into names when the space between them is
# empty, and the spaces are all ones that str.strip and \s both take.
SPACES = [" ", " ", "  ", "\t", "\n", "\n  ", "\r\n", "\x0b", "\x0c", "\xa0", "\u2003", ""]
PORT_PARTS = [
    (["input", "output", "inout"], ["", "inputx", "in"]),
    (["", "logic", "wire", "reg", "bit"], ["logicx", "int"]),
    (["", "", "signed", "unsigned"], ["signedx"]),
    (["", "[7:0]", "[ 31 : 0 ]", "[0:0]", "[1:0\n]", "[\u0663:0]"],
     ["[0:7]", "[W-1:0]", "[7:0][3:0]", "[a,b]", "[", "[3:0", "]", "(", "{a,b}", "(x,y)"]),
    (["a", "b", "c", "d", "e", "f", "g", "cfg_x", "sts_y", "x9", "_"],
     ["input", "logic", "signed", "9a"]),
    ([""], ["[3]", "[0:1]", "[", "(", ")", "{", "}", "]", "{a,b}", "(a,b)", "=1"]),
]


# Each part with the space before it is one draw from every (space, part)
# pair, at most 12 x 11 of them, a size hypothesis still draws near uniformly
# from; the strategies are built once, not on every draw. A reversed range
# is one of ten broken ranges, so it also is a broken part of its own, drawn
# as often as any other: an item whole but for it is the one break that the
# scanner's run of well-formed items must stop at by its value alone.
SPACED_PARTS = [tuple(st.sampled_from([space + part for space in SPACES for part in parts])
                      for parts in choices) for choices in PORT_PARTS]
REVERSED = len(PORT_PARTS)  # the broken part number of a reversed range
REVERSED_RANGES = st.sampled_from([space + part for space in SPACES
                                   for part in ("[0:7]", "[ 0 : 1 ]", "[3:\n31]")])
BROKEN_PART = st.integers(-len(PORT_PARTS), REVERSED)  # < 0: none
ANY_SPACE = st.sampled_from(SPACES)


@st.composite
def port_items(draw):
    broken = draw(BROKEN_PART)
    return "".join(draw(REVERSED_RANGES if broken == REVERSED and i == 3
                        else bad if i == broken else good)
                   for i, (good, bad) in enumerate(SPACED_PARTS)) + draw(ANY_SPACE)


GROUP_ITEMS = st.lists(st.one_of(port_items(), port_items(),
                                 st.sampled_from(PORT_PARTS[4][0] + SPACES)), max_size=8)
SEPARATORS = st.sampled_from([",", ",", ",", ", ", ",\n", ",,"])
HEADS = st.sampled_from(["module m (", "\nmodule m (", "module m\n  (\n"])


@st.composite
def port_groups(draw):
    """(text, (start, end)): a module header and a group of port items, bare
    names and blanks, joined by one comma or two, maybe with a trailing one."""
    items = draw(GROUP_ITEMS)
    seps = [draw(SEPARATORS) for _ in items]
    group = "".join(item + sep for item, sep in zip(items, seps))
    if group and draw(st.booleans()):
        group = group[:-len(seps[-1])]  # no trailing comma
    head = draw(HEADS)
    return head + group + ");\n", (len(head), len(head) + len(group))


def _ports(impl, text, group, *cursor):
    """The ports and diagnostics of a group; sv_scan's parser also takes a
    cursor, an (offset, line) at or before the group, to number lines from."""
    diags = []
    ports = impl(SourceFile("t.sv", text), text, group, "m", diags, *cursor)
    return ports, diags


def _cursor(text: str, offset: int) -> tuple[int, int]:
    return offset, text.count("\n", 0, offset) + 1


@settings(max_examples=600, deadline=None)
@given(case=port_groups(), data=st.data())
def test_parse_ports_matches_oracle(case, data):
    text, group = case
    cursor = _cursor(text, data.draw(st.integers(0, group[0]), label="cursor offset"))
    assert _ports(sv_scan._parse_ports, text, group, cursor) == \
        _ports(scan_oracle.parse_ports, text, group)


@pytest.mark.parametrize("group", [
    "input logic [7:0] a, b, output c",          # a bare name after a typed port
    "input a, input a, input b",                  # a duplicate, then a well-formed item
    "input [0:7] a, input [7:0] b",               # a reversed range
    "input [W-1:0] a, input b",                   # a non-literal range
    "input a [3], input b",                       # an unpacked array
    "input [1,2] a, input b",                     # a comma inside brackets
    "input a, input ( b, input c",                # an unbalanced paren swallows the rest
    "input a, input b ], input c",                # a stray closing bracket
    "input logicfoo, input bitx, input reg signed",  # keywords run into names
    "\n  input a,\n\n  input b\n  ,input c  ,  ",  # items on later lines, trailing comma
])
def test_parse_ports_cases_match_oracle(group):
    text = "module m (" + group + ");\n"
    span = (len("module m ("), len("module m (") + len(group))
    assert _ports(sv_scan._parse_ports, text, span, (0, 1)) == \
        _ports(scan_oracle.parse_ports, text, span)


# Files of one to four modules, each a port_groups draw, with blank lines,
# comments and CRLFs between them. A draw whose parentheses do not balance
# where its group ends is drawn again: the header parser would end that
# group elsewhere, and the oracle takes the group it is given.
BETWEEN = st.sampled_from(["", "\n", "\r\n", "\n\n", "// c\n", "/* a\nb */\r\n", "\r\n\r\n"])
BALANCED_GROUPS = port_groups().filter(
    lambda case: scan_oracle.match_paren(case[0], case[0].index("("), len(case[0])) == case[1][1] + 1)


@st.composite
def module_files(draw):
    """(text, [(name, group span)]): modules m0, m1, ... one after another."""
    text, spans = draw(BETWEEN), []
    for i in range(draw(st.integers(1, 4))):
        module, (start, end) = draw(BALANCED_GROUPS)
        name = f"m{i}"
        base = len(text) + len(name) - 1  # "module m" became "module m<i>"
        spans.append((name, (base + start, base + end)))
        text += module.replace("module m", f"module {name}", 1) + "endmodule\n" + draw(BETWEEN)
    return text, spans


@settings(max_examples=600, deadline=None)
@given(case=module_files())
def test_parse_modules_matches_oracle_per_module(case):
    """Every module's ports and diagnostics, numbered by a cursor carried
    through the file, are the oracle's for its group, numbered by counting
    newlines from the start of the file."""
    text, spans = case
    file, diags = SourceFile("t.sv", text), []
    masked = scan_oracle.mask_comments_and_strings(file)
    expected = [ModuleDecl(name, scan_oracle.parse_ports(file, masked, span, name, diags), "t.sv")
                for name, span in spans]
    got_diags = []
    assert sv_scan.parse_modules(SourceFile("t.sv", text), got_diags) == expected
    assert got_diags == diags


_AFFIXES = ["", "", "cfg_", "sts_", "diag_", "_cfg", "_sts", "_diag", "c", "cfg_s"]
port_names = st.builds(lambda head, core, tail: head + core + tail, st.sampled_from(_AFFIXES),
                       st.sampled_from(["a", "x_1", "cfg", "sts_"]), st.sampled_from(_AFFIXES))
conventions = st.sampled_from([
    NamingConvention(),
    NamingConvention("_cfg", "_sts", "_diag", "postfix"),
    NamingConvention(control_prefix="cfg_s", status_prefix="cfg_"),  # one affix begins the other
    NamingConvention("c", "s", "d", "postfix"),
])


@st.composite
def modules(draw):
    ports = [Port(name, draw(st.sampled_from(["input", "output", "inout"])), width, line)
             for line, (name, width) in enumerate(
                 draw(st.lists(st.tuples(port_names, st.integers(1, 40)), max_size=12)), 1)]
    return ModuleDecl("m", ports, "m.sv")


@settings(max_examples=500, deadline=None)
@given(module=modules(), conv=conventions)
def test_extractors_match_oracle(module, conv):
    for extract in ("extract_csr_candidates", "extract_diag_candidates"):
        got, expected = [], []
        assert getattr(sv_scan, extract)(module, conv, got) == \
            getattr(scan_oracle, extract)(module, conv, expected), extract
        assert got == expected, extract
