"""Differential properties: the precompiled command grammar, the
first-character script reader and the stored decode index agree with the
token-by-token oracles in host_oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import host_oracle
from chipkit import InputError, script, uart_host
from chipkit.memmap import MemoryMap, Region
from chipkit.uart_host import ParseError

# verbs in both cases, separators, hex digits and prefix characters, a
# non-hex letter, and whitespace that str.strip removes but the token
# separator does not; the newline reaches the old per-token ``$``
COMMAND_ALPHABET = list("RWrw?Qq xX0123456789abcdefg\t\r\v_\n") + list("RW 0 \t")
HEX_DIGITS = "0123456789abcdefABCDEF"


def _parse(impl, line: str):
    try:
        return "ok", impl(line)
    except ParseError as err:
        return "err", err.token


@st.composite
def padded_words(draw):
    """A hex word, possibly 0x-prefixed, zero-padded to well past 8 digits."""
    prefix = draw(st.sampled_from(["", "0x", "0X"]))
    zeros = "0" * draw(st.integers(0, 40))
    digits = draw(st.text(alphabet=st.sampled_from(HEX_DIGITS), min_size=0, max_size=10))
    return prefix + zeros + digits


@st.composite
def command_lines(draw):
    """A verb and up to three words, mostly separated by blanks and tabs,
    padded by whitespace that strip removes."""
    pad = st.text(alphabet=st.sampled_from(list(" \t\v\r\n")), max_size=2)
    sep = st.sampled_from([" ", "\t", "  ", " \t", " ", "\t", "\n ", "\v", ""])
    verb = draw(st.sampled_from(["R", "W", "r", "w", "?", "Q", "q", "X", ""]))
    words = draw(st.lists(padded_words(), max_size=3))
    return draw(pad) + verb + "".join(draw(sep) + w for w in words) + draw(pad)


@settings(max_examples=1000, deadline=None)
@given(line=st.text(alphabet=st.sampled_from(COMMAND_ALPHABET), max_size=24))
def test_parse_command_matches_oracle(line):
    assert _parse(uart_host.parse_command, line) == _parse(host_oracle.parse_command, line)


@settings(max_examples=1000, deadline=None)
@given(line=command_lines())
def test_parse_command_matches_oracle_on_padded_words(line):
    assert _parse(uart_host.parse_command, line) == _parse(host_oracle.parse_command, line)


def test_parse_command_word_width_boundary():
    for token in ("ffffffff", "0xFFFFFFFF", "0" * 30 + "ffffffff", "100000000",
                  "0x" + "0" * 30 + "100000000", "0", "0x0", "00", "0x"):
        for line in (f"R {token}", f"W {token} 1", f"W 4 {token}"):
            assert _parse(uart_host.parse_command, line) == \
                _parse(host_oracle.parse_command, line), line


def _load(impl, text: str):
    try:
        return "ok", impl(text).steps
    except InputError as err:
        return "err", str(err)


SCRIPT_LINES = st.sampled_from([
    "# comment", "#", "  # indented comment", "> R 0x0", ">W 0x4 0x5", ">",
    "< OK", "<", " < 0x00000001 ", "", "   ", "garbage", "x > R 0", "\t> Q",
])


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(SCRIPT_LINES, max_size=12),
       ending=st.sampled_from(["\n", "\r\n", ""]))
def test_load_script_matches_oracle(lines, ending):
    text = ending.join(lines) + ending
    assert _load(script.load_script, text) == _load(host_oracle.load_script, text)


@st.composite
def shuffled_maps(draw):
    """Non-overlapping aligned regions, listed in random order."""
    slots = draw(st.lists(st.integers(0, 63), unique=True, max_size=10))
    regions = []
    for i, slot in enumerate(slots):
        size = 1 << draw(st.integers(2, 12))  # at most one 4 KiB slot
        regions.append(Region(f"r{i}", "sram", slot << 12, size))
    return draw(st.permutations(regions))


def _linear_decode(regions, addr):
    return next((r for r in regions if r.contains(addr)), None)


@settings(max_examples=1000, deadline=None)
@given(regions=shuffled_maps(), addrs=st.lists(st.integers(0, (64 << 12) + 8), max_size=20))
def test_region_at_matches_linear_scan(regions, addrs):
    memmap = MemoryMap(regions)
    assert memmap.validate() == []
    for addr in addrs + [r.base for r in regions] + [r.end - 1 for r in regions] \
            + [r.end for r in regions]:
        expected = _linear_decode(regions, addr)
        assert memmap.region_at(addr) == expected
        assert host_oracle.region_at(memmap, addr) == expected  # needs base order

