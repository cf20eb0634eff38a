"""Differential properties: the precompiled command grammar, the
first-character script reader, the stored decode index and the
direct-decode bus path agree with the token-by-token oracles in
host_oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import host_oracle
from chipkit import InputError, busmodel, script, uart_host
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import CsrCandidate, RegDb, update_db
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
    return next((r for r in regions if r.base <= addr < r.end), None)


@settings(max_examples=1000, deadline=None)
@given(regions=shuffled_maps(), addrs=st.lists(st.integers(0, (64 << 12) + 8), max_size=20))
def test_region_at_matches_linear_scan(regions, addrs):
    memmap = MemoryMap(regions)  # raises DataError unless the map is valid
    for addr in addrs + [r.base for r in regions] + [r.end - 1 for r in regions] \
            + [r.end for r in regions]:
        expected = _linear_decode(regions, addr)
        assert memmap.region_at(addr) == expected
        assert host_oracle.region_at(memmap, addr) == expected  # needs base order



# a csr region needs at least 0x10 bytes for the ID register and these three
_CSR_DB, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 5, "RW", "m", 1),
                                 CsrCandidate("sts_b", 32, "RO", "m", 2),
                                 CsrCandidate("cfg_c", 32, "RW", "m", 3)])


@st.composite
def bus_cases(draw):
    """A map of csr, sram and peripheral regions listed in random order, an
    SRAM mode, no fault or any valid one, and a sequence of reads and writes
    at in-region, edge, misaligned, unmapped and wider-than-32-bit addresses,
    with data wider than 32 bits too."""
    slots = draw(st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=6))
    regions = []
    for i, slot in enumerate(slots):
        kind = draw(st.sampled_from(["csr", "sram", "peripheral"]))
        size = 1 << draw(st.integers(4 if kind == "csr" else 2, 12))
        regions.append(Region(f"r{i}", kind, slot << 12, size))
    regions = draw(st.permutations(regions))
    stores = [r for r in regions if r.kind != "csr"]
    fault = target = None
    if stores and draw(st.booleans()):
        target = draw(st.sampled_from(stores))
        top = max(2, target.size_bytes.bit_length() - 2)  # its highest offset bit
        fault = busmodel.FaultConfig(
            draw(st.sampled_from([busmodel.FAULT_ADDRESS_BIT, busmodel.FAULT_DATA_BIT])),
            draw(st.integers(0, 31) | st.integers(2, top)), target.name)
    mode = draw(st.sampled_from([busmodel.SRAM_STRICT_X, busmodel.SRAM_RANDOM]))

    def words_of(region):  # every word of the region and the one past its end
        return st.integers(0, region.size_bytes // 4).map(lambda w: region.base + 4 * w)

    # the faulted store half the time, so that its faults show in most cases
    addrs = (st.sampled_from([target] if target else regions).flatmap(words_of)
             | st.sampled_from(regions).flatmap(words_of)
             | st.builds(lambda r, off: r.base + off, st.sampled_from(regions),
                         st.integers(-8, 64))
             | st.integers(0, 16 << 12) | st.integers(0, 1 << 33))
    ops = draw(st.lists(st.tuples(st.booleans(), addrs, st.integers(0, 1 << 33)),
                        min_size=4, max_size=60))
    return regions, mode, draw(st.integers(0, 3)), fault, ops


def _state(soc):
    return ({n: dict(b.values) for n, b in soc.csr_blocks.items()},
            {n: dict(s.words) for n, s in soc.srams.items()}, soc.stats)


@settings(max_examples=500, deadline=None)
@given(case=bus_cases())
def test_bus_path_matches_oracle(case):
    regions, mode, seed, fault, ops = case
    memmap = MemoryMap(regions)
    dbs = [(r.name, _CSR_DB) for r in regions if r.kind == "csr"]
    soc, ref = (busmodel.build_soc(memmap, dbs, sram_mode=mode, seed=seed, fault=fault)
                for _ in range(2))
    for is_write, addr, data in ops:
        if is_write:
            assert busmodel.bus_write(soc, addr, data) == host_oracle.bus_write(ref, addr, data)
        else:
            assert busmodel.bus_read(soc, addr) == host_oracle.bus_read(ref, addr)
        assert _state(soc) == _state(ref)
