"""Differential properties: the precompiled command grammar, the
first-character script reader, the stored decode index and the
direct-decode bus path agree with the token-by-token oracles in
host_oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import host_oracle
from chipkit import InputError, busmodel, emit, script, uart_host
from chipkit.memmap import MemoryMap, Region
from chipkit.regdb import CsrCandidate, EmitConfig, RegDb, db_hash, update_db
from chipkit.script import save_script
from chipkit.uart_host import ParseError
from strategies import reg_dbs

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


# a csr region needs at least 0x10 bytes for the ID register and these three
_CSR_DB, _ = update_db(RegDb(), [CsrCandidate("cfg_a", 5, "RW", "m"),
                                 CsrCandidate("sts_b", 32, "RO", "m"),
                                 CsrCandidate("cfg_c", 32, "RW", "m")])
_CSR_HASH = db_hash(_CSR_DB)


_SCRIPT_MAP = MemoryMap([Region("csr0", "csr", 0x50000000, 0x1000),
                         Region("sram0", "sram", 0x60000000, 0x10000)])


def _replay(load, run, text: str, stop_on_fail: bool = False):
    """The formatted report and the model's state after loading and replaying
    text, or the error that loading raised."""
    soc = busmodel.build_soc(_SCRIPT_MAP, [("csr0", _CSR_DB, _CSR_HASH)])
    try:
        script_ = load(text)
    except InputError as err:
        return "err", str(err)
    report = run(soc, script_, stop_on_fail)
    return "ok", uart_host.format_report(report), report, _state(soc)


def _new(text, stop_on_fail=False):
    return _replay(script.load_script, uart_host.run_script, text, stop_on_fail)


def _old(text, stop_on_fail=False):
    return _replay(host_oracle.load_script, host_oracle.run_script, text, stop_on_fail)


SCRIPT_LINES = st.sampled_from([
    "# comment", "#", "  # indented comment", "> R 0x0", ">W 0x4 0x5", ">",
    "< OK", "<", " < 0x00000001 ", "", "   ", "garbage", "x > R 0", "\t> Q",
])


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(SCRIPT_LINES, max_size=12),
       ending=st.sampled_from(["\n", "\r\n", ""]))
def test_load_script_matches_oracle(lines, ending):
    text = ending.join(lines) + ending
    assert _new(text) == _old(text)


# every line break str.splitlines honours, and whitespace str.strip removes
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
PADDING = ["", " ", "\t", "\u3000", "\xa0", "\x1f", " \t"]
ADDRS = [0x50000000, 0x50000004, 0x50000008, 0x5000000c, 0x50000ffc, 0x60000000,
         0x60000004, 0x6000fffc, 0x60000002, 0x70000000]
DATA = [0, 1, 0x1f, 0xdeadbeef, 0xffffffff]
ANSWERS = ["OK", "0x00000000", "0x00000001", "0xdeadbeef", "0x0000001f", "ERR XREAD",
           "ERR UNMAPPED", "ERR MISALIGNED", "ERR PARSE X", "ERR PARSE", "ok", "",
           f"0x{_CSR_HASH:08x}"]
# (before, after, line break) for one line
FRAMES = st.sampled_from([(a, b, eol) for a in PADDING for b in PADDING for eol in LINE_BREAKS])
# steps as save_script writes an R or W of format_word words
CANONICAL_STEPS = st.sampled_from([
    f"> {command}\n< {answer}\n" for addr in ADDRS for answer in ANSWERS
    for command in [f"R 0x{addr:08x}"] + [f"W 0x{addr:08x} 0x{data:08x}" for data in DATA]])


# one change to a canonical step, each of which takes it out of that form
NEAR_MISSES = [
    lambda s: s.replace("\n< ", " \n< ", 1),  # a blank after the command
    lambda s: s[:-1] + " \n",  # a blank after the response
    lambda s: s[:-1] + "\t\n",
    lambda s: s[:-1] + "\x0c\n",  # a line break that is whitespace too
    lambda s: s[:-1] + "\u00e9\n",
    lambda s: s.replace("\n", "\r\n"),
    lambda s: s.replace("\n", "\r", 1),
    lambda s: s.replace("> R", "> r").replace("> W", "> w"),
    lambda s: s.replace("0x", "0X", 1),
    lambda s: s.replace("0x", "0x0", 1),  # a ninth digit
    lambda s: s.replace(" 0x", "\t0x", 1),
    lambda s: " " + s,
    lambda s: s.replace("> ", ">", 1),
    lambda s: s.replace("> ", ">  ", 1),
    lambda s: s.replace("\n< ", "\n<", 1),
    lambda s: s.replace("\n< ", "\n <", 1),
    lambda s: s.replace("\n< ", "\n<  ", 1),
    lambda s: s.replace("\n< ", "\n\n< ", 1),
    lambda s: s.replace("\n< ", "\n# note\n< ", 1),
]
NEAR_CANONICAL_STEPS = st.builds(lambda step, change: change(step), CANONICAL_STEPS,
                                 st.sampled_from(NEAR_MISSES))


def _long(length):
    """An R of the first SRAM word whose command is length characters long."""
    return "R 0x" + "0" * (length - 12) + "60000000"


# commands of every form, with words in any case, prefix and zero padding
COMMANDS = st.sampled_from(sorted({
    command for word in [prefix + "0" * zeros + f"{value:x}" for prefix in ("", "0x", "0X")
                         for zeros in range(4) for value in ADDRS + DATA]
    for command in (f"R {word}", f"r {word}", f"W {word} {word}", f"w\t{word}  {word}",
                    f"R {word} {word}", f"W {word}", f"X {word}", f"R {word}\u3000")}
    | {"?", "Q", "q", "R", "R 0xZZ", f"R 1{'0' * 8}", _long(1024), _long(1025), ""}))


@st.composite
def script_steps(draw):
    """A command line and its response line, or any one line, each padded and
    ended by any line break."""
    command, answer = draw(COMMANDS), f"< {draw(st.sampled_from(ANSWERS))}"
    pair = [f"> {command}", answer]
    lines = draw(st.sampled_from([
        pair, pair, pair, pair, [f">{command}", "#", answer], [f"> {command}", "", answer],
        [f"> {command}"], [answer], ["<"], ["# comment"], ["#"], [""], ["garbage"],
        ["x > R 0"], ["< caf\u00e9"]]))
    return "".join(before + line + after + eol
                   for line in lines for before, after, eol in [draw(FRAMES)])


@settings(max_examples=1000, deadline=None)
@given(chunks=st.lists(CANONICAL_STEPS | NEAR_CANONICAL_STEPS | script_steps(), max_size=16),
       cut=st.booleans(), stop_on_fail=st.booleans())
def test_scan_and_replay_match_the_line_loader(chunks, cut, stop_on_fail):
    """Byte-identical reports, bus state, errors and line numbers, for canonical
    steps amid near misses and steps and lines of any other form, with any line
    break, and a last line without one."""
    text = "".join(chunks)
    if cut:
        text = text.rstrip("\n")
    assert _new(text, stop_on_fail) == _old(text, stop_on_fail)


def _replays(test, text, build, stop_on_fail):
    """A TestScript replayed by the line loop, and its text loaded and
    replayed by run_script, each on a model from build."""
    runs = []
    for run, script_ in ((host_oracle.run_script, test),
                         (uart_host.run_script, script.load_script(text))):
        soc = build()
        report = run(soc, script_, stop_on_fail)
        runs.append((uart_host.format_report(report), report, _state(soc)))
    return runs


@settings(max_examples=200, deadline=None)
@given(db=reg_dbs(), other=reg_dbs(), stop_on_fail=st.booleans())
def test_generated_selftest_replays_as_before(db, other, stop_on_fail):
    """A self-test that emit builds replays as before, against its own
    database and against another."""
    cfg = EmitConfig(block_name="b", base_address=0x50000000, csr_region_size_bytes=0x1000)
    text = emit.emit_selftest(emit.prepare(db, cfg, db_hash(db)))
    test = host_oracle.load_script(text)
    for model_db in (db, other):
        old, new = _replays(
            test, text,
            lambda: busmodel.build_soc(_SCRIPT_MAP, [("csr0", model_db, db_hash(model_db))]),
            stop_on_fail)
        assert old == new


def test_region_test_replays_as_before():
    """The fault sweep's region test replays as before under every fault."""
    rows = busmodel.gen_region_test(_SCRIPT_MAP, "sram0")
    test = host_oracle.TestScript([host_oracle.ScriptStep(*row) for row in rows])
    faults = [None] + [busmodel.FaultConfig(kind, bit, "sram0")
                       for kind in (busmodel.FAULT_ADDRESS_BIT, busmodel.FAULT_DATA_BIT)
                       for bit in (0, 2, 7, 15, 31)]
    for fault in faults:
        for stop_on_fail in (False, True):
            old, new = _replays(
                test, save_script(rows),
                lambda: busmodel.build_soc(_SCRIPT_MAP, [("csr0", _CSR_DB, _CSR_HASH)],
                                           fault=fault),
                stop_on_fail)
            assert old == new, fault


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
    dbs = [(r.name, _CSR_DB, _CSR_HASH) for r in regions if r.kind == "csr"]
    soc, ref = (busmodel.build_soc(memmap, dbs, sram_mode=mode, seed=seed, fault=fault)
                for _ in range(2))
    for is_write, addr, data in ops:
        if is_write:
            assert busmodel.bus_write(soc, addr, data) == host_oracle.bus_write(ref, addr, data)
        else:
            assert busmodel.bus_read(soc, addr) == host_oracle.bus_read(ref, addr)
        assert _state(soc) == _state(ref)
