"""Structural scanner for a synthesizable SystemVerilog subset.

Extracts module declarations (ANSI port lists, packed ranges with literal
integer bounds), classifies register and diagnostic candidates by naming
convention, and applies keyword-level style lint. Comments and string
literals are blanked before any matching, so the scanner never reacts to
commented-out code. Whole-file passes skip to what they act on with
str.find. One findall cuts each port list into its well-formed items. Every
line number (of a port, a note, an error or a lint violation) is counted in
newlines on from the last one numbered before it in the same pass.

Constructs outside the subset (parameter lists, non-literal ranges, unpacked
arrays, non-ANSI headers) are skipped with a diagnostic rather than aborting;
only structural breakage (unbalanced module/endmodule, unterminated block
comment) raises MalformedSource.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from . import InputError, Record
from .regdb import ACCESS_RO, ACCESS_RW, CsrCandidate, DiagTap, NamingConvention

MAX_CSR_WIDTH = 32

# diagnostic kinds
DIAG_SKIP = "Skip"
DIAG_WIDTH = "WidthExceeded"
DIAG_DIRECTION = "DirectionMismatch"


class MalformedSource(InputError):
    """Structurally broken source; the message names file and line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


class SourceFile(Record):
    __slots__ = ("path", "content")

    def __init__(self, path: str, content: str):
        self.path = path
        self.content = content

    @classmethod
    def from_path(cls, path) -> "SourceFile":
        return cls(str(path), Path(path).read_text(encoding="utf-8"))


class Port(NamedTuple):
    name: str
    direction: str  # input | output | inout
    width_bits: int
    line: int = 0


class ModuleDecl(NamedTuple):
    name: str
    ports: list[Port]
    path: str = ""


class Diagnostic(NamedTuple):
    kind: str
    path: str
    line: int
    message: str


# Builds a NamedTuple from a tuple of all its fields in half the time its
# keyword-taking __new__ does; for the records made once per port.
_new_tuple = tuple.__new__


# A string up to its closing quote, an unescaped newline (left unmasked) or
# the end of the text; a backslash escapes any next character, newline too.
_STRING_RE = re.compile(r'"[^"\\\n]*(?:\\(?:.|\Z)[^"\\\n]*)*"?', re.S)


def _find(text: str, sub: str, start: int) -> int:  # text.find, with len(text) for not found
    return len(text) if (at := text.find(sub, start)) < 0 else at


def mask_comments_and_strings(src: SourceFile) -> str:
    """Blank comments and string literals, preserving offsets and newlines.

    str.find skips to each '/' or '"' and on to the newline or "*/" ending a
    comment; _STRING_RE matches a string. A text with none is returned as is.
    """
    text, pieces, kept = src.content, [], 0  # text[:kept] is in pieces
    slash, quote = _find(text, "/", 0), _find(text, '"', 0)
    while (at := slash if slash < quote else quote) < len(text):
        if at == quote:
            end = _STRING_RE.match(text, at).end()
        elif text.startswith("//", at):
            end = _find(text, "\n", at)
        elif text.startswith("/*", at):
            end = text.find("*/", at + 2) + 2
            if end == 1:  # no "*/"
                raise MalformedSource(src.path, _line_at(text, at), "unterminated block comment")
        else:  # a slash that opens nothing
            slash = _find(text, "/", at + 1)
            continue
        blank = text[at:end]
        pieces += text[kept:at], "\n".join([" " * len(line) for line in blank.split("\n")]) \
            if "\n" in blank else " " * len(blank)
        kept = end
        slash = slash if slash >= end else _find(text, "/", end)
        quote = quote if quote >= end else _find(text, '"', end)
    pieces.append(text[kept:])
    return "".join(pieces) if kept else text


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# The tail that "module" and "endmodule" share, which re skips to at C speed;
# _module_blocks looks back from each hit for "end" and for a word start.
_MODULE_KW_RE = re.compile(r"module\b")
_WORD_START_RE = re.compile(r"(?<!\w)")  # matched at a position with no \w before it
_NAME_RE = re.compile(rf"\s*({_IDENT})")
_PORT_ITEM_RE = re.compile(
    rf"^\s*(?:(input|output|inout)\s+)?"
    rf"(?:(logic|wire|reg|bit)\s*)?"
    rf"(?:(signed|unsigned)\s+)?"
    rf"(?:\[\s*([^\]]*?)\s*\]\s*)?"
    rf"({_IDENT})\s*(\[[^\]]*\])?\s*$"
)
_LITERAL_RANGE_RE = re.compile(r"^(\d+)\s*:\s*(\d+)$")
# findall cuts a port group into its leading whole, well-formed items, each as
# (leading space, head, direction, msb, lsb, name, ',' or the group's end, ""),
# where the head runs from the direction keyword to the name; from the first
# item that is not one on, the rest of the group is the last field of one more
# match. An item admits no bracket but a range it closes itself, so each ','
# it ends on is one _split_top_commas would split at, and it reads as
# _PORT_ITEM_RE would read it.
_PORT_RE = re.compile(
    rf"(\s*)((input|output|inout)\s+"
    rf"(?:(?:logic|wire|reg|bit)\s*)?"
    rf"(?:(?:signed|unsigned)\s+)?"
    rf"(?:\[\s*(\d+)\s*:\s*(\d+)\s*\]\s*)?)"
    rf"({_IDENT})(\s*(?:,|\Z))|(.+)", re.S
)


_PAREN_RE = re.compile(r"[()]")
_BRACKET_OR_COMMA_RE = re.compile(r"[()\[\]{},]")


def _match_paren(text: str, start: int, limit: int) -> int | None:
    """Index one past the ')' matching the '(' at start, or None."""
    depth = 0
    for m in _PAREN_RE.finditer(text, start, limit):
        if m.group() == "(":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.end()
    return None


def _split_top_commas(text: str, base: int) -> list[tuple[str, int]]:
    parts = []
    depth = 0
    start = 0
    for m in _BRACKET_OR_COMMA_RE.finditer(text):
        ch = m.group()
        if ch == ",":
            if depth == 0:
                parts.append((text[start:m.start()], base + start))
                start = m.end()
        elif ch in "([{":
            depth += 1
        else:
            depth -= 1
    parts.append((text[start:], base + start))
    return [(t, off) for t, off in parts if t.strip()]


def _parse_range(spec: str | None) -> int | None:
    """Width of a packed range spec; None if not a literal range."""
    if spec is None:
        return 1
    m = _LITERAL_RANGE_RE.match(spec)
    if not m:
        return None
    msb, lsb = int(m.group(1)), int(m.group(2))
    if msb < lsb:
        return None
    return msb - lsb + 1


def parse_modules(file: SourceFile, diagnostics: list[Diagnostic] | None = None) -> list[ModuleDecl]:
    """Parse every module block in a file.

    Unrecognized constructs are skipped (recorded in diagnostics when a sink
    is supplied); structural breakage raises MalformedSource.
    """
    diags = diagnostics if diagnostics is not None else []
    masked = mask_comments_and_strings(file)
    modules: list[ModuleDecl] = []
    seen_names = set()
    cursor = (0, 1)  # (offset, its line), carried from module to module
    for kw_start, end_kw in _module_blocks(file, masked):
        cursor = (kw_start, _line_at(masked, kw_start, cursor))
        name_m = _NAME_RE.match(masked, kw_start + len("module"))
        if not name_m or name_m.end() > end_kw:
            raise MalformedSource(file.path, cursor[1], "module missing a name")
        name = name_m.group(1)
        if name in seen_names:
            diags.append(Diagnostic(DIAG_SKIP, file.path, cursor[1],
                                    f"duplicate module name {name}; later declaration skipped"))
            continue

        port_group = _parse_header(file, masked, name_m.end(), end_kw, name, diags, cursor)
        ports = _parse_ports(file, masked, port_group, name, diags, cursor) if port_group else []
        modules.append(ModuleDecl(name, ports, file.path))
        seen_names.add(name)
    return modules


def _line_at(text: str, at: int, cursor: tuple[int, int] = (0, 1)) -> int:
    """The 1-based line of offset at, counted on from a cursor (offset, line)
    at or before it; only LF ends a line."""
    return cursor[1] + text.count("\n", cursor[0], at)


def _module_blocks(file: SourceFile, masked: str) -> list[tuple[int, int]]:
    """(module keyword start, endmodule keyword start) of every block, in order.

    Raises MalformedSource on a nested module or an unmatched keyword.
    """
    open_kw: int | None = None
    blocks: list[tuple[int, int]] = []
    for at in (m.start() for m in _MODULE_KW_RE.finditer(masked)):
        if masked[at - 3:at] == "end" and _WORD_START_RE.match(masked, at - 3):
            if open_kw is None:
                raise MalformedSource(file.path, _line_at(masked, at - 3),
                                      "endmodule without matching module")
            blocks.append((open_kw, at - 3))
            open_kw = None
        elif _WORD_START_RE.match(masked, at):
            if open_kw is not None:
                raise MalformedSource(file.path, _line_at(masked, at),
                                      "nested or unbalanced module keyword")
            open_kw = at
    if open_kw is not None:
        raise MalformedSource(file.path, _line_at(masked, open_kw), "module without endmodule")
    return blocks


def _parse_header(file, masked, pos, limit, name, diags, cursor):
    """Walk the header after the module name to its ';'; returns the port group span or None.

    Diagnostics are numbered from cursor, an (offset, line) at or before pos.
    """
    port_group = None
    noted_junk = False
    i = pos
    while i < limit:
        c = masked[i]
        if c.isspace():
            i += 1
        elif c == "#":
            j = i + 1
            while j < limit and masked[j].isspace():
                j += 1
            end = _match_paren(masked, j, limit) if j < limit and masked[j] == "(" else None
            if end is None:
                raise MalformedSource(file.path, _line_at(masked, i),
                                      f"unterminated parameter list in {name}")
            diags.append(Diagnostic(DIAG_SKIP, file.path, _line_at(masked, i, cursor),
                                    f"parameter list of {name} skipped"))
            i = end
        elif c == "(" and port_group is None:
            end = _match_paren(masked, i, limit)
            if end is None:
                raise MalformedSource(file.path, _line_at(masked, i),
                                      f"unterminated port list in {name}")
            port_group = (i + 1, end - 1)
            i = end
        elif c == ";":
            return port_group
        else:
            if not noted_junk:
                diags.append(Diagnostic(DIAG_SKIP, file.path, _line_at(masked, i, cursor),
                                        f"unrecognized text in header of {name}"))
                noted_junk = True
            i += 1
    raise MalformedSource(file.path, _line_at(masked, pos), f"module {name} header missing ';'")


def _parse_ports(file, masked, group, name, diags, cursor):
    """The ports of a group; cursor is an (offset, line) at or before its start."""
    start, end = group
    ports: list[Port] = []
    names = set()
    line = _line_at(masked, start, cursor)
    # whole, new, well-formed items go by one findall of _PORT_RE, each port
    # numbered at its direction keyword; from the first other item on, the
    # group is split and each item matched and diagnosed on its own
    items = _PORT_RE.findall(masked, start, end)
    for space, head, direction, msb, lsb, pname, sep, rest in items:
        width = int(msb) - int(lsb) + 1 if msb else 1
        if rest or pname in names or width < 1:
            break
        line += space.count("\n")
        ports.append(_new_tuple(Port, (pname, direction, width, line)))
        names.add(pname)
        line += head.count("\n") + sep.count("\n")
    else:
        return ports
    # the rest starts after the items the ports came from, one each
    start += sum(len(space) + len(head) + len(pname) + len(sep)
                 for space, head, _d, _m, _l, pname, sep, _r in items[:len(ports)])
    cursor = (start, line)
    prev: Port | None = ports[-1] if ports else None
    for item, off in _split_top_commas(masked[start:end], start):
        at = off + len(item) - len(item.lstrip())
        cursor = (at, line := _line_at(masked, at, cursor))
        m = _PORT_ITEM_RE.match(item)
        if not m:
            diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                    f"unsupported port declaration in {name}"))
            prev = None
            continue
        direction, ptype, _sign, range_spec, pname, unpacked = m.groups()
        if unpacked:
            diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                    f"unpacked array port {pname} in {name} skipped"))
            prev = None
            continue
        if direction is None and ptype is None and range_spec is None:
            if prev is None:
                diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                        f"port {pname} in {name} has no direction (non-ANSI list?)"))
                continue
            port = Port(pname, prev.direction, prev.width_bits, line)
        elif direction is None:
            diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                    f"port {pname} in {name} has no direction"))
            prev = None
            continue
        else:
            width = _parse_range(range_spec)
            if width is None:
                diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                        f"non-literal packed range on port {pname} in {name}"))
                prev = None
                continue
            port = Port(pname, direction, width, line)
        if port.name in names:
            diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                    f"duplicate port name {port.name} in {name}"))
            continue
        names.add(port.name)
        ports.append(port)
        prev = port
    return ports


def extract_csr_candidates(
    module: ModuleDecl,
    conv: NamingConvention,
    diagnostics: list[Diagnostic] | None = None,
) -> list[CsrCandidate]:
    """Register candidates from a module's ports, in declaration order.

    Control-affixed inputs become RW (the register block drives them); status-
    affixed outputs become RO. Wrong direction or width over 32 bits yields a
    diagnostic and no candidate.
    """
    diags = diagnostics if diagnostics is not None else []
    out: list[CsrCandidate] = []
    has_affix, ctrl, stat = conv.has_affix, conv.control_prefix, conv.status_prefix
    for port in module.ports:
        name = port.name
        is_ctrl = has_affix(name, ctrl)
        is_stat = has_affix(name, stat)
        if not (is_ctrl or is_stat):
            continue
        if is_ctrl and is_stat:
            diags.append(Diagnostic(DIAG_SKIP, module.path, port.line,
                                    f"{name} matches both control and status affixes"))
            continue
        want_dir = "input" if is_ctrl else "output"
        if port.direction != want_dir:
            diags.append(Diagnostic(
                DIAG_DIRECTION, module.path, port.line,
                f"{name} in {module.name}: expected {want_dir}, found {port.direction}"))
            continue
        if port.width_bits > MAX_CSR_WIDTH:
            diags.append(Diagnostic(
                DIAG_WIDTH, module.path, port.line,
                f"{name} in {module.name}: width {port.width_bits} exceeds {MAX_CSR_WIDTH}"))
            continue
        out.append(_new_tuple(CsrCandidate, (name, port.width_bits,
                                              ACCESS_RW if is_ctrl else ACCESS_RO, module.name)))
    return out


def extract_diag_candidates(
    module: ModuleDecl,
    conv: NamingConvention,
    diagnostics: list[Diagnostic] | None = None,
) -> list[DiagTap]:
    """Single-bit diagnostic outputs, in declaration order, as active taps."""
    diags = diagnostics if diagnostics is not None else []
    out: list[DiagTap] = []
    has_affix, diag = conv.has_affix, conv.diag_prefix
    for port in module.ports:
        if port.direction != "output" or not has_affix(port.name, diag):
            continue
        if port.width_bits != 1:
            diags.append(Diagnostic(
                DIAG_WIDTH, module.path, port.line,
                f"{port.name} in {module.name}: diagnostic taps must be 1 bit wide"))
            continue
        out.append(DiagTap(port.name, module.name))
    return out


# ---------------------------------------------------------------------------
# lint

_RULE_MESSAGES = {
    "W001": "wire declaration; use logic",
    "W002": "reg declaration; use logic",
    "W003": "bare always block; use always_comb or always_ff",
    "W004": "raw always_ff; use the FF() register macro",
    "W005": "explicit port connections where .* would apply",
}


class LintViolation(NamedTuple):
    rule_id: str
    file: str
    line: int
    message: str


# The W001-W004 keywords where an ASCII identifier ends, confirmed where str.find
# puts a "wire", "reg" or "always". Read backwards from one, ASCII digits, then a
# letter or '_', mean it continues an identifier, as in "_wire" or "a9wire".
_KEYWORD_RE = re.compile(r"(?:wire|reg|always(?:_ff)?)(?![A-Za-z0-9_])")
_KEYWORD_RULES = {"wire": "W001", "reg": "W002", "always": "W003", "always_ff": "W004"}
_IDENT_BEFORE_REVERSED_RE = re.compile(r"[0-9]*[A-Za-z_]")
_INST_RE = re.compile(
    rf"\b({_IDENT})\s+({_IDENT})\s*\(\s*(\.[^;]*?)\)\s*;", re.S)
# _INST_RE opens with \b, so a search for it tries every position. Its "(."
# is a literal the regex engine skips to at C speed. Only the two names and
# whitespace lie between a match's start and that "(", so matching their
# mirror image on the reversed text finds the start, where _INST_RE confirms.
_INST_OPEN_RE = re.compile(r"\(\s*\.")
_INST_HEAD_REVERSED_RE = re.compile(r"\s*[A-Za-z0-9_]*[A-Za-z_]\s+[A-Za-z0-9_]*[A-Za-z_]")
_CONN_RE = re.compile(rf"\.({_IDENT})\s*\(\s*([^()]*?)\s*\)")

_NON_INSTANCE_WORDS = frozenset({
    "module", "endmodule", "begin", "end", "if", "else", "for", "while", "repeat",
    "case", "casex", "casez", "endcase", "default", "assign", "initial", "final",
    "always", "always_comb", "always_ff", "always_latch", "function", "endfunction",
    "task", "endtask", "generate", "endgenerate", "logic", "wire", "reg", "bit",
    "input", "output", "inout", "parameter", "localparam", "typedef", "return",
})


def _instantiations(masked: str, reversed_text: str):
    """Yield the matches of _INST_RE.finditer(masked), found from each "(."."""
    resume = 0
    for paren in _INST_OPEN_RE.finditer(masked):
        head = _INST_HEAD_REVERSED_RE.match(reversed_text, len(masked) - paren.start())
        # a match must start at or after the end of the one before it
        if head is None or len(masked) - head.end() < resume:
            continue
        m = _INST_RE.match(masked, len(masked) - head.end())
        if m is not None:
            resume = m.end()
            yield m


def lint(file: SourceFile) -> list[LintViolation]:
    """Every keyword-level style rule, outside comments and strings; never aborts."""
    try:
        masked = mask_comments_and_strings(file)
    except MalformedSource:
        # lint stays total: check what precedes the breakage
        masked = mask_comments_and_strings(
            SourceFile(file.path, file.content + "*/"))
    violations: list[LintViolation] = []
    cursor = (0, 1)  # (offset, line) of the last violation; offsets rise within a pass

    def add(rule: str, offset: int):
        nonlocal cursor
        cursor = (offset, _line_at(masked, offset, cursor))
        violations.append(LintViolation(rule, file.path, cursor[1], _RULE_MESSAGES[rule]))

    reversed_text = masked[::-1]
    hits = []  # where each "wire", "reg" and "always" starts
    for word in ("wire", "reg", "always"):
        at = -1
        while (at := masked.find(word, at + 1)) >= 0:
            hits.append(at)
    for at in sorted(hits):
        m = _KEYWORD_RE.match(masked, at)
        if m is None or _IDENT_BEFORE_REVERSED_RE.match(reversed_text, len(masked) - at):
            continue
        rule = _KEYWORD_RULES[m.group()]  # W003 if '@' is the next non-space in 80 characters
        if rule != "W003" or masked[m.end():m.end() + 80].lstrip().startswith("@"):
            add(rule, at)

    cursor = (0, 1)
    for m in _instantiations(masked, reversed_text):
        head, inst = m.group(1), m.group(2)
        if head in _NON_INSTANCE_WORDS or inst in _NON_INSTANCE_WORDS:
            continue
        if ".*" in m.group(3):
            continue
        conns = _CONN_RE.findall(m.group(3))
        if conns and all(pin == sig for pin, sig in conns):
            add("W005", m.start())

    violations.sort(key=lambda v: (v.file, v.line, v.rule_id))
    return violations


def format_lint_report(violations: list[LintViolation]) -> str:
    return "\n".join(f"{v.file}:{v.line}: {v.rule_id} {v.message}" for v in violations)
