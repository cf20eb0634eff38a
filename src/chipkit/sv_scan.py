"""Structural scanner for a synthesizable SystemVerilog subset.

Extracts module declarations (ANSI port lists, packed ranges with literal
integer bounds), classifies register and diagnostic candidates by naming
convention, and applies keyword-level style lint. Comments and string
literals are blanked before any matching, so the scanner never reacts to
commented-out code.

Constructs outside the subset (parameter lists, non-literal ranges, unpacked
arrays, non-ANSI headers) are skipped with a diagnostic rather than aborting;
only structural breakage (unbalanced module/endmodule, unterminated block
comment) raises MalformedSource.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import InputError

ACCESS_RW = "RW"
ACCESS_RO = "RO"

MAX_CSR_WIDTH = 32

# diagnostic kinds
DIAG_SKIP = "Skip"
DIAG_WIDTH = "WidthExceeded"
DIAG_DIRECTION = "DirectionMismatch"


class MalformedSource(InputError):
    """Structurally broken source; the message names file and line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class SourceFile:
    path: str
    content: str
    _line_starts: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = [0]
        pos = self.content.find("\n")
        while pos >= 0:
            starts.append(pos + 1)
            pos = self.content.find("\n", pos + 1)
        self._line_starts = starts

    @classmethod
    def from_path(cls, path) -> "SourceFile":
        return cls(str(path), Path(path).read_text(encoding="utf-8"))

    def line_of(self, offset: int) -> int:
        """1-based line number of a byte offset into content."""
        return bisect.bisect_right(self._line_starts, offset)

    def line_text(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = self.content.find("\n", start)
        return self.content[start:] if end < 0 else self.content[start:end]


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # input | output | inout
    width_bits: int
    packed_range: tuple[int, int] | None = None  # (msb, lsb)
    line: int = 0


@dataclass
class ModuleDecl:
    name: str
    ports: list[Port]
    path: str = ""
    line_span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    path: str
    line: int
    message: str


@dataclass(frozen=True)
class CsrCandidate:
    name: str
    width_bits: int
    access: str
    origin_module: str
    source_line: int


@dataclass(frozen=True)
class DiagCandidate:
    name: str
    origin_module: str


@dataclass(frozen=True)
class NamingConvention:
    control_prefix: str = "cfg_"
    status_prefix: str = "sts_"
    diag_prefix: str = "diag_"
    match_mode: str = "prefix"  # prefix | postfix

    def __post_init__(self):
        affixes = (self.control_prefix, self.status_prefix, self.diag_prefix)
        if any(not a for a in affixes) or len(set(affixes)) != 3:
            raise ValueError("naming affixes must be non-empty and pairwise distinct")
        if self.match_mode not in ("prefix", "postfix"):
            raise ValueError(f"bad match_mode {self.match_mode!r}")

    def matches(self, affix: str, name: str) -> bool:
        if self.match_mode == "prefix":
            return name.startswith(affix)
        return name.endswith(affix)


# One match per comment or string, in scan order. A block comment with no
# closing "*/" falls through to the bare "/*" alternative, whose group 1 is
# set. A string ends at its closing quote, at an unescaped newline (left
# unmasked) or at the end of the text; a backslash escapes any next
# character, a newline included. Every alternative starts with a literal
# '/' or '"', which lets the regex engine skip the text in between at C speed.
_MASKABLE_RE = re.compile(r'''//[^\n]*|/\*.*?\*/|/(\*)|"(?:[^"\\\n]|\\(?:.|\Z))*"?''', re.S)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def mask_comments_and_strings(src: SourceFile) -> str:
    """Blank comments and string literals, preserving offsets and newlines.

    A precompiled regex jumps from one "//", "/*" or '"' to the next; the text
    between them is kept verbatim and each comment or string is replaced by
    spaces, except for the newlines inside it.
    """
    def blank(m: re.Match) -> str:
        if m.group(1):
            raise MalformedSource(src.path, src.line_of(m.start()), "unterminated block comment")
        text = m.group()
        return _NOT_NEWLINE_RE.sub(" ", text) if "\n" in text else " " * len(text)

    return _MASKABLE_RE.sub(blank, src.content)


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# "module" and "endmodule" as whole words. Each alternative opens with a
# literal, so the regex engine skips the text between candidates at C speed;
# the lookbehind after that literal stands in for a leading \b.
_MODULE_KW_RE = re.compile(r"e(?<!\we)ndmodule\b|m(?<!\wm)odule\b")
_NAME_RE = re.compile(rf"\s*({_IDENT})")
_PORT_ITEM_RE = re.compile(
    rf"^\s*(?:(input|output|inout)\s+)?"
    rf"(?:(logic|wire|reg|bit)\s*)?"
    rf"(?:(signed|unsigned)\s+)?"
    rf"(?:\[\s*([^\]]*?)\s*\]\s*)?"
    rf"({_IDENT})\s*(\[[^\]]*\])?\s*$"
)
_LITERAL_RANGE_RE = re.compile(r"^(\d+)\s*:\s*(\d+)$")


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


def _parse_range(spec: str | None) -> tuple[int, tuple[int, int] | None] | None:
    """Width and (msb, lsb) for a packed range spec; None if not a literal range."""
    if spec is None:
        return 1, None
    m = _LITERAL_RANGE_RE.match(spec)
    if not m:
        return None
    msb, lsb = int(m.group(1)), int(m.group(2))
    if msb < lsb:
        return None
    return msb - lsb + 1, (msb, lsb)


def parse_modules(file: SourceFile, diagnostics: list[Diagnostic] | None = None) -> list[ModuleDecl]:
    """Parse every module block in a file.

    Unrecognized constructs are skipped (recorded in diagnostics when a sink
    is supplied); structural breakage raises MalformedSource.
    """
    diags = diagnostics if diagnostics is not None else []
    masked = mask_comments_and_strings(file)
    modules: list[ModuleDecl] = []
    seen_names = set()
    for kw_start, end_kw in _module_blocks(file, masked):
        name_m = _NAME_RE.match(masked, kw_start + len("module"))
        if not name_m or name_m.end() > end_kw:
            raise MalformedSource(file.path, file.line_of(kw_start), "module missing a name")
        name = name_m.group(1)
        if name in seen_names:
            diags.append(Diagnostic(DIAG_SKIP, file.path, file.line_of(kw_start),
                                    f"duplicate module name {name}; later declaration skipped"))
            continue

        port_group = _parse_header(file, masked, name_m.end(), end_kw, name, diags)
        ports = _parse_ports(file, masked, port_group, name, diags) if port_group else []
        modules.append(ModuleDecl(
            name=name,
            ports=ports,
            path=file.path,
            line_span=(file.line_of(kw_start), file.line_of(end_kw)),
        ))
        seen_names.add(name)
    return modules


def _module_blocks(file: SourceFile, masked: str) -> list[tuple[int, int]]:
    """(module keyword start, endmodule keyword start) of every block, in order.

    Raises MalformedSource on a nested module or an unmatched keyword.
    """
    open_kw: int | None = None
    blocks: list[tuple[int, int]] = []
    for m in _MODULE_KW_RE.finditer(masked):
        if m.group() == "module":
            if open_kw is not None:
                raise MalformedSource(file.path, file.line_of(m.start()),
                                      "nested or unbalanced module keyword")
            open_kw = m.start()
        else:
            if open_kw is None:
                raise MalformedSource(file.path, file.line_of(m.start()),
                                      "endmodule without matching module")
            blocks.append((open_kw, m.start()))
            open_kw = None
    if open_kw is not None:
        raise MalformedSource(file.path, file.line_of(open_kw), "module without endmodule")
    return blocks


def _parse_header(file, masked, pos, limit, name, diags):
    """Walk the header after the module name to its ';'; returns the port group span or None."""
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
                raise MalformedSource(file.path, file.line_of(i), f"unterminated parameter list in {name}")
            diags.append(Diagnostic(DIAG_SKIP, file.path, file.line_of(i),
                                    f"parameter list of {name} skipped"))
            i = end
        elif c == "(" and port_group is None:
            end = _match_paren(masked, i, limit)
            if end is None:
                raise MalformedSource(file.path, file.line_of(i), f"unterminated port list in {name}")
            port_group = (i + 1, end - 1)
            i = end
        elif c == ";":
            return port_group
        else:
            if not noted_junk:
                diags.append(Diagnostic(DIAG_SKIP, file.path, file.line_of(i),
                                        f"unrecognized text in header of {name}"))
                noted_junk = True
            i += 1
    raise MalformedSource(file.path, file.line_of(pos), f"module {name} header missing ';'")


def _parse_ports(file, masked, group, name, diags):
    start, end = group
    ports: list[Port] = []
    names = set()
    prev: Port | None = None
    for item, off in _split_top_commas(masked[start:end], start):
        line = file.line_of(off + len(item) - len(item.lstrip()))
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
            port = Port(pname, prev.direction, prev.width_bits, prev.packed_range, line)
        elif direction is None:
            diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                    f"port {pname} in {name} has no direction"))
            prev = None
            continue
        else:
            parsed = _parse_range(range_spec)
            if parsed is None:
                diags.append(Diagnostic(DIAG_SKIP, file.path, line,
                                        f"non-literal packed range on port {pname} in {name}"))
                prev = None
                continue
            width, packed = parsed
            port = Port(pname, direction, width, packed, line)
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
    for port in module.ports:
        is_ctrl = conv.matches(conv.control_prefix, port.name)
        is_stat = conv.matches(conv.status_prefix, port.name)
        if not (is_ctrl or is_stat):
            continue
        if is_ctrl and is_stat:
            diags.append(Diagnostic(DIAG_SKIP, module.path, port.line,
                                    f"{port.name} matches both control and status affixes"))
            continue
        want_dir = "input" if is_ctrl else "output"
        if port.direction != want_dir:
            diags.append(Diagnostic(
                DIAG_DIRECTION, module.path, port.line,
                f"{port.name} in {module.name}: expected {want_dir}, found {port.direction}"))
            continue
        if port.width_bits > MAX_CSR_WIDTH:
            diags.append(Diagnostic(
                DIAG_WIDTH, module.path, port.line,
                f"{port.name} in {module.name}: width {port.width_bits} exceeds {MAX_CSR_WIDTH}"))
            continue
        out.append(CsrCandidate(
            name=port.name,
            width_bits=port.width_bits,
            access=ACCESS_RW if is_ctrl else ACCESS_RO,
            origin_module=module.name,
            source_line=port.line,
        ))
    return out


def extract_diag_candidates(
    module: ModuleDecl,
    conv: NamingConvention,
    diagnostics: list[Diagnostic] | None = None,
) -> list[DiagCandidate]:
    """Single-bit diagnostic outputs, in declaration order."""
    diags = diagnostics if diagnostics is not None else []
    out: list[DiagCandidate] = []
    for port in module.ports:
        if port.direction != "output" or not conv.matches(conv.diag_prefix, port.name):
            continue
        if port.width_bits != 1:
            diags.append(Diagnostic(
                DIAG_WIDTH, module.path, port.line,
                f"{port.name} in {module.name}: diagnostic taps must be 1 bit wide"))
            continue
        out.append(DiagCandidate(name=port.name, origin_module=module.name))
    return out


# ---------------------------------------------------------------------------
# lint

ALL_RULES = ("W001", "W002", "W003", "W004", "W005")

_RULE_MESSAGES = {
    "W001": "wire declaration; use logic",
    "W002": "reg declaration; use logic",
    "W003": "bare always block; use always_comb or always_ff",
    "W004": "raw always_ff; use the FF() register macro",
    "W005": "explicit port connections where .* would apply",
}


@dataclass(frozen=True)
class RuleSet:
    enabled: frozenset = frozenset(ALL_RULES)


@dataclass(frozen=True)
class LintViolation:
    rule_id: str
    file: str
    line: int
    excerpt: str
    message: str


# The W001-W004 keywords where an ASCII identifier ends. Each alternative
# opens with a literal, so the regex engine skips the text between candidates
# at C speed. Read backwards from such a keyword, ASCII digits and then a
# letter or '_' mean it continues an identifier, as in "_wire" or "a9wire".
_KEYWORD_RE = re.compile(r"(?:wire|reg|always(?:_ff)?)(?![A-Za-z0-9_])")
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


def lint(file: SourceFile, rules: RuleSet | None = None) -> list[LintViolation]:
    """Keyword-level style checks outside comments and strings; never aborts."""
    rules = rules or RuleSet()
    try:
        masked = mask_comments_and_strings(file)
    except MalformedSource:
        # lint stays total: check what precedes the breakage
        masked = mask_comments_and_strings(
            SourceFile(file.path, file.content + "*/"))
    violations: list[LintViolation] = []

    def add(rule: str, offset: int):
        if rule not in rules.enabled:
            return
        line = file.line_of(offset)
        violations.append(LintViolation(rule, file.path, line,
                                        file.line_text(line).strip(), _RULE_MESSAGES[rule]))

    reversed_text = masked[::-1]
    for m in _KEYWORD_RE.finditer(masked):
        if _IDENT_BEFORE_REVERSED_RE.match(reversed_text, len(masked) - m.start()):
            continue
        word = m.group()
        if word == "wire":
            add("W001", m.start())
        elif word == "reg":
            add("W002", m.start())
        elif word == "always":
            rest = masked[m.end():m.end() + 80].lstrip()
            if rest.startswith("@"):
                add("W003", m.start())
        else:
            add("W004", m.start())

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
