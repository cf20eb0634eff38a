r"""Reference versions of the scanner's low-level helpers and keyword passes.

These are the straightforward implementations that the regex-driven code in
chipkit.sv_scan replaced: one-index-at-a-time masking and bracket walking, a
module keyword search that opens with \b (and the alternation that followed
it), a lint loop over every identifier, port-group parsing that splits the
group at its top-level commas and matches each item on its own, and the
candidate extractors as they were when they tested each affix per port
through NamingConvention.matches and built each candidate by keyword. They
are kept only as oracles for the differential property tests and are never
imported by chipkit.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from chipkit.regdb import ACCESS_RO, ACCESS_RW, CsrCandidate, DiagTap, NamingConvention
from chipkit.sv_scan import (
    _CONN_RE,
    _NON_INSTANCE_WORDS,
    _RULE_MESSAGES,
    DIAG_DIRECTION,
    DIAG_SKIP,
    DIAG_WIDTH,
    MAX_CSR_WIDTH,
    Diagnostic,
    LintViolation,
    MalformedSource,
    ModuleDecl,
    Port,
    SourceFile,
)

ALL_RULES = ("W001", "W002", "W003", "W004", "W005")


class RuleSet(NamedTuple):
    """The rule subset lint once took; chipkit's lint always applies every rule."""

    enabled: frozenset = frozenset(ALL_RULES)


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_MODULE_KW_RE = re.compile(r"\b(module|endmodule)\b")
# the keyword search sv_scan made before it led with the literal "module" and
# looked back for "end": an alternation that stops at every 'e' and 'm'
ALTERNATION_KW_RE = re.compile(r"e(?<!\we)ndmodule\b|m(?<!\wm)odule\b")
_WORD_RE = re.compile(_IDENT)
_INST_RE = re.compile(
    rf"\b({_IDENT})\s+({_IDENT})\s*\(\s*(\.[^;]*?)\)\s*;", re.S)
_PORT_ITEM_RE = re.compile(
    rf"^\s*(?:(input|output|inout)\s+)?"
    rf"(?:(logic|wire|reg|bit)\s*)?"
    rf"(?:(signed|unsigned)\s+)?"
    rf"(?:\[\s*([^\]]*?)\s*\]\s*)?"
    rf"({_IDENT})\s*(\[[^\]]*\])?\s*$"
)
_LITERAL_RANGE_RE = re.compile(r"^(\d+)\s*:\s*(\d+)$")


def line_of(file: SourceFile, offset: int) -> int:
    """1-based line of an offset into file.content: one more than the LFs before it."""
    return file.content.count("\n", 0, offset) + 1


def mask_comments_and_strings(src: SourceFile) -> str:
    text = src.content
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            out[i:end] = " " * (end - i)
            i = end
        elif c == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise MalformedSource(src.path, line_of(src, i), "unterminated block comment")
            for k in range(i, end + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = end + 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n) if j < n and text[j] == '"' else min(j, n)
            for k in range(i, end):
                if out[k] != "\n":
                    out[k] = " "
            i = max(end, i + 1)
        else:
            i += 1
    return "".join(out)


def match_paren(text: str, start: int, limit: int) -> int | None:
    depth = 0
    for i in range(start, limit):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def split_top_commas(text: str, base: int) -> list[tuple[str, int]]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:i], base + start))
            start = i + 1
    parts.append((text[start:], base + start))
    return [(t, off) for t, off in parts if t.strip()]


def module_blocks(file: SourceFile, masked: str,
                  keywords: re.Pattern = _MODULE_KW_RE) -> list[tuple[int, int]]:
    open_kw: int | None = None
    blocks: list[tuple[int, int]] = []
    for m in keywords.finditer(masked):
        if m.group() == "module":
            if open_kw is not None:
                raise MalformedSource(file.path, line_of(file, m.start()),
                                      "nested or unbalanced module keyword")
            open_kw = m.start()
        else:
            if open_kw is None:
                raise MalformedSource(file.path, line_of(file, m.start()),
                                      "endmodule without matching module")
            blocks.append((open_kw, m.start()))
            open_kw = None
    if open_kw is not None:
        raise MalformedSource(file.path, line_of(file, open_kw), "module without endmodule")
    return blocks


def lint(file: SourceFile, rules: RuleSet | None = None) -> list[LintViolation]:
    rules = rules or RuleSet()
    try:
        masked = mask_comments_and_strings(file)
    except MalformedSource:
        masked = mask_comments_and_strings(SourceFile(file.path, file.content + "*/"))
    violations: list[LintViolation] = []

    def add(rule: str, offset: int):
        if rule not in rules.enabled:
            return
        violations.append(LintViolation(rule, file.path, line_of(file, offset),
                                        _RULE_MESSAGES[rule]))

    for m in _WORD_RE.finditer(masked):
        word = m.group()
        if word == "wire":
            add("W001", m.start())
        elif word == "reg":
            add("W002", m.start())
        elif word == "always":
            rest = masked[m.end():m.end() + 80].lstrip()
            if rest.startswith("@"):
                add("W003", m.start())
        elif word == "always_ff":
            add("W004", m.start())

    for m in _INST_RE.finditer(masked):
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


def parse_range(spec: str | None) -> int | None:
    if spec is None:
        return 1
    m = _LITERAL_RANGE_RE.match(spec)
    if not m:
        return None
    msb, lsb = int(m.group(1)), int(m.group(2))
    if msb < lsb:
        return None
    return msb - lsb + 1


def parse_ports(file, masked, group, name, diags):
    start, end = group
    ports: list[Port] = []
    names = set()
    prev: Port | None = None
    for item, off in split_top_commas(masked[start:end], start):
        line = line_of(file, off + len(item) - len(item.lstrip()))
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
            width = parse_range(range_spec)
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


def _matches(conv: NamingConvention, affix: str, name: str) -> bool:
    """NamingConvention.matches, which the extractors called once per affix."""
    if conv.match_mode == "prefix":
        return name.startswith(affix)
    return name.endswith(affix)


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
        is_ctrl = _matches(conv, conv.control_prefix, port.name)
        is_stat = _matches(conv, conv.status_prefix, port.name)
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
        ))
    return out


def extract_diag_candidates(
    module: ModuleDecl,
    conv: NamingConvention,
    diagnostics: list[Diagnostic] | None = None,
) -> list[DiagTap]:
    """Single-bit diagnostic outputs, in declaration order."""
    diags = diagnostics if diagnostics is not None else []
    out: list[DiagTap] = []
    for port in module.ports:
        if port.direction != "output" or not _matches(conv, conv.diag_prefix, port.name):
            continue
        if port.width_bits != 1:
            diags.append(Diagnostic(
                DIAG_WIDTH, module.path, port.line,
                f"{port.name} in {module.name}: diagnostic taps must be 1 bit wide"))
            continue
        out.append(DiagTap(name=port.name, origin_module=module.name))
    return out
