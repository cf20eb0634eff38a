"""Reference versions of the scanner's low-level helpers and keyword passes.

These are the straightforward implementations that the regex-driven code in
chipkit.sv_scan replaced: one-index-at-a-time masking and bracket walking, a
module keyword search that opens with \b, and a lint loop over every
identifier. They are kept only as oracles for the differential property tests
and are never imported by chipkit.
"""

from __future__ import annotations

import re

from chipkit.sv_scan import (
    _CONN_RE,
    _NON_INSTANCE_WORDS,
    _RULE_MESSAGES,
    LintViolation,
    MalformedSource,
    RuleSet,
    SourceFile,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_MODULE_KW_RE = re.compile(r"\b(module|endmodule)\b")
_WORD_RE = re.compile(_IDENT)
_INST_RE = re.compile(
    rf"\b({_IDENT})\s+({_IDENT})\s*\(\s*(\.[^;]*?)\)\s*;", re.S)


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
                raise MalformedSource(src.path, src.line_of(i), "unterminated block comment")
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


def module_blocks(file: SourceFile, masked: str) -> list[tuple[int, int]]:
    open_kw: int | None = None
    blocks: list[tuple[int, int]] = []
    for m in _MODULE_KW_RE.finditer(masked):
        if m.group(1) == "module":
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
        line = file.line_of(offset)
        violations.append(LintViolation(rule, file.path, line,
                                        file.line_text(line).strip(), _RULE_MESSAGES[rule]))

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
