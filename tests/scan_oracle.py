"""Character-walking reference versions of the scanner's low-level helpers.

These are the straightforward one-index-at-a-time implementations that the
regex-driven code in chipkit.sv_scan replaced. They are kept only as oracles
for the differential property tests and are never imported by chipkit.
"""

from __future__ import annotations

from chipkit.sv_scan import MalformedSource, SourceFile


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
