"""The self-test emitter that the direct step builder replaced: every step
through TestScript.add, with its command and reply each formatted through
read_command, write_command and format_word; and save_script as it was when
it built the file's lines as a list and joined them. Those helpers are gone
from chipkit.script, so verbatim copies live here; the emitter takes the
database hash from its caller, as every emitter now does, and builds
host_oracle's copies of the records. Kept only as oracles for the
differential property tests; chipkit never imports it."""

from __future__ import annotations

from chipkit.emit import _check_region, _free_offset, _sorted_entries
from chipkit.regdb import ACCESS_RW, ACTIVE, ID_REG_NAME, ID_REG_OFFSET
from chipkit.script import RESP_OK, format_word
from host_oracle import ScriptStep, TestScript


class _Script(TestScript):
    """TestScript with the add method it had when this emitter was replaced."""

    def add(self, command: str, expected: str, comment: str = "") -> None:
        self.steps.append(ScriptStep(command, expected, comment))


def read_command(addr: int) -> str:
    return f"R {format_word(addr)}"


def write_command(addr: int, data: int) -> str:
    return f"W {format_word(addr)} {format_word(data)}"


def emit_selftest(db, cfg, hash32) -> TestScript:
    _check_region(db, cfg)
    base = cfg.base_address
    sc = _Script()
    sc.add(read_command(base + ID_REG_OFFSET), format_word(hash32),
           f"{ID_REG_NAME} register carries the database hash")
    for e in _sorted_entries(db):
        if e.state != ACTIVE:
            continue
        addr = base + e.offset_bytes
        if e.access == ACCESS_RW:
            ones = (1 << e.width_bits) - 1
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: reset value")
            sc.add(write_command(addr, ones), RESP_OK, f"{e.name}: set all {e.width_bits} writable bits")
            sc.add(read_command(addr), format_word(ones), f"{e.name}: read back ones")
            sc.add(write_command(addr, 0), RESP_OK, f"{e.name}: clear")
            sc.add(read_command(addr), format_word(0), f"{e.name}: read back zero")
        else:
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: status value")
            sc.add(write_command(addr, 0xA5A5A5A5), RESP_OK, f"{e.name}: write is ignored")
            sc.add(read_command(addr), format_word(e.reset_value), f"{e.name}: unchanged by write")
    probe = _free_offset(db, cfg) if db.entries else None
    if probe is not None:
        sc.add(read_command(base + probe), format_word(cfg.unmapped_value),
               "offset with no register reads the unmapped constant")
    return sc


def save_script(script: TestScript) -> str:
    lines: list[str] = []
    for step in script.steps:
        if step.comment:
            if lines:
                lines.append("")
            lines.append(f"# {step.comment}")
        lines.append(f"> {step.command}")
        lines.append(f"< {step.expected}")
    return "\n".join(lines) + "\n"
