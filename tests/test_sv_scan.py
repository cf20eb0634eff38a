import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipkit import DataError, sv_scan
from chipkit.sv_scan import (
    DIAG_DIRECTION,
    DIAG_SKIP,
    DIAG_WIDTH,
    Diagnostic,
    MalformedSource,
    NamingConvention,
    SourceFile,
    extract_csr_candidates,
    extract_diag_candidates,
    lint,
    parse_modules,
)

CONV = NamingConvention()


def src(text, path="test.sv"):
    return SourceFile(path, text)


def parse_one(text):
    mods = parse_modules(src(text))
    assert len(mods) == 1
    return mods[0]


class TestParseModules:
    def test_counter_listing(self, fixtures_dir):
        m = parse_one((fixtures_dir / "my_counter.sv").read_text())
        assert m.name == "my_counter"
        assert [(p.name, p.direction, p.width_bits) for p in m.ports] == [
            ("clock", "input", 1),
            ("reset_n", "input", 1),
            ("enable", "input", 1),
            ("count", "output", 32),
        ]

    def test_empty_file(self):
        assert parse_modules(src("")) == []
        assert parse_modules(src("// nothing here\n")) == []

    def test_two_modules_port_counts(self):
        text = """
        module three (input logic a, input logic b, output logic c);
        endmodule

        module five (
          input  logic p0,
          input  logic p1,
          input  logic [3:0] p2,
          output logic p3,
          inout  logic p4
        );
        endmodule
        """
        mods = parse_modules(src(text))
        assert [m.name for m in mods] == ["three", "five"]
        assert [len(m.ports) for m in mods] == [3, 5]

    def test_module_without_ports(self):
        m = parse_one("module bare;\nendmodule\n")
        assert m.ports == []
        m = parse_one("module bare ();\nendmodule\n")
        assert m.ports == []

    def test_port_name_inheritance(self):
        m = parse_one("module m (input logic [3:0] a, b, output logic c);\nendmodule")
        assert [(p.name, p.direction, p.width_bits) for p in m.ports] == [
            ("a", "input", 4), ("b", "input", 4), ("c", "output", 1)]

    def test_port_lines(self):
        text = "\n\nmodule m (\n  input logic a\n);\nendmodule\n"
        m = parse_one(text)
        assert m.ports[0].line == 4

    # several modules of one file, CRLF-ended, with a parameter list, comments
    # and blank lines between the modules, and items that span lines
    CLEAN_FILE = (
        "// two blocks and their pads\r\n"
        "\r\n"
        "module first #(\r\n"
        "  parameter int W = 8\r\n"
        ") (\r\n"
        "  input  logic        clock,\r\n"
        "  input  logic [7:0]  cfg_mode,\r\n"
        "  output\r\n"
        "    logic [3:0]\r\n"
        "    sts_level  ,\r\n"
        "\r\n"
        "  output logic diag_tick\r\n"
        ");\r\n"
        "endmodule\r\n"
        "\r\n"
        "/* between the modules:\r\n"
        "   a block comment */\r\n"
        "\r\n"
        "module second (input logic a, input\r\n  logic [1:0] cfg_b,\r\n\r\n"
        "  output logic sts_c);\r\n"
        "endmodule\r\n"
        "module third ();\r\nendmodule\r\n"
        "module fourth\r\n(\r\n  inout wire pad\r\n);\r\nendmodule\r\n"
    )

    def test_clean_file_numbers_ports_at_their_direction_keywords(self):
        file, diags = src(self.CLEAN_FILE), []
        mods = parse_modules(file, diags)
        assert [(m.name, [p.name for p in m.ports]) for m in mods] == [
            ("first", ["clock", "cfg_mode", "sts_level", "diag_tick"]),
            ("second", ["a", "cfg_b", "sts_c"]), ("third", []), ("fourth", ["pad"])]
        keywords = [m.start() for m in re.finditer(r"\b(?:input|output|inout)\b", self.CLEAN_FILE)]
        assert [p.line for m in mods for p in m.ports] == \
            [self.CLEAN_FILE.count("\n", 0, at) + 1 for at in keywords]
        assert diags == [Diagnostic(DIAG_SKIP, "test.sv", 3, "parameter list of first skipped")]

    def test_comments_and_strings_skipped(self):
        text = """
        // module fake (input logic nope);
        /* module fake2 (
           input logic nope2); */
        module real_one (input logic a);
        endmodule
        """
        mods = parse_modules(src(text))
        assert [m.name for m in mods] == ["real_one"]

    def test_unbalanced_module(self):
        with pytest.raises(MalformedSource, match="^test.sv:1: module without endmodule$"):
            parse_modules(src("module a (input logic x);\n"))
        with pytest.raises(MalformedSource,
                           match="^test.sv:1: endmodule without matching module$"):
            parse_modules(src("endmodule\n"))
        with pytest.raises(MalformedSource,
                           match="^test.sv:2: nested or unbalanced module keyword$"):
            parse_modules(src("module a;\nmodule b;\nendmodule\nendmodule\n"))

    def test_unterminated_comment(self):
        with pytest.raises(MalformedSource, match="^test.sv:2: unterminated block comment$"):
            parse_modules(src("module a;\n/* oops\nendmodule"))

    def test_parameterized_width_skipped_with_diagnostic(self):
        diags = []
        m = parse_modules(src("""
        module m #(parameter W = 8) (
          input  logic [W-1:0] cfg_data,
          input  logic         cfg_en
        );
        endmodule
        """), diags)[0]
        assert [p.name for p in m.ports] == ["cfg_en"]
        kinds = {d.kind for d in diags}
        assert kinds == {DIAG_SKIP}
        assert any("cfg_data" in d.message for d in diags)

    def test_unpacked_array_port_skipped(self):
        diags = []
        m = parse_modules(src("module m (input logic data [0:3], input logic ok);\nendmodule"),
                          diags)[0]
        assert [p.name for p in m.ports] == ["ok"]
        assert any(d.kind == DIAG_SKIP for d in diags)

    def test_descending_range_rejected(self):
        diags = []
        m = parse_modules(src("module m (input logic [0:7] x);\nendmodule"), diags)[0]
        assert m.ports == []
        assert diags

    def test_duplicate_module_name_skipped(self):
        diags = []
        mods = parse_modules(src("module m;\nendmodule\nmodule m (input logic a);\nendmodule"),
                             diags)
        assert len(mods) == 1
        assert any("duplicate module" in d.message for d in diags)


class TestExtraction:
    def test_control_input_is_rw(self):
        m = parse_one("module t (input logic [7:0] cfg_gain);\nendmodule")
        cands = extract_csr_candidates(m, CONV)
        assert len(cands) == 1
        assert (cands[0].name, cands[0].width_bits, cands[0].access) == ("cfg_gain", 8, "RW")
        assert cands[0].origin_module == "t"

    def test_status_output_is_ro(self):
        m = parse_one("module t (output logic sts_done);\nendmodule")
        cands = extract_csr_candidates(m, CONV)
        assert [(c.name, c.width_bits, c.access) for c in cands] == [("sts_done", 1, "RO")]

    def test_width_exceeded_excluded(self):
        m = parse_one("module t (input logic [39:0] cfg_wide);\nendmodule")
        diags = []
        assert extract_csr_candidates(m, CONV, diags) == []
        assert [d.kind for d in diags] == [DIAG_WIDTH]

    def test_exactly_32_bits_allowed(self):
        m = parse_one("module t (input logic [31:0] cfg_word);\nendmodule")
        cands = extract_csr_candidates(m, CONV)
        assert cands[0].width_bits == 32

    def test_direction_mismatch(self):
        m = parse_one("module t (output logic cfg_bad, input logic sts_bad);\nendmodule")
        diags = []
        assert extract_csr_candidates(m, CONV, diags) == []
        assert [d.kind for d in diags] == [DIAG_DIRECTION, DIAG_DIRECTION]

    def test_declaration_order_kept(self):
        m = parse_one("""
        module t (
          output logic sts_z,
          input  logic cfg_a,
          input  logic clk,
          input  logic cfg_b
        );
        endmodule
        """)
        assert [c.name for c in extract_csr_candidates(m, CONV)] == ["sts_z", "cfg_a", "cfg_b"]

    def test_postfix_mode(self):
        conv = NamingConvention(match_mode="postfix")
        m = parse_one("module t (input logic [3:0] gain_cfg_);\nendmodule")
        assert [c.name for c in extract_csr_candidates(m, conv)] == ["gain_cfg_"]

    def test_diag_candidates_in_order(self):
        m = parse_one("""
        module t (
          output logic diag_a,
          input  logic clk,
          output logic diag_b,
          output logic other,
          output logic diag_c
        );
        endmodule
        """)
        assert [d.name for d in extract_diag_candidates(m, CONV)] == \
            ["diag_a", "diag_b", "diag_c"]

    def test_diag_none(self):
        m = parse_one("module t (input logic a);\nendmodule")
        assert extract_diag_candidates(m, CONV) == []

    def test_diag_multibit_rejected(self):
        m = parse_one("module t (output logic [1:0] diag_two);\nendmodule")
        diags = []
        assert extract_diag_candidates(m, CONV, diags) == []
        assert [d.kind for d in diags] == [DIAG_WIDTH]

    def test_extraction_deterministic(self):
        m = parse_one("module t (input logic cfg_a, output logic sts_b);\nendmodule")
        assert extract_csr_candidates(m, CONV) == extract_csr_candidates(m, CONV)

    def test_convention_invariants(self):
        affixes = "^naming affixes must be non-empty and pairwise distinct$"
        with pytest.raises(DataError, match=affixes):
            NamingConvention(control_prefix="x_", status_prefix="x_")
        with pytest.raises(DataError, match=affixes):
            NamingConvention(control_prefix="")
        with pytest.raises(DataError, match="^bad match_mode 'anywhere'$"):
            NamingConvention(match_mode="anywhere")


class TestLint:
    def test_counter_is_clean(self, fixtures_dir):
        assert lint(SourceFile.from_path(fixtures_dir / "my_counter.sv")) == []

    @pytest.mark.parametrize("name,rule", [
        ("w001_wire.sv", "W001"),
        ("w002_reg.sv", "W002"),
        ("w003_always.sv", "W003"),
    ])
    def test_seeded_single_violation(self, fixtures_dir, name, rule):
        violations = lint(SourceFile.from_path(fixtures_dir / "lint" / name))
        assert [v.rule_id for v in violations] == [rule]

    def test_reports_rule_and_line(self):
        violations = lint(src("module m;\nreg [3:0] state;\nendmodule"))
        assert len(violations) == 1
        v = violations[0]
        assert (v.rule_id, v.line) == ("W002", 2)

    def test_three_rules_one_each(self):
        text = """
        module m (input logic clk);
        wire a;
        reg b;
        always @(posedge clk) b <= a;
        endmodule
        """
        assert sorted(v.rule_id for v in lint(src(text))) == ["W001", "W002", "W003"]

    def test_w004_only_when_enforced(self):
        text = "module m (input logic clk);\nalways_ff @(posedge clk) x <= 1'b0;\nendmodule"
        assert [v.rule_id for v in lint(src(text))] == ["W004"]
        assert [v for v in lint(src(text)) if v.rule_id != "W004"] == []

    def test_w005_self_connections(self):
        text = "module top;\nsub u_sub (.a(a), .b(b));\nendmodule"
        assert [v.rule_id for v in lint(src(text))] == ["W005"]

    def test_w005_not_for_renamed_or_star(self):
        assert lint(src("module top;\nsub u_sub (.a(a_int), .b(b));\nendmodule")) == []
        assert lint(src("module top;\nsub u_sub (.*);\nendmodule")) == []

    def test_keywords_in_comments_and_strings_ignored(self):
        text = 'module m;\n// wire reg always @\nlogic [7:0] s;  /* reg */\nendmodule'
        assert lint(src(text)) == []

    def test_sorted_by_line(self):
        text = "module m;\nreg a;\nwire b;\nreg c;\nendmodule"
        assert [(v.rule_id, v.line) for v in lint(src(text))] == [
            ("W002", 2), ("W001", 3), ("W002", 4)]

    def test_report_format(self):
        violations = lint(src("wire x;", path="rtl/a.sv"))
        report = sv_scan.format_lint_report(violations)
        assert report == "rtl/a.sv:1: W001 wire declaration; use logic"

    def test_rule_subset(self):
        text = "module m;\nwire a;\nreg b;\nendmodule"
        assert [(v.rule_id, v.line) for v in lint(src(text)) if v.rule_id == "W001"] == \
            [("W001", 2)]


BASE_TEXT = """module first (
  input  logic clock,
  input  logic [7:0] cfg_gain,
  output logic sts_done
);
logic [3:0] helper;
always_comb helper = cfg_gain[3:0];
endmodule

module second (
  input  logic clock,
  output logic diag_bit
);
always_comb diag_bit = clock;
endmodule
"""


def _shape(mods):
    return [(m.name, m.ports) for m in mods]


class TestProperties:
    @given(line=st.integers(0, BASE_TEXT.count("\n")),
           block=st.booleans(),
           filler=st.text(alphabet=st.sampled_from(list("ab c_")), max_size=8))
    def test_comment_immunity(self, line, block, filler):
        comment = (f"/* {filler} module fake ( {filler} */" if block
                   else f"// {filler} module fake ( wire reg always @")
        lines = BASE_TEXT.splitlines()
        lines.insert(line, comment)
        mutated = "\n".join(lines) + "\n"
        assert _shape(parse_modules(src(mutated))) != []
        base_mods = parse_modules(src(BASE_TEXT))
        mut_mods = parse_modules(src(mutated))
        assert [m.name for m in mut_mods] == [m.name for m in base_mods]
        assert [[(p.name, p.direction, p.width_bits) for p in m.ports] for m in mut_mods] == \
            [[(p.name, p.direction, p.width_bits) for p in m.ports] for m in base_mods]
        base_rules = sorted(v.rule_id for v in lint(src(BASE_TEXT)))
        mut_rules = sorted(v.rule_id for v in lint(src(mutated)))
        assert mut_rules == base_rules == []

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_parse_totality(self, text):
        try:
            parse_modules(src(text))
        except MalformedSource:
            pass

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(
        ["module ", "endmodule\n", "/*", "*/", '"', "(", ")", ";", "#(", "\n",
         "input logic ", "[7:0]", "[W-1:0]", "a", ",", "wire ", "//x\n"]),
        max_size=30))
    def test_parse_totality_keyword_soup(self, tokens):
        try:
            parse_modules(src("".join(tokens)))
        except MalformedSource:
            pass

    @given(widths=st.lists(st.integers(1, 40), min_size=1, max_size=6))
    def test_candidate_width_law(self, widths):
        ports = ",\n".join(
            f"  input logic [{w - 1}:0] cfg_p{i}" if w > 1 else f"  input logic cfg_p{i}"
            for i, w in enumerate(widths))
        m = parse_one(f"module t (\n{ports}\n);\nendmodule")
        for cand in extract_csr_candidates(m, CONV):
            assert 1 <= cand.width_bits <= 32
