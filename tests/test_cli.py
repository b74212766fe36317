"""Command-line interface tests: goldens, expression parsing, exit codes."""

import io
import json
import os
import shutil
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qheisenberg import cli
from qheisenberg.arith import derive_params
from qheisenberg.cli import (MAX_NESTING, ExprError, build_parser, main,
                             parse_expression, parse_scalar)
from qheisenberg.cyclotomic import CycNumber, euler_phi, zeta_power
from qheisenberg.pbw import PbwElement, generators, product, theta
from qheisenberg.reps import (KIND_SCALARS, build_from_descriptor,
                              module_dimension)

from golden_cases import GOLDEN_CASES, expected_output, run_case

P23 = derive_params(2, 3, 1, 1)


def no_span_mod_p(monkeypatch):
    """Fail if a ladder spins an identity mod P; spins of e_i still run.

    The module and each block of `algebra_span_dim` climb one ladder,
    `linalg._certify_simple`, so neither may reach its span mod P.
    """
    from qheisenberg import linalg
    spin_mod_p = linalg._spin_mod_p

    def vectors_only(gens, seed, full):
        if full != gens[0].shape[0]:
            pytest.fail("span mod P computed")
        return spin_mod_p(gens, seed, full)

    monkeypatch.setattr(linalg, "_spin_mod_p", vectors_only)


class TestGoldens:
    @pytest.mark.parametrize("case", GOLDEN_CASES,
                             ids=[c["name"] for c in GOLDEN_CASES])
    def test_case_reproduces(self, case, tmp_path):
        code, out, err = run_case(case, str(tmp_path))
        want_out, want_err = expected_output(case)
        assert code == case["exit"]
        assert out == want_out
        assert err == want_err

    def test_json_formats_no_text_lines(self, monkeypatch, tmp_path):
        # JSON output never formats an element, a column table or a
        # module table, which only --format table prints
        def table_only(*args):
            pytest.fail("text lines formatted for JSON output")

        monkeypatch.setattr(PbwElement, "__str__", table_only)
        monkeypatch.setattr(cli, "_column_lines", table_only)
        monkeypatch.setattr(cli, "_rep_table", table_only)
        cases = [c for c in GOLDEN_CASES if c["exit"] == 0
                 and "table" not in c["argv"] and c["argv"][0] in
                 ("normal-form", "center", "scan", "module-build")]
        assert len(cases) == 6
        for case in cases:
            code, out, err = run_case(case, str(tmp_path))
            assert (code, out, err) == (0, *expected_output(case)), case["name"]

    def test_case_names_unique(self):
        names = [c["name"] for c in GOLDEN_CASES]
        assert len(names) == len(set(names))
        assert len(names) >= 20

    def test_module_entry_point(self):
        case = GOLDEN_CASES[0]
        proc = subprocess.run([sys.executable, "-m", "qheisenberg.cli"]
                              + case["argv"],
                              capture_output=True, text=True)
        want_out, _ = expected_output(case)
        assert proc.returncode == 0
        assert proc.stdout == want_out
        assert proc.stderr == ""

    def test_console_script(self):
        exe = shutil.which("qheis")
        assert exe is not None, "qheis console script is not installed"
        proc = subprocess.run([exe, "order", "--m", "2", "--n", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"ord_pq": 6}


class TestExpressions:
    def test_sum_product_precedence(self):
        elem = parse_expression("2+3*4", P23)
        assert elem == PbwElement.scalar(P23, 14)

    def test_power_binds_tighter_than_product(self):
        elem = parse_expression("2 3^2", P23)
        assert elem == PbwElement.scalar(P23, 18)

    def test_juxtaposition_is_ordered_product(self):
        x, y, z = generators(P23)
        assert parse_expression("y x", P23) == product(y, x)
        assert parse_expression("x y", P23) == product(x, y)
        assert parse_expression("y x", P23) != parse_expression("x y", P23)

    def test_unary_minus_binds_looser_than_power(self):
        x, _, _ = generators(P23)
        assert parse_expression("-x^2", P23) == -product(x, x)
        assert parse_expression("(-x)^2", P23) == product(x, x)

    def test_theta_atom(self):
        assert parse_expression("theta", P23) == theta(P23)
        # p^-1 = g^3 at these parameters
        lhs = parse_expression("y x - g^3 x y", P23)
        assert lhs == theta(P23)

    def test_g_is_root_of_unity(self):
        assert parse_expression("g^6", P23) == PbwElement.one(P23)
        assert parse_expression("g^7", P23) == \
            PbwElement.scalar(P23, zeta_power(6, 1))

    def test_atom_builds_only_itself(self, monkeypatch):
        def no_theta(params):
            pytest.fail("theta built for another atom")

        monkeypatch.setattr(cli, "theta", no_theta)
        x, y, _ = generators(P23)
        assert parse_expression("g^7*x*y", P23) == \
            product(x, y).scale(zeta_power(6, 7))

    def test_rational_literal(self):
        elem = parse_expression("3/2 - 1/2", P23)
        assert elem == PbwElement.one(P23)

    def test_parenthesized_distribution(self):
        x, y, _ = generators(P23)
        lhs = parse_expression("(x + y)^2", P23)
        rhs = product(x, x) + product(x, y) + product(y, x) + product(y, y)
        assert lhs == rhs

    def test_error_offsets(self):
        with pytest.raises(ExprError) as info:
            parse_expression("y*(x", P23)
        assert info.value.offset == 4
        with pytest.raises(ExprError) as info:
            parse_expression("2 + w", P23)
        assert info.value.offset == 4
        with pytest.raises(ExprError) as info:
            parse_expression("x^1/2", P23)
        assert info.value.offset == 2
        with pytest.raises(ExprError) as info:
            parse_expression("x^-1", P23)
        assert info.value.offset == 2
        with pytest.raises(ExprError) as info:
            parse_expression("1/0", P23)
        assert info.value.offset == 0
        with pytest.raises(ExprError) as info:
            parse_expression("", P23)
        assert info.value.offset == 0

    def test_error_offsets_are_bytes(self):
        # a two-byte character before the bad token shifts the offset by 2
        with pytest.raises(ExprError) as info:
            parse_expression("é", P23)
        assert info.value.offset == 0
        with pytest.raises(ExprError) as info:
            parse_expression("2*é", P23)
        assert info.value.offset == 2

    def test_nesting_limit(self):
        # parentheses and chained unary minuses each count one level;
        # the opening byte of the first level too deep is reported
        x, _, _ = generators(P23)
        deep = MAX_NESTING
        assert parse_expression("(" * deep + "x" + ")" * deep, P23) == x
        assert parse_expression("x+" + "-" * deep + "x", P23) == \
            x + (x if deep % 2 == 0 else -x)
        assert parse_expression("-(" * (deep // 2) + "x" + ")" * (deep // 2),
                                P23) == x
        for src, offset in [
                ("(" * (deep + 1) + "x" + ")" * (deep + 1), deep),
                ("x+" + "-" * (deep + 1) + "x", deep + 2),
                ("-(" * (deep // 2) + "-x" + ")" * (deep // 2), deep)]:
            with pytest.raises(ExprError) as info:
                parse_expression(src, P23)
            assert info.value.offset == offset
            assert str(info.value).endswith(f"nesting deeper than {deep}")

    def test_parse_scalar(self):
        value = parse_scalar("2*g^3", P23)
        assert value == CycNumber.from_rational(6, -2)
        assert parse_scalar("0", P23).is_zero()
        assert parse_scalar("3/2", P23) == \
            CycNumber.from_rational(6, Fraction(3, 2))
        with pytest.raises(ValueError):
            parse_scalar("x", P23)
        with pytest.raises(ValueError):
            parse_scalar("2 + theta", P23)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().out == ""

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_missing_slot_is_usage_error(self, capsys):
        code = main(["iso", "--m", "2", "--n", "3", "--kind", "V1",
                     "--mu", "1", "--lam", "2", "--gamma", "3",
                     "--mu2", "1", "--lam2", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gamma2 is required" in captured.err

    def test_extra_slot_is_usage_error(self, capsys):
        code = main(["module-build", "--m", "2", "--n", "3", "--kind", "V3",
                     "--lam", "1", "--mu", "2"])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, offset", [
        (["normal-form", "--m", "2", "--n", "3",
          "(" * 250 + "x" + ")" * 250], MAX_NESTING),
        (["normal-form", "--m", "2", "--n", "3",
          "x+" + "- " * 1000 + "x"], 2 * MAX_NESTING + 2),
        (["module-build", "--m", "2", "--n", "3", "--kind", "V3",
          "--lam", "(" * 250 + "1" + ")" * 250], MAX_NESTING),
    ], ids=["parentheses", "unary_minuses", "scalar_option"])
    def test_deep_nesting_is_usage_error(self, capsys, argv, offset):
        # past the nesting limit the parser stops before the interpreter's
        # recursion limit would end it with a traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: syntax error at byte {offset}: "
                                f"nesting deeper than {MAX_NESTING}\n")

    @pytest.mark.parametrize("expr, offset", [
        ("x\u00b2", 1), ("2\u00b2", 1), ("x^\u00b2", 2)],
        ids=["atom_squared", "literal_squared", "superscript_exponent"])
    def test_superscript_digit_is_syntax_error(self, capsys, expr, offset):
        # str.isdigit() holds for superscript digits, which int() and
        # Fraction refuse; the lexer reads only decimal digits
        assert main(["normal-form", "--m", "2", "--n", "3", "--", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: syntax error at byte {offset}: "
                                "unexpected character '\u00b2'\n")

    @pytest.mark.parametrize("expr, ascii_expr", [
        ("\uff13x", "3x"), ("\u0663", "3"), ("x^\uff13", "x^3")],
        ids=["fullwidth", "arabic_indic", "fullwidth_exponent"])
    def test_decimal_digits_of_other_scripts_parse(self, expr, ascii_expr):
        assert (parse_expression(expr, P23)
                == parse_expression(ascii_expr, P23))

    def test_leading_minus_expression_after_double_dash(self, capsys):
        # without -- argparse reads "-x" as an option and asks for expr
        x, _, _ = generators(P23)
        assert main(["normal-form", "--m", "2", "--n", "3", "--", "-x"]) == 0
        assert capsys.readouterr().out == json.dumps((-x).to_json(),
                                                     indent=2) + "\n"

    def test_leading_minus_scalar_joined_with_equals(self, capsys):
        base = ["module-build", "--m", "2", "--n", "3", "--kind", "V3"]
        assert main(base + ["--lam", "0-g"]) == 0
        want = capsys.readouterr().out
        assert main(base + ["--lam=-g"]) == 0
        assert capsys.readouterr().out == want

    def test_closed_stdout_is_one_error_line(self):
        # the read end is closed before the child writes, so its write and
        # the flush at exit both meet a broken pipe
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qheisenberg.cli", "module-build",
                 "--m", "2", "--n", "3", "--kind", "V3", "--lam", "-1"],
                stdout=w, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_zero_scalar_is_domain_error(self, capsys):
        code = main(["module-build", "--m", "2", "--n", "3", "--kind", "V2",
                     "--mu", "0", "--lam", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be nonzero" in captured.err

    def test_one_dim_accepts_zero_slots(self, capsys):
        code = main(["module-build", "--m", "2", "--n", "3",
                     "--kind", "OneDim", "--mu", "3", "--lam", "0",
                     "--gamma", "0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["d"] == 1

    def test_excluded_pair_is_domain_error(self, capsys):
        assert main(["order", "--m", "4", "--n", "4",
                     "--k1", "1", "--k2", "3"]) == 1
        assert capsys.readouterr().out == ""

    def test_conductor_beyond_limit_is_domain_error(self, capsys):
        # refused before any table of the field is built: l = 2000006
        # would need a zeta table of l * phi(l) > 10^12 integers
        code, err = _run_main_with_watchdog(["order", "--m", "1000003",
                                             "--n", "2"])
        assert code == 1
        assert err == ("error: conductor 2000006 exceeds the limit "
                       "MAX_CONDUCTOR = 1000\n")
        assert main(["order", "--m", "8", "--n", "125"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ord_pq": 1000}

    def test_scan_beyond_pair_limit_is_domain_error(self):
        # refused before any pair is listed: unbounded, this scan printed
        # 69 MB
        code, err = _run_main_with_watchdog(["scan", "--m", "1000003",
                                             "--n", "2"])
        assert code == 1
        assert err == ("error: m * n = 2000006 exceeds the scan limit "
                       "MAX_SCAN_PAIRS = 100000\n")

    def test_module_beyond_size_limit_is_domain_error(self):
        # refused before any matrix is built: unbounded, on a 2-vCPU box
        # this build took 23 s, printed 723 MB and peaked at 4.6 GB
        code, err = _run_main_with_watchdog(
            ["module-build", "--m", "251", "--n", "1", "--kind", "V1",
             "--mu", "2", "--lam", "3", "--gamma", "5"])
        assert code == 1
        assert err == ("error: a V1 module at these parameters has 47250750 "
                       "matrix coordinates, past MAX_MODULE_COORDINATES = "
                       "2000000\n")

    def test_module_just_under_size_limit_builds(self):
        # d = 102 over Q(zeta_204), phi = 64: 3 * 102^2 * 64 = 1,997,568
        argv = ["module-build", "--m", "4", "--n", "102", "--kind", "QPlaneZ",
                "--mu", "2", "--gamma", "5"]
        params = derive_params(4, 102)
        size = 3 * module_dimension(params, "QPlaneZ") ** 2 * euler_phi(
            params.conductor)
        assert size == 1997568 <= cli.MAX_MODULE_COORDINATES
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        data = json.loads(out.getvalue())
        assert data["d"] == 102 and len(data["Mx"]) == 102

    @pytest.mark.parametrize("kind", sorted(KIND_SCALARS))
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 4), (2, 6), (1, 5)])
    def test_module_size_counts_the_built_matrices(self, kind, m, n):
        # the count the gate reads equals the coordinates the build writes
        params = derive_params(m, n)
        cycle, _, weights = KIND_SCALARS[kind]
        raw = {slot: "2" if slot == cycle or slot in weights else None
               for slot in ("mu", "lam", "gamma")}
        data = build_from_descriptor(
            params, cli._descriptor_from_options(kind, raw, params)).to_json()
        coordinates = sum(len(entry["coeffs"]) for name in ("Mx", "My", "Mz")
                          for row in data[name] for entry in row)
        assert 3 * module_dimension(params, kind) ** 2 * euler_phi(
            params.conductor) == coordinates

    def test_malformed_module_file_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["module-classify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed module file" in captured.err

    def test_degree_overflow_is_domain_error(self, capsys):
        assert main(["normal-form", "--m", "2", "--n", "3", "x^2000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exponent beyond the degree cap 1000000\n"

    @pytest.mark.parametrize("expr,want", [
        ("y^3000*x", "xy^3000"),
        ("y^600*x^600", "x^600y^600"),
    ])
    def test_long_y_run_reorders_past_x(self, expr, want, capsys):
        # y^k x^j has a closed form, so the length of the y run sets no
        # recursion depth; at (2, 3), ord(pq) = 6 divides 600 and 3000
        assert main(["normal-form", "--m", "2", "--n", "3", expr,
                     "--format", "table"]) == 0
        assert capsys.readouterr().out == f"normal_form: {want}\n"

    @pytest.mark.parametrize("argv", [
        ["normal-form", "--m", "2", "--n", "3", "2^15000"],
        ["module-build", "--m", "2", "--n", "3", "--kind", "V3",
         "--lam", "2^15000"],
    ])
    def test_integer_beyond_digit_limit_is_domain_error(self, argv, capsys):
        # 2^15000 has 4516 decimal digits, past the interpreter's default
        # limit of 4300 on int <-> str conversion, which stays in force
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: integer with more than {limit} digits\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(d=5), "Mx is 1x1, but d is 5"),
        (lambda data: data["Mx"][0].append(data["Mx"][0][0]),
         "Mx is 1x2, but d is 1"),
        (lambda data: data.update(Mz=[[{"conductor": 4, "coeffs": ["1", "0"]}]]),
         "Mz has entries in Q(zeta_4), expected Q(zeta_6)"),
    ], ids=["d_mismatch", "non_square", "conductor_mismatch"])
    def test_inconsistent_module_file_is_domain_error(self, tmp_path, capsys,
                                                      edit, message):
        assert main(["module-build", "--m", "2", "--n", "3", "--kind",
                     "OneDim", "--mu", "1", "--lam", "0", "--gamma", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        assert main(["module-verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data["Mx"][0].__setitem__(
            1, {"conductor": 6, "coeffs": ["0"]}),
         "need exactly 2 coordinates for conductor 6"),
        (lambda data: data["Mx"][0].__setitem__(
            1, {"conductor": 4, "coeffs": ["0", "0"]}),
         "mixed conductors in matrix"),
        (lambda data: data["My"][2][3]["coeffs"].__setitem__(0, "1/0"),
         "Fraction(1, 0)"),
        (lambda data: data["Mz"][1].pop(), "ragged rows"),
        (lambda data: data.update(Mx=[]), "matrix needs at least one entry"),
        (lambda data: data["Mx"][0].__setitem__(
            1, {"conductor": 6, "coeffs": "10"}),
         "coeffs must be a JSON list, got '10'"),
        (lambda data: data["Mx"][0][0].update(conductor=True),
         "conductor must be a JSON integer, got True"),
    ], ids=["short_zero_entry", "zero_at_other_conductor", "zero_denominator",
            "ragged_row", "empty_matrix", "string_coeffs", "bool_conductor"])
    def test_malformed_matrix_is_domain_error(self, tmp_path, capsys,
                                              edit, message):
        assert main(["module-build", "--m", "2", "--n", "3",
                     "--kind", "V3", "--lam", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        assert main(["module-verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(d=True), "d must be a JSON integer, got True"),
        (lambda data: data.update(d=6.0), "d must be a JSON integer, got 6.0"),
        (lambda data: data["params"].update(m=True),
         "m must be a JSON integer, got True"),
        (lambda data: data["params"].update(k2=1.0),
         "k2 must be a JSON integer, got 1.0"),
        (lambda data: data["params"].update(conductor="6"),
         "conductor must be a JSON integer, got '6'"),
    ], ids=["bool_d", "float_d", "bool_m", "float_k2", "string_conductor"])
    @pytest.mark.parametrize("command", ["module-verify", "module-simple",
                                         "module-classify"])
    def test_non_integer_field_is_malformed(self, tmp_path, capsys, edit,
                                           message, command):
        assert main(["module-build", "--m", "2", "--n", "3",
                     "--kind", "V3", "--lam", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        assert main([command, "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed module file {path}: {message}\n"

    @pytest.mark.parametrize("index, message", [
        (["--k1", "5"], "k1 must satisfy 0 <= k1 < m, got 5"),
        (["--k1", "0"], "gcd(k1, m) = gcd(0, 2) != 1"),
        (["--k2", "3"], "k2 must satisfy 0 <= k2 < n, got 3"),
    ], ids=["k1_out_of_range", "k1_not_coprime", "k2_out_of_range"])
    def test_index_given_alone_is_validated(self, capsys, index, message):
        assert main(["order", "--m", "2", "--n", "3"] + index) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_float_conductor_is_domain_error(self, tmp_path, capsys):
        assert main(["module-build", "--m", "2", "--n", "3",
                     "--kind", "V3", "--lam", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        for row in data["Mx"]:
            for entry in row:
                entry["conductor"] = 6.0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        assert main(["module-verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed module file")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("coeffs", [[2.0, False], [0.1, "0"]],
                             ids=["float_and_bool", "float"])
    def test_inexact_coordinate_is_malformed(self, tmp_path, capsys, coeffs):
        # a JSON number that is not an integer, or a boolean, is not an
        # exact coordinate, so the file is refused rather than read as 2
        # or as the binary value of 0.1
        from qheisenberg.reps import build_v1

        data = build_v1(P23, 2, 3, 5).to_json()
        data["Mx"][0][1] = {"conductor": 6, "coeffs": coeffs}
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(data))
        assert main(["module-verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: malformed module file")
        assert "Traceback" not in captured.err

    def test_module_simple_on_dense_basis(self, tmp_path, capsys):
        # a V1 module in the basis of a random integer matrix: every
        # matrix entry is nonzero, and the exact span alone ran past 120 s
        import random
        from qheisenberg.reps import build_v1
        from test_reps import integer_conjugate

        rep = integer_conjugate(build_v1(P23, 2, 3, 5), random.Random(6))
        assert all(len(row) == 6 for row in rep.Mx._rows)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(rep.to_json()))
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 6, "span_dim": 36, "simple": True}

    def test_module_simple_reads_the_weight_certificate(self, tmp_path, capsys,
                                                        monkeypatch):
        # V1 in its weight basis: e_0 has a weight of its own under z and
        # theta and spins to the whole space both ways, so span_dim is d^2
        # with neither span computed
        from qheisenberg import reps
        from qheisenberg.reps import build_v1

        path = tmp_path / "v1.json"
        path.write_text(json.dumps(build_v1(P23, 2, 3, 5).to_json()))
        no_span_mod_p(monkeypatch)
        monkeypatch.setattr(reps, "algebra_span_dim", lambda mats: pytest.fail(
            "exact span computed"))
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 6, "span_dim": 36, "simple": True}

    def test_module_simple_runs_one_exact_span(self, tmp_path, capsys,
                                               monkeypatch):
        # two one-dimensional modules summed in a dense basis: the span is
        # short mod P and no standard basis vector spins to a submodule, so
        # only the exact span answers, and it also gives span_dim
        import random
        from qheisenberg import linalg, reps
        from qheisenberg.reps import build_one_dim, direct_sum
        from test_reps import integer_conjugate

        rep = integer_conjugate(direct_sum(build_one_dim(P23, 1, 0, 0),
                                           build_one_dim(P23, 2, 0, 0)),
                                random.Random(1))
        assert all(len(row) == 2 for row in rep.Mx._rows)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(rep.to_json()))
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return linalg.algebra_span_dim(mats)

        monkeypatch.setattr(reps, "algebra_span_dim", counted)
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 2, "span_dim": 2, "simple": False}
        assert len(calls) == 1

    def test_module_simple_spans_the_three_generators(self, tmp_path, capsys,
                                                      monkeypatch):
        # the exact span is seeded with the identity, so only Mx, My and
        # Mz are passed to it
        from qheisenberg import linalg, reps
        from qheisenberg.reps import build_v3, direct_sum

        rep = build_v3(P23, 1)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(direct_sum(rep, rep).to_json()))
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return linalg.algebra_span_dim(mats)

        monkeypatch.setattr(reps, "algebra_span_dim", counted)
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 12, "span_dim": 36, "simple": False}
        assert calls == [3]

    def test_module_simple_skips_span_mod_p_on_weight_basis(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        # V3 + V3 in its weight basis shares every weight, and the exact
        # spin of e_0 is a proper submodule, so the span mod P is never
        # needed before the exact span
        from qheisenberg.reps import build_v3, direct_sum

        rep = build_v3(P23, 1)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(direct_sum(rep, rep).to_json()))
        no_span_mod_p(monkeypatch)
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 12, "span_dim": 36, "simple": False}

    def test_module_simple_splits_a_builder_basis_sum(self, tmp_path):
        # QPlaneTheta + V1 in the builders' basis: two blocks, each full
        # mod P and of different size, so span_dim is 2^2 + 6^2 without the
        # exact spin of the whole identity, which ran past 90 s
        import time
        from qheisenberg.reps import (THETA_TORSION, build_qplane, build_v1,
                                      direct_sum)

        rep = direct_sum(build_qplane(P23, THETA_TORSION, 2, 3),
                         build_v1(P23, 2, 3, 5))
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(rep.to_json()))
        out = io.StringIO()
        start = time.perf_counter()
        code, err = _run_main_with_watchdog(
            ["module-simple", "--in", str(path), "--format", "table"], out)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out.getvalue() == "d: 8\nspan_dim: 40\nsimple: false\n"

    def test_module_classify_reads_the_pi_degree_on_a_dense_sum(self,
                                                                tmp_path):
        # V1(2,3,5) + V1(3,2,7) at (1, 4) in a dense basis: d = 8 is above
        # the PI degree l = 4, so is_simple answers with no span; the span
        # ladder reached the exact span, which ran past 900 s
        import random
        import time
        from qheisenberg.reps import build_v1, direct_sum
        from test_reps import integer_conjugate

        params = derive_params(1, 4)
        rep = integer_conjugate(direct_sum(build_v1(params, 2, 3, 5),
                                           build_v1(params, 3, 2, 7)),
                                random.Random(1))
        assert all(len(row) == 8 for row in rep.Mx._rows)
        path = tmp_path / "dense_sum.json"
        path.write_text(json.dumps(rep.to_json()))
        start = time.perf_counter()
        code, err = _run_main_with_watchdog(["module-classify", "--in",
                                             str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, "error: input module is not simple\n")

    def test_non_simple_module_is_domain_error(self, tmp_path, capsys):
        import io
        from contextlib import redirect_stdout
        from qheisenberg.reps import MatrixRep, direct_sum

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["module-build", "--m", "4", "--n", "4",
                         "--kind", "V3", "--lam", "1"]) == 0
        rep = MatrixRep.from_json(json.loads(buf.getvalue()))
        doubled = direct_sum(rep, rep)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(doubled.to_json()))
        assert main(["module-simple", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["simple"] is False
        assert main(["module-classify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""


class TestTableFormat:
    def test_iso_table(self, capsys):
        assert main(["iso", "--m", "2", "--n", "3", "--kind", "V3",
                     "--lam", "1", "--lam2", "1", "--format", "table"]) == 0
        assert capsys.readouterr().out == "isomorphic: true\nk: 0\n"

    def test_verify_table(self, tmp_path, capsys):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["module-build", "--m", "2", "--n", "3",
                         "--kind", "V2", "--mu", "1", "--lam", "2"]) == 0
        path = tmp_path / "v2.json"
        path.write_text(buf.getvalue())
        assert main(["module-verify", "--in", str(path),
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out == ("ok: true\nzx_zero: true\nzy_zero: true\n"
                       "yx_zero: true\n")

    def test_parser_object_builds(self):
        parser = build_parser()
        args = parser.parse_args(["pideg", "--m", "2", "--n", "3"])
        assert args.command == "pideg"
        assert args.k1 is None and args.k2 is None

    def test_main_builds_parser_once(self, monkeypatch, tmp_path):
        # one parser serves every call of main; replaying the goldens in
        # reverse order shows that no call leaves state for the next
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        try:
            for case in reversed(GOLDEN_CASES):
                code, out, err = run_case(case, str(tmp_path))
                assert code == case["exit"], case["name"]
                assert (out, err) == expected_output(case), case["name"]
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1


# --- fuzzing: every input ends in an exit code, never a traceback ------------

_FUZZ_TOKENS = list("xyzg0123456789^*+-() ") + ["theta"]
_FUZZ_TEXT = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12).map(
    lambda parts: "".join(parts)[:12])
_FUZZ_SECONDS = 2


class _Hang(Exception):
    pass


def _run_main_with_watchdog(argv, out=None):
    """main(argv) -> (exit code, stderr); _Hang past _FUZZ_SECONDS.

    stdout goes to out when it is given, else it is dropped.
    """
    def expire(signum, frame):
        raise _Hang(f"main({argv!r}) ran past {_FUZZ_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _FUZZ_SECONDS)
    err = io.StringIO()
    try:
        with redirect_stdout(out or io.StringIO()), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _assert_clean_exit(argv):
    code, err = _run_main_with_watchdog(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert err.startswith("error: "), (argv, err)


_FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# powers that ran past the watchdog before each product of `^` was bounded
_POWERS_BEYOND_CAPS = ["(x+y)^200", "(x+y)^99999", "theta^99999",
                       "(1+x)^9999", "9^99999999"]


class TestFuzz:
    """Short random text through cli.main: exit 0, 1 or 2 and no traceback."""

    @_FUZZ_SETTINGS
    @given(expr=_FUZZ_TEXT, pair=st.sampled_from([(2, 3), (3, 2), (1, 4)]),
           dashes=st.booleans())
    @example(expr=_POWERS_BEYOND_CAPS[0], pair=(2, 3), dashes=False)
    @example(expr=_POWERS_BEYOND_CAPS[1], pair=(2, 3), dashes=False)
    @example(expr=_POWERS_BEYOND_CAPS[2], pair=(2, 3), dashes=False)
    @example(expr=_POWERS_BEYOND_CAPS[3], pair=(2, 3), dashes=False)
    @example(expr=_POWERS_BEYOND_CAPS[4], pair=(2, 3), dashes=False)
    def test_normal_form_expressions(self, expr, pair, dashes):
        argv = ["normal-form", "--m", str(pair[0]), "--n", str(pair[1])]
        _assert_clean_exit(argv + (["--", expr] if dashes else [expr]))

    @pytest.mark.parametrize("argv", [
        ["order", "--m=--", "--n", "3"],
        ["module-simple", "--in=--"],
        ["module-build", "--m", "2", "--n", "3", "--kind", "OneDim",
         "--mu=--", "--lam=1", "--gamma=1"],
    ])
    def test_option_value_of_two_dashes_is_an_error(self, argv):
        # Python 3.11's argparse reads --opt=-- as [], which reached the
        # scalar parser as a list and ended in a traceback (found by
        # test_module_build_scalars); other versions may read "--"
        code, err = _run_main_with_watchdog(argv)
        assert code in (1, 2) and err.count("error: ") == 1, (argv, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("expr", _POWERS_BEYOND_CAPS)
    def test_power_beyond_caps_is_one_error_line(self, expr):
        code, err = _run_main_with_watchdog(
            ["normal-form", "--m", "2", "--n", "3", expr])
        assert code == 1
        assert err.startswith("error: power too large: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("expr", ["0^2", "(x-x)^3", "(x-x)^99999999"])
    def test_power_of_zero_is_zero(self, expr, capsys):
        assert main(["normal-form", "--m", "2", "--n", "3", expr]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["terms"] == []
        assert captured.err == ""

    @_FUZZ_SETTINGS
    @given(kind=st.sampled_from(sorted(KIND_SCALARS)), mu=_FUZZ_TEXT,
           lam=_FUZZ_TEXT, gamma=_FUZZ_TEXT)
    def test_module_build_scalars(self, kind, mu, lam, gamma):
        argv = ["module-build", "--m", "2", "--n", "3", "--kind", kind]
        cycle, _, weights = KIND_SCALARS[kind]
        for slot, text in (("mu", mu), ("lam", lam), ("gamma", gamma)):
            if slot == cycle or slot in weights:
                argv.append(f"--{slot}={text}")
        _assert_clean_exit(argv)
