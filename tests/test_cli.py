"""Command-line behavior: ideal parsing, exit codes, report formats, goldens."""

import contextlib
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import epsmult.cli as cli
from epsmult import ideals as ideals_mod
from epsmult import multiplicity as mult_mod
from epsmult import okounkov as okounkov_mod
from epsmult import (
    IdealSyntaxError,
    InconclusiveError,
    MonomialIdeal,
    Semigroup,
    beta_stability,
    swanson_c_search,
)
from epsmult.cli import main, parse_ideal
from epsmult.multiplicity import TheoremARow

GOLDEN = Path(__file__).parent / "golden"
X2_XY = "x^2, x*y"
OUTER_X = '{"dim": 2, "generators": [[1, 0]]}'


class TestParseIdeal:
    def test_two_generators(self):
        assert parse_ideal("x^2, x*y") == MonomialIdeal(2, [(2, 0), (1, 1)])

    def test_powers_and_products(self):
        assert parse_ideal("x^2*y, y^3") == MonomialIdeal(2, [(2, 1), (0, 3)])

    def test_repeated_variable_accumulates(self):
        assert parse_ideal("x*x") == MonomialIdeal(1, [(2,)])

    def test_named_variables_fix_the_dimension(self):
        assert parse_ideal("w") == MonomialIdeal(4, [(0, 0, 0, 1)])
        assert parse_ideal("z^2") == MonomialIdeal(3, [(0, 0, 2)])

    def test_indexed_variables(self):
        assert parse_ideal("x1*x3^2") == MonomialIdeal(3, [(1, 0, 2)])

    def test_zero_power_pads_the_dimension(self):
        assert parse_ideal("x*y^0") == MonomialIdeal(2, [(1, 0)])
        assert parse_ideal("x^0").is_unit

    def test_whitespace_is_ignored(self):
        assert parse_ideal("  x^2 ,\n x * y ") == parse_ideal("x^2, x*y")

    def test_json_form_is_minimalized(self):
        text = '{"dim": 2, "generators": [[2, 0], [1, 1], [3, 3]]}'
        assert parse_ideal(text).generators == ((1, 1), (2, 0))

    @pytest.mark.parametrize(
        "text,needle,where",
        [
            # ids leave the position out, so moving one renames no case
            pytest.param(text, needle, where, id=f"{text}-{needle}")
            for text, needle, where in [
                ("x^2 + y", "sums are not monomials", (1, 5)),
                ("", "empty input", (1, 1)),
                ("x^", "nonnegative integer", (1, 2)),
                ("3*x", "bare integers", (1, 1)),
                ("q", "unknown variable", (1, 1)),
                ("y2", "unknown variable 'y2' \\(indexed variables are x1..xd\\)", (1, 1)),
                ("x1, y", "cannot mix", (1, 5)),
                ("y, x2", "cannot mix", (1, 4)),
                ("x0", "start at x1", (1, 1)),
                ("x17^2", "exceeds the supported maximum", (1, 1)),
                ("x^2 y", "expected '\\*' or ','", (1, 5)),
                ("x*", "dangling '\\*'", (1, 2)),
                ("x*, y", "dangling '\\*'", (1, 2)),
                # an empty generator is reported at the comma that ends it,
                # or at the trailing comma
                ("x,,y", "empty generator", (1, 3)),
                ("x,", "empty generator", (1, 2)),
                (",x", "empty generator", (1, 1)),
                ("x^2,\n, y", "empty generator", (2, 1)),
                ("x^2,, y", "empty generator", (1, 5)),
                ("{not json", "invalid JSON", (1, 2)),
                ('{"dim": 2}', "generators", (1, 1)),
                ('{"dim": 2, "generators": [[1]]}', "has length 1, expected 2", (1, 1)),
                ('{"dim": 17, "generators": []}', "exceeds the supported maximum", (1, 1)),
                ("\u00c0", "unexpected token", (1, 1)),  # a letter, but not one of the grammar's
                ("x^\u00b2", "nonnegative integer", (1, 2)),  # a digit, but not an ASCII one
            ]
        ],
    )
    def test_rejected_inputs(self, text, needle, where):
        with pytest.raises(IdealSyntaxError, match=needle) as info:
            parse_ideal(text)
        assert (info.value.line, info.value.column) == where

    def test_deeply_nested_json_is_a_syntax_error(self):
        text = '{"generators": ' + "[" * 10**5 + "]" * 10**5 + "}"
        with pytest.raises(IdealSyntaxError, match="nested too deeply"):
            parse_ideal(text)

    def test_errors_carry_positions(self):
        with pytest.raises(IdealSyntaxError) as info:
            parse_ideal("x^2 + y")
        assert (info.value.line, info.value.column) == (1, 5)
        with pytest.raises(IdealSyntaxError) as info:
            parse_ideal("x^2,\nx^")
        assert info.value.line == 2


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["epsilon", "-i", X2_XY, "--nmax", "3"]) == 0
        out = capsys.readouterr().out
        assert "n,length,e_n(num),e_n(den)" in out

    def test_syntax_error_is_4(self, capsys):
        assert main(["epsilon", "-i", "x^2 + y"]) == 4
        err = capsys.readouterr().err
        assert "sums are not monomials" in err
        assert "line 1, column 5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["epsilon"],  # missing required --ideal
            ["epsilon", "-i", "x", "--format", "xml"],
            ["epsilon", "-i", "x", "--nmax", "three"],
            ["no-such-command"],
            [],
            ["epsilon", "-i", "x", "--bogus"],
        ],
    )
    def test_usage_errors_are_4(self, argv, capsys):
        assert main(argv) == 4
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "epsilon" in capsys.readouterr().out

    def test_missing_ideal_file_is_4(self, capsys):
        assert main(["epsilon", "-i", "missing/ideal.json"]) == 4
        assert "no such file" in capsys.readouterr().err

    def test_directory_as_ideal_file_is_4(self, tmp_path, capsys):
        assert main(["epsilon", "-i", str(tmp_path)]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_ideal_file_not_in_utf8_is_4(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_bytes(b'{"dim": 1, "generators": [[1]]} \xff')
        assert main(["semigroup", "-i", str(path)]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_containment_violation_is_3(self, capsys):
        assert main(["amao", "--inner", "x", "--outer", "x^2"]) == 3
        err = capsys.readouterr().err
        assert "inner not contained in outer (at family index n=1)" in err

    def test_too_short_a_window_is_3_before_any_power(self, capsys, products):
        # the length at k = 1 is read, then k_max < d + window is refused
        assert main(["amao", "--inner", "x^2", "--outer", "x", "--kmax", "3"]) == 3
        out, err = capsys.readouterr()
        assert (out, products) == ("", [])
        assert err == "error: need at least 4 terms to take 1 differences with a window of 3; got 3\n"
        argv = ["theorem-a", "-i", X2_XY, "--mmax", "2", "--kmax", "4", "--nmax", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err.endswith("with a window of 3; got 4\n")
        assert products == []

    @pytest.mark.parametrize(
        "inner, outer, message",
        [
            (X2_XY, '{"dim": 2, "generators": [[0, 1]]}', "inner not contained in outer"),
            ("x*y", OUTER_X, "outer/inner has infinite length"),
        ],
        ids=["not-contained", "infinite"],
    )
    def test_containment_errors_precede_a_short_window(self, inner, outer, message, capsys, products):
        assert main(["amao", "--inner", inner, "--outer", outer, "--kmax", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.endswith("(at family index n=1)\n")
        assert products == []

    def test_dimension_mismatch_is_3(self, capsys):
        assert main(["amao", "--inner", X2_XY, "--outer", "x"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("epsilon", "x^2, y^" + "9" * 5000, "column 8"),
            ("epsilon", "x1, x" + "9" * 5000, "column 5"),
            ("epsilon", '{"dim": 1, "generators": [[' + "9" * 5000 + "]]}", "column 1"),
            ("semigroup", '{"dim": 1, "generators": [[0, ' + "9" * 5000 + "]]}", "column 1"),
        ],
        ids=["exponent", "index", "json-ideal", "json-semigroup"],
    )
    def test_number_past_the_digit_limit_is_4(self, command, text, where, capsys):
        # int() refuses more than 4300 digits; the parser names the number instead
        assert main([command, "-i", text]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "a number has too many digits" in err
        assert f"(line 1, {where})" in err
        assert "4300" not in err

    def test_semigroup_dimension_past_the_maximum_is_4(self, capsys):
        # the report normalizes by n^d: at d = 2^70 that alone would exhaust memory
        data = json.dumps({"dim": 2**70, "generators": []})
        assert main(["semigroup", "-i", data, "--nmax", "2"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeds the supported maximum 16" in err

    def test_ideal_dimension_past_the_maximum_is_4(self, capsys):
        # checked before the ideal is formed: no int64 array has 2^70 columns
        data = json.dumps({"dim": 2**70, "generators": []})
        assert main(["epsilon", "-i", data]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeds the supported maximum 16" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # e_1 = 6 * 2^180, past 10^48
            ["epsilon", "-i", "x^1152921504606846976, y^1152921504606846976, z^1152921504606846976"],
            ["okounkov-volume", "-i", "x, y", "--beta", "1000000000000000000000000000000"],
        ],
    )
    def test_huge_decimals_are_written_out(self, argv, capsys):
        assert main([*argv, "--nmax", "1", *JSON]) == 0
        decimals = re.findall(r'"[a-z_]*decimal": "([^"]*)"', capsys.readouterr().out)
        assert decimals
        assert all(re.fullmatch(r"[0-9]+\.[0-9]{12}", text) for text in decimals)
        assert max(map(len, decimals)) >= 49 + 13  # at least 10^48

    def test_zero_decimal_has_twelve_places(self, capsys):
        assert main(["epsilon", "-i", "x^2, x*y, y*z, z*w", "--nmax", "3", *JSON]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["decimal"] for row in rows] == ["0.000000000000"] * 2 + ["0.296296296296"]

    def test_generator_of_the_wrong_length_in_json_is_4(self, capsys):
        # a schema error inside one ideal, not two ideals in different rings
        assert main(["epsilon", "-i", '{"dim":2,"generators":[[1]]}']) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: exponent vector (1,) has length 1, expected 2")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "--nmax", "-3"],
            ["lemmas", "--nmax", "0"],
            ["lemmas", "--nmax", "2", "--kmax", "-1"],
            ["lemmas", "--nmax", "2", "--kmax", "0"],
            ["lemmas", "-i", X2_XY, "--nmax", "0", "--kmax", "0"],
            ["semigroup", "-i", '{"dim": 1, "generators": [[0, 1], [1, 1]]}', "--nmax", "0"],
            ["theorem-a", "-i", X2_XY, "--mmax", "0"],
            ["epsilon", "-i", X2_XY, "--nmax", "0"],
        ],
    )
    def test_empty_or_negative_ranges_are_3(self, argv, capsys):
        # each used to print an empty table, or a vacuous pass, and exit 0
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be" in err

    def test_lemmas_on_the_input_alone_is_valid(self, capsys):
        assert main(["lemmas", "-i", X2_XY, "--nmax", "0"]) == 0
        assert "# lemma3: 1/1 pass" in capsys.readouterr().out

    def test_failed_containment_is_3(self, capsys, monkeypatch):
        # the batched check answers for every i at once: all fail
        monkeypatch.setattr(
            mult_mod, "inside_saturation", lambda ideals, powers: [False] * len(ideals)
        )
        assert main(["lemmas", "-i", X2_XY, "--nmax", "0", "--format", "json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["rows"][0]["lemma3_ok"] is False
        assert report["rows"][0]["lemma3_first_failure"] == 1
        assert report["lemma3_passes"] == 0

    def test_infinite_quotient_is_3(self, capsys):
        assert main(["amao", "--inner", "x*y", "--outer", "x*y^0"]) == 3
        capsys.readouterr()

    def test_exponent_past_int64_is_3(self, capsys):
        ideal = '{"dim":2,"generators":[[9223372036854775808,0],[0,1]]}'
        assert main(["epsilon", "-i", ideal, "--nmax", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a generator has degree above")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["1_0", " 1", "+1", "\u0661", "1.0", ""])
    def test_level_key_not_plain_decimal_is_4(self, key, capsys):
        data = json.dumps({"dim": 1, "levels": {key: [[0]]}}, ensure_ascii=False)
        assert main(["semigroup", "-i", data, "--nmax", "10"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "is not a plain decimal number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["epsilon", "-i", '{"dim":2,"generators":[[1.5,0]]}'],
            ["epsilon", "-i", '{"dim":2,"generators":[[1,true]]}'],
            ["lemmas", "-i", '{"dim":2.9,"generators":[[1,0]]}', "--nmax", "0"],
            ["semigroup", "-i", '{"dim":1,"generators":[[0.5,1]]}'],
        ],
    )
    def test_non_integer_exponent_is_4(self, argv, capsys):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ('{"dim":1,"levels":{"1":[[1]]},"generators":[[1,1]]}', "not both"),
            ('{"dim":1,"generators":null}', "JSON needs 'generators' or 'levels'"),
        ],
    )
    def test_semigroup_json_names_exactly_one_source_or_is_4(self, data, message, capsys):
        # both keys used to exit 0 with the levels silently ignored
        assert main(["semigroup", "-i", data, "--nmax", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_unit_ideal_is_3(self, capsys):
        assert main(["epsilon", "-i", "x^0"]) == 3
        capsys.readouterr()

    def test_bad_nmax_is_3(self, capsys):
        assert main(["epsilon", "-i", X2_XY, "--nmax", "0"]) == 3
        capsys.readouterr()

    def test_theorem_a_checks_nmax_before_the_table(self, capsys, monkeypatch):
        def no_table(*a, **k):
            raise AssertionError("the table was computed before --nmax was checked")

        monkeypatch.setattr(cli, "theorem_a_table", no_table)
        assert main(["theorem-a", "-i", X2_XY, "--nmax", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: n_max must be at least 1, got 0\n"

    def test_inconclusive_table_is_2(self, capsys, monkeypatch):
        rows = [
            TheoremARow(1, 1, Fraction(1), 1, "ok"),
            TheoremARow(2, None, None, None, "inconclusive"),
        ]
        monkeypatch.setattr(cli, "theorem_a_table", lambda *a, **k: rows)
        assert main(["theorem-a", "-i", X2_XY, "--nmax", "2"]) == 2
        out = capsys.readouterr().out
        assert "2,inconclusive,,," in out

    def test_inconclusive_table_names_each_stalled_row(self, capsys):
        # stdout is the theorem_a_inconclusive golden
        assert main(INCONCLUSIVE) == 2
        assert capsys.readouterr().err == "inconclusive: m=1: last 3 d-th differences: 15, 16, 16\n"

    def test_inconclusive_amao_is_2(self, capsys, monkeypatch):
        def never_settles(*a, **k):
            raise InconclusiveError("differences kept drifting", tail=(11, 12, 12))

        monkeypatch.setattr(cli, "amao", never_settles)
        assert main(["amao", "--inner", X2_XY, "--outer", OUTER_X]) == 2
        assert "inconclusive" in capsys.readouterr().err

    def test_inconclusive_message_names_the_last_differences(self, capsys):
        argv = ["amao", "--inner", "x^4, x*y^3, y^4", "--outer", "x^2, x*y, y^2", "--kmax", "5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "inconclusive: d-th differences did not stabilize: last 2 equal, "
            "window of 3 required; last 3 d-th differences: 11, 12, 12\n"
        )


class TestReports:
    def test_config_line_embeds_the_arguments(self, capsys):
        main(["epsilon", "-i", X2_XY, "--nmax", "4"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("# config: ")
        assert json.loads(first[len("# config: ") :]) == {
            "command": "epsilon",
            "format": "csv",
            "ideal": X2_XY,
            "nmax": 4,
        }

    def test_out_flag_writes_the_same_report(self, capsys, tmp_path):
        main(["epsilon", "-i", X2_XY, "--nmax", "5"])
        streamed = capsys.readouterr().out
        target = tmp_path / "report.csv"
        main(["epsilon", "-i", X2_XY, "--nmax", "5", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == streamed
        assert streamed.endswith("\n")

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["okounkov-volume", "-i", X2_XY, "--beta", "2", "--nmax", "6"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_json_format_parses(self, capsys):
        main(["epsilon", "-i", X2_XY, "--nmax", "4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["command"] == "epsilon"
        assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4]
        assert payload["rows"][3]["decimal"] == "1.250000000000"

    def test_semigroup_cone_report(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        assert main(["semigroup", "-i", "simplex_semigroup.json", "--nmax", "3", "--beta", "1"]) == 0
        out = capsys.readouterr().out
        assert "# cone2=true,cone3=true" in out
        assert "1,3,3,1,1,2" in out

    def test_lemma_summary_lines(self, capsys):
        assert main(["lemmas", "--seed", "5", "--nmax", "4", "--kmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "# lemma3: 4/4 pass" in out
        assert "# lemma4: max grid-c" in out

    def test_lemmas_with_input_ideal_reports_its_c(self, capsys):
        assert main(["lemmas", "-i", X2_XY, "--seed", "5", "--nmax", "2", "--kmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "# lemma4 grid-c = 2" in out
        assert out.splitlines()[2].startswith("input,d=2:1 1;2 0,true,2")

    def test_theorem_a_appends_the_epsilon_sequence(self, capsys):
        main(["theorem-a", "-i", X2_XY, "--mmax", "2", "--kmax", "12", "--nmax", "3"])
        out = capsys.readouterr().out
        assert "# epsilon sequence" in out
        assert out.index("m,a_m") < out.index("# epsilon sequence")
        assert "3,6,4,3" in out.split("# epsilon sequence")[1]


def _run_checkout(*args: str) -> subprocess.CompletedProcess:
    """Run ``python args...`` (``-c script ..`` or ``-m module ..``) against this checkout.

    The absolute ``src`` of the imported package goes first on the child's
    ``PYTHONPATH``, so the child tests this checkout from any working directory.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


class TestRepeatedCalls:
    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        script = "import sys; from epsmult.cli import main; sys.exit(main(sys.argv[1:]))"
        first = ["okounkov-volume", "-i", X2_XY, "--beta", "2", "--nmax", "5", "--format", "json"]
        second = ["epsilon", "-i", X2_XY, "--nmax", "4"]
        assert main([*first, "--out", str(tmp_path / "first.json")]) == 0
        assert main(second) == 0
        streamed = capsys.readouterr().out
        fresh = _run_checkout("-c", script, *first, "--out", str(tmp_path / "fresh.json"))
        assert fresh.returncode == 0, fresh.stderr
        assert (tmp_path / "first.json").read_text() == (tmp_path / "fresh.json").read_text()
        fresh = _run_checkout("-c", script, *second)
        assert fresh.returncode == 0, fresh.stderr
        assert streamed == fresh.stdout


class TestNoRecomputation:
    def test_semigroup_sweep_rasterizes_once(self, capsys, monkeypatch):
        calls = []
        counts = Semigroup.counts

        def counted(sg, n_max):
            calls.append(n_max)
            return counts(sg, n_max)

        monkeypatch.setattr(Semigroup, "counts", counted)
        monkeypatch.chdir(GOLDEN)
        assert main(["semigroup", "-i", "simplex_semigroup.json", "--nmax", "30"]) == 0
        assert "30,496," in capsys.readouterr().out
        assert calls == [30]

    def test_okounkov_volume_builds_one_power_chain(self, capsys, products):
        nmax = 15
        assert main(["okounkov-volume", "-i", X2_XY, "--beta", "2", "--nmax", str(nmax)]) == 0
        assert "# epsilon_via_volumes" in capsys.readouterr().out
        assert len(products) <= nmax - 1

    def test_okounkov_volume_counts_each_level_once(self, capsys, monkeypatch):
        # one simplex_counts call reads level n of both families off I^n's
        # grid, the probe level's in the volume difference, and no saturation
        # ideal is formed; the second ideal's chain crosses onto grid products
        levels = []
        count = okounkov_mod.simplex_counts

        def counted(ideal, cap):
            levels.append((ideal.generators, cap))
            return count(ideal, cap)

        def no_saturation(ideal):
            raise AssertionError("okounkov-volume formed a saturation ideal")

        monkeypatch.setattr(okounkov_mod, "simplex_counts", counted)
        monkeypatch.setattr(cli, "simplex_counts", counted)
        monkeypatch.setattr(ideals_mod, "_saturation_on_grid", no_saturation)
        nmax = 15
        for text in (X2_XY, "x^5, x^4*y, x^2*y^2, x*y^4"):
            levels.clear()
            assert main(["okounkov-volume", "-i", text, "--beta", "2", "--nmax", str(nmax)]) == 0
            assert "# epsilon_via_volumes" in capsys.readouterr().out
            base = parse_ideal(text)
            # beta 2: level n is counted to 2n, on I^n, once
            want = [(base.power(n).generators, 2 * n) for n in range(1, nmax + 1)]
            assert sorted(levels) == sorted(want), text

    @pytest.mark.parametrize(
        "argv",
        [
            ["okounkov-volume", "-i", "x^0"],
            ["okounkov-volume", "-i", X2_XY, "--nmax", "0"],
            ["okounkov-volume", "-i", X2_XY, "--beta", "0"],
        ],
        ids=["unit-ideal", "nmax-0", "beta-0"],
    )
    def test_okounkov_volume_rejects_before_any_count(self, argv, capsys, monkeypatch):
        def no_count(ideal, cap):
            raise AssertionError("a level was counted before the input was checked")

        monkeypatch.setattr(okounkov_mod, "simplex_counts", no_count)
        monkeypatch.setattr(cli, "simplex_counts", no_count)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_okounkov_volume_builds_each_grid_once(self, capsys, monkeypatch):
        # x * (x^4, x^3*y, x*y^2, y^4): the chain crosses onto grid products,
        # and I^n and sat(I^n) = (x^n) are all distinct ideals
        kept, scanned = [], []
        set_grid, height_grids = MonomialIdeal._set_grid, ideals_mod._height_grids

        def recorded_set_grid(ideal, cuts, heights):
            kept.append(ideal.generators)
            return set_grid(ideal, cuts, heights)

        def recorded_height_grids(ideals):
            scanned.extend(ideal.generators for ideal in ideals)
            return height_grids(ideals)

        monkeypatch.setattr(MonomialIdeal, "_set_grid", recorded_set_grid)
        monkeypatch.setattr(ideals_mod, "_height_grids", recorded_height_grids)
        text = "x^5, x^4*y, x^2*y^2, x*y^4"
        nmax = 15
        assert main(["okounkov-volume", "-i", text, "--beta", "2", "--nmax", str(nmax)]) == 0
        assert "# epsilon_via_volumes" in capsys.readouterr().out
        monkeypatch.undo()
        base = parse_ideal(text)
        links = [base.power(n) for n in range(1, nmax + 1)]
        # every grid is built once, and a grid product keeps the grid it made
        assert len(set(kept)) == len(kept)
        assert {link.generators for link in links} <= set(kept)
        shifted = [
            after.generators
            for before, after in zip(links, links[1:])
            if len(before.generators) * len(base.generators) >= ideals_mod._GRID_CUTOVER
        ]
        assert len(shifted) >= 5
        assert not set(shifted) & set(scanned)

    def test_lemmas_row_shares_one_chain_between_its_checks(self, capsys, products, monkeypatch):
        # the truncation search builds I^2..I^12 and no saturation; the
        # containment check reads I^2..I^4 off that chain, adds
        # sat(I)^2..sat(I)^4, and reads each sat(I^i) off I^i's grid: sat(I)
        # is the one saturation formed
        saturations = []
        saturation = ideals_mod._saturation_on_grid

        def counted_saturation(ideal):
            saturations.append(ideal.generators)
            return saturation(ideal)

        monkeypatch.setattr(ideals_mod, "_saturation_on_grid", counted_saturation)
        text = "x^2*y, x*y^3, y^5, x^4"
        swanson_c_search(parse_ideal(text))
        assert (len(products), saturations) == (11, [])
        products.clear()
        assert main(["lemmas", "-i", text, "--nmax", "0", "--kmax", "4"]) == 0
        capsys.readouterr()
        factors, saturated = [other.generators for other in products], list(saturations)
        base = parse_ideal(text)
        assert sorted(factors) == sorted([base.generators] * 11 + [base.saturate().generators] * 3)
        assert saturated == [base.generators]

    def test_each_grid_takes_one_saturation_pass(self, capsys, monkeypatch):
        # a lemmas row reads sat(I^i) off one stack of the I^i in each check,
        # and sat(I) in saturate(); beta_stability counts one level at every
        # beta.  Each grid or stack takes one saturation-height pass.
        grids = []  # kept alive, so that no two grids share an id
        heights = ideals_mod._saturation_heights

        def recorded(height):
            grids.append(height)
            return heights(height)

        for module in [m for name, m in sys.modules.items() if name.startswith("epsmult")]:
            if getattr(module, "_saturation_heights", None) is heights:
                monkeypatch.setattr(module, "_saturation_heights", recorded)
        assert main(["lemmas", "--seed", "1", "--nmax", "50"]) == 0
        capsys.readouterr()
        assert beta_stability(parse_ideal(X2_XY), 1, 4, 0, 3).stabilized_beta == 4
        assert len(grids) > 100
        assert len({id(grid) for grid in grids}) == len(grids)

    def test_deep_probe_level_needs_no_recursion(self, capsys):
        # The power chain is built bottom-up: a probe level far past the
        # interpreter's recursion limit still reports.
        assert main(["okounkov-volume", "-i", "x*y", "--beta", "2", "--nmax", "1500"]) == 0
        assert "# epsilon_via_volumes: num=0, den=1" in capsys.readouterr().out


class TestProcessLevel:
    def test_console_script_is_installed(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts["epsmult"] == "epsmult.cli:entrypoint"
        assert callable(pkgutil.resolve_name(scripts["epsmult"]))
        # Run the target the way the generated console-script wrapper does.
        script = (
            "import sys; from epsmult.cli import entrypoint; "
            "sys.argv[0] = 'epsmult'; sys.exit(entrypoint())"
        )
        proc = _run_checkout("-c", script, "epsilon", "-i", "x^2", "--nmax", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1] == "n,length,e_n(num),e_n(den)"
        assert _run_checkout("-c", script, "epsilon", "-i", "x^2 + y").returncode == 4

    def test_exit_code_crosses_the_process_boundary(self, tmp_path):
        script = "import sys; from epsmult.cli import main; sys.exit(main(sys.argv[1:]))"
        ok = _run_checkout("-c", script, "epsilon", "-i", "x^2", "--nmax", "2")
        assert ok.returncode == 0
        assert "1,2,2,1" in ok.stdout
        bad = _run_checkout("-c", script, "epsilon", "-i", "x^2 + y")
        assert bad.returncode == 4

    @pytest.mark.parametrize("module", ["epsmult", "epsmult.cli"])
    def test_python_dash_m_runs_the_cli(self, module, capsys):
        # both used to exit 0 without running anything, or fail to start
        argv = ["epsilon", "-i", X2_XY, "--nmax", "2"]
        assert main(argv) == 0
        proc = _run_checkout("-m", module, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out
        bad = _run_checkout("-m", module, "epsilon", "-i", X2_XY, "--nmax", "0")
        assert bad.returncode == 3
        assert bad.stdout == "" and bad.stderr.startswith("error: n_max must be at least 1")

    def test_reports_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (about 1 MB) on its first call; the
        # package sorts its cuts without it
        script = (
            "import contextlib, io, sys; from epsmult.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({LEMMAS_X2XY!r}) == 0\n"
            "    assert main(['epsilon', '-i', 'x^2*y, y*z^3, x*z^2', '--nmax', '6']) == 0\n"
            f"    assert main({OKOUNKOV_X2XY!r}) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        proc = _run_checkout("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.skipif(shutil.which("epsmult") is None, reason="no epsmult script on PATH")
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [shutil.which("epsmult"), "epsilon", "-i", "x^2", "--nmax", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "n,length,e_n(num),e_n(den)"


JSON = ["--format", "json"]
THEOREM_A_X2XY = ["theorem-a", "-i", X2_XY, "--mmax", "4", "--kmax", "12", "--nmax", "6"]
AMAO_X2XY = ["amao", "--inner", X2_XY, "--outer", OUTER_X, "--kmax", "12"]
OKOUNKOV_X2XY = ["okounkov-volume", "-i", X2_XY, "--beta", "2", "--nmax", "10"]
LEMMAS_X2XY = ["lemmas", "-i", X2_XY, "--seed", "5", "--nmax", "6", "--kmax", "3"]
LEMMAS_4D = ["lemmas", "-i", "x^2, x*y, y*z, z*w", "--nmax", "0", "--kmax", "4"]
# row 1 does not stabilize within kmax = 5, so the run exits 2
INCONCLUSIVE = ["theorem-a", "-i", "x^4, x*y^3, y^4", "--mmax", "3", "--kmax", "5"]
INCONCLUSIVE += ["--nmax", "2"]
# a semigroup given by levels has no exact volume, so its exact columns stay blank
LEVELS = ["semigroup", "-i", '{"dim": 1, "levels": {"1": [[0],[1]], "3": [[2]]}}']
LEVELS += ["--nmax", "4", "--beta", "2"]
SIMPLEX = ["semigroup", "-i", "simplex_semigroup.json", "--nmax", "12", "--beta", "1"]
# three and four variables; the theorem-a run reaches the grid product, the
# small pairwise product and the int64 row filter
X2Y_Y2Z_XZ2 = "x^2*y, y^2*z, x*z^2"
THEOREM_A_3D = ["theorem-a", "-i", X2Y_Y2Z_XZ2, "--mmax", "3", "--kmax", "9", "--nmax", "6"]

# (argv, golden file, exit code); every run starts in the golden directory
GOLDEN_RUNS = [
    (["epsilon", "-i", X2_XY, "--nmax", "8"], "epsilon_x2xy.csv", 0),
    (["epsilon", "-i", X2_XY, "--nmax", "8", *JSON], "epsilon_x2xy.json", 0),
    (AMAO_X2XY, "amao_x2xy_sat.csv", 0),
    (AMAO_X2XY + JSON, "amao_x2xy_sat.json", 0),
    (THEOREM_A_X2XY, "theorem_a_x2xy.csv", 0),
    (THEOREM_A_X2XY + JSON, "theorem_a_x2xy.json", 0),
    (INCONCLUSIVE, "theorem_a_inconclusive.csv", 2),
    (INCONCLUSIVE + JSON, "theorem_a_inconclusive.json", 2),
    (OKOUNKOV_X2XY, "okounkov_volume_x2xy.csv", 0),
    (OKOUNKOV_X2XY + JSON, "okounkov_volume_x2xy.json", 0),
    (SIMPLEX + JSON, "semigroup_simplex.json", 0),
    (LEVELS, "semigroup_levels.csv", 0),
    (LEVELS + JSON, "semigroup_levels.json", 0),
    (["lemmas", "--seed", "5", "--nmax", "6", "--kmax", "3"], "lemmas_seed5.csv", 0),
    (LEMMAS_X2XY, "lemmas_x2xy_seed5.csv", 0),
    (LEMMAS_X2XY + JSON, "lemmas_x2xy_seed5.json", 0),
    # four variables: from I^4 on, the searched chain is built by grid products
    (LEMMAS_4D, "lemmas_x2_xy_yz_zw.csv", 0),
    (LEMMAS_4D + JSON, "lemmas_x2_xy_yz_zw.json", 0),
    (["epsilon", "-i", X2Y_Y2Z_XZ2, "--nmax", "12"], "epsilon_x2y_y2z_xz2.csv", 0),
    (["epsilon", "-i", "x^2, x*y, y*z, z*w", "--nmax", "10"], "epsilon_x2_xy_yz_zw.csv", 0),
    # past brute force: the length kernel on grids of a few thousand cells
    (["epsilon", "-i", "x^2, x*y, y*z, z*w", "--nmax", "40"], "epsilon_x2_xy_yz_zw_n40.csv", 0),
    (["epsilon", "-i", "y*z^3, x*y^4*z^2, x^4*z^3", "--nmax", "40"], "epsilon_yz3_xy4z2_x4z3_n40.csv", 0),
    (THEOREM_A_3D, "theorem_a_x2y_y2z_xz2.csv", 0),
]


class TestGoldenReports:
    @pytest.mark.parametrize(
        "argv,filename,code", GOLDEN_RUNS, ids=[f for _, f, _ in GOLDEN_RUNS]
    )
    def test_report_matches_golden(self, argv, filename, code, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out == (GOLDEN / filename).read_text(encoding="utf-8")

    def test_semigroup_report_matches_golden(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        assert main(SIMPLEX) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "semigroup_simplex.csv").read_text(encoding="utf-8")

    def test_four_dimensional_semigroup_report_matches_golden(self, capsys, monkeypatch):
        # the unit 4-simplex in level 1: counts C(n + 4, 4), exact volume 1/24
        monkeypatch.chdir(GOLDEN)
        assert main(["semigroup", "-i", "simplex4_semigroup.json", "--nmax", "6"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "semigroup_simplex4.csv").read_text(encoding="utf-8")


# -- any command line ends in a documented exit code -------------------------

_VARIABLE = st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x3", "x4"])
_MONOMIAL = st.lists(st.tuples(_VARIABLE, st.integers(0, 2)), min_size=1, max_size=3).map(
    lambda factors: "*".join(f"{v}^{e}" for v, e in factors)
)
_SCALAR = st.one_of(st.integers(-1, 3), st.sampled_from([2**70, 1.5, True, None, "1"]))
_JSON = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
_LEVELS = st.dictionaries(st.sampled_from(["0", "1", "2", "01", "x"]), _JSON, max_size=2)
_IDEAL_TEXT = st.one_of(
    st.lists(_MONOMIAL, min_size=1, max_size=3).map(", ".join),
    st.builds(
        lambda dim, key, body: json.dumps({"dim": dim, key: body}),
        st.one_of(st.integers(-1, 4), _SCALAR),
        st.sampled_from(["generators", "levels"]),
        st.one_of(_JSON, _LEVELS),
    ),
    st.text(max_size=12),
)
_SMALL = st.integers(-1, 4)
_ARGVS = st.one_of(
    st.tuples(_IDEAL_TEXT, _SMALL).map(lambda a: ["epsilon", "-i", a[0], "--nmax", str(a[1])]),
    st.tuples(_IDEAL_TEXT, _IDEAL_TEXT, st.integers(-1, 8), _SMALL).map(
        lambda a: ["amao", "--inner", a[0], "--outer", a[1], "--kmax", str(a[2]), "--window", str(a[3])]
    ),
    st.tuples(_IDEAL_TEXT, _SMALL, st.integers(-1, 8), _SMALL).map(
        lambda a: ["theorem-a", "-i", a[0], "--mmax", str(a[1]), "--kmax", str(a[2]), "--nmax", str(a[3])]
    ),
    st.tuples(_IDEAL_TEXT, st.integers(-1, 8), _SMALL).map(
        lambda a: ["okounkov-volume", "-i", a[0], "--beta", str(a[1]), "--nmax", str(a[2])]
    ),
    st.tuples(_IDEAL_TEXT, _SMALL, st.one_of(st.none(), st.integers(-1, 8))).map(
        lambda a: ["semigroup", "-i", a[0], "--nmax", str(a[1])]
        + ([] if a[2] is None else ["--beta", str(a[2])])
    ),
    st.tuples(st.one_of(st.none(), _IDEAL_TEXT), _SMALL, st.integers(-1, 8), st.integers(0, 3)).map(
        lambda a: ["lemmas", "--nmax", str(a[1]), "--kmax", str(a[2]), "--seed", str(a[3])]
        + ([] if a[0] is None else ["-i", a[0]])
    ),
    st.lists(st.text(max_size=8), max_size=4),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ARGVS)
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
