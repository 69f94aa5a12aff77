import hashlib
import json
import logging
import re

import pytest

import rcadjoint.adjoint as adjoint_module
import rcadjoint.forms as forms_module
from rcadjoint.cli import main


def run(args):
    return main(args)


def forbid_expansion(monkeypatch):
    """Fail the test if any catalog form is built above precision 1."""
    for name, build in list(forms_module._CATALOG.items()):
        def spy(precision, name=name, build=build):
            if precision > 1:
                raise AssertionError(f"{name} expanded to {precision} terms")
            return build(precision)

        monkeypatch.setitem(forms_module._CATALOG, name, spy)


class TestExpand:
    def test_theta_json(self, capsys):
        assert run(["expand", "--form", "theta", "--precision", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["precision"] == 10
        assert data["coeffs"][:5] == ["1/1", "2/1", "0/1", "0/1", "2/1"]
        assert data["twice_weight"] == 1

    def test_output_file(self, tmp_path):
        out = tmp_path / "theta.json"
        assert run(
            ["expand", "--form", "theta", "--precision", "6", "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["precision"] == 6

    def test_unknown_form(self, capsys):
        assert run(["expand", "--form", "nosuch", "--precision", "5"]) == 2
        assert "unknown form" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "form, precision, digest",
        [
            ("delta_4_6", "20011",
             "2b557cb1c2b2ec8fc27d5a631940d8af5f8d73e017219d0167baa338eb48c368"),
            ("delta", "8000",
             "27c4e4aa4b8dc312e16385668c6ae7ee20d719fb8b0748f2035367f2b16c88d1"),
        ],
    )
    def test_eta_products_byte_identical(self, form, precision, digest, capsys):
        # Digests of the expansions built by Miller's recurrence alone:
        # building eta powers through Jacobi's identity changes no byte.
        assert run(["expand", "--form", form, "--precision", precision]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBracket:
    def test_product_case(self, capsys):
        code = run(
            ["bracket", "--f", "theta", "--g", "theta", "--nu", "0",
             "--precision", "6"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coeffs"][:6] == ["1/1", "4/1", "4/1", "0/1", "4/1", "8/1"]
        assert data["twice_weight"] == 2

    def test_negative_nu_is_usage_error(self):
        assert run(
            ["bracket", "--f", "theta", "--g", "theta", "--nu", "-1",
             "--precision", "6"]
        ) == 2

    def test_series_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert run(
            ["expand", "--form", "theta", "--precision", "8", "--output", str(path)]
        ) == 0
        code = run(
            ["bracket", "--f", str(path), "--g", "theta", "--nu", "0",
             "--precision", "8"]
        )
        assert code == 0
        from_file = json.loads(capsys.readouterr().out)
        assert run(
            ["bracket", "--f", "theta", "--g", "theta", "--nu", "0",
             "--precision", "8"]
        ) == 0
        from_name = json.loads(capsys.readouterr().out)
        assert from_file == from_name


class TestAdjoint:
    def test_csv_output(self, capsys):
        code = run(
            ["adjoint", "--case", "2", "--f-product", "theta", "delta_4_6",
             "--g", "theta", "--nu", "0", "--n-max", "3", "--terms", "400"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,c_n,err_bound"
        assert len(lines) == 4

    def test_negative_nu_rejected(self):
        assert run(
            ["adjoint", "--case", "1", "--f", "delta", "--g", "theta",
             "--nu", "-1", "--n-max", "2", "--terms", "10"]
        ) == 2

    def test_undersized_series_file(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        run(["expand", "--form", "delta_4_6", "--precision", "10",
             "--output", str(path)])
        code = run(
            ["adjoint", "--case", "2", "--f", str(path), "--g", "theta",
             "--nu", "0", "--n-max", "3", "--terms", "400"]
        )
        assert code == 2
        assert "precision" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        args = ["adjoint", "--case", "integral", "--f-product", "E4", "delta",
                "--g", "E4", "--nu", "0", "--n-max", "2", "--terms", "300"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_ratio_sec5_passes(self, capsys):
        code = run(
            ["verify", "ratio", "--case", "2", "--f-product", "theta",
             "delta_4_6", "--g", "theta", "--nu", "0", "--n-max", "6",
             "--terms", "2000"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pass"] is True
        assert out["lambda"] > 0

    def test_ratio_failure_exit_code(self, capsys):
        # wrong basis: theta's coefficients are not proportional to c(n)
        code = run(
            ["verify", "ratio", "--case", "integral", "--f-product", "E4",
             "delta", "--g", "E4", "--nu", "0", "--n-max", "6",
             "--terms", "500", "--basis", "E4", "--tolerance", "1e-6"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_lambda_subcommand(self, capsys):
        code = run(
            ["verify", "lambda", "--case", "2", "--basis", "delta_4_6",
             "--g", "theta", "--nu", "0", "--n-max", "1", "--terms", "1500"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lambda"] > 0

    def test_ratio_checks_rows_where_the_basis_vanishes(self, tmp_path, capsys):
        # A basis with a(1) = 1 and no other nonzero coefficient: c(3) and
        # c(5) of theta * Delta_{4,6} (about -8.14 and 36.6) are not zero.
        path = tmp_path / "q.json"
        path.write_text(json.dumps({
            "twice_weight": 12, "level": 4, "character": "trivial",
            "coeffs": ["0/1", "1/1"] + ["0/1"] * 2100,
        }))
        code = run(["verify", "ratio", "--f-product", "theta", "delta_4_6",
                    "--g", "theta", "--basis", str(path), "--n-max", "10",
                    "--terms", "2000"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict["pass"] is False
        assert verdict["spread"] == 0.0

    def test_missing_subcommand_is_usage_error(self):
        assert run(["verify"]) == 2


def _series_file(content):
    def make(tmp_path):
        path = tmp_path / "series.json"
        path.write_text(content)
        return ["bracket", "--f", str(path), "--g", "theta", "--nu", "0",
                "--precision", "3"]
    return make


_THETA_META = '{"twice_weight": 1, "level": 4, "character": "trivial", '


def _big_coefficient(tmp_path):
    # 401 digits: a Python int, but out of float range for the tail fit.
    path = tmp_path / "big.json"
    coeffs = ["0/1", "1" + "0" * 400 + "/1"] + ["0/1"] * 51
    path.write_text(json.dumps({"twice_weight": 13, "level": 4,
                                "character": "trivial", "coeffs": coeffs}))
    return ["adjoint", "--f", str(path), "--g", "theta", "--n-max", "2",
            "--terms", "50"]


def _basis_coefficient(text):
    # A basis coefficient that float() overflows, or rounds to 0.0.
    def make_argv(tmp_path):
        path = tmp_path / "basis.json"
        coeffs = ["0/1", text, "0/1", "0/1"]
        path.write_text(json.dumps({"twice_weight": 24, "level": 4,
                                    "character": "trivial", "coeffs": coeffs}))
        return ["verify", "ratio", "--f-product", "theta", "delta_4_6",
                "--g", "theta", "--basis", str(path), "--n-max", "3",
                "--terms", "200"]

    return make_argv


def _f_coefficient(text):
    # verify lambda's f with an a(1) that float() overflows, or rounds to 0.0.
    def make_argv(tmp_path):
        path = tmp_path / "f.json"
        coeffs = ["0/1", text] + ["0/1"] * 60
        path.write_text(json.dumps({"twice_weight": 24, "level": 1,
                                    "character": "trivial", "coeffs": coeffs}))
        return ["verify", "lambda", "--basis", str(path), "--g", "E4",
                "--n-max", "1", "--terms", "50"]

    return make_argv


def _epsilon(value):
    return lambda tmp_path: [
        "adjoint", "--case", "2", "--f-product", "theta", "delta_4_6",
        "--g", "theta", "--n-max", "1", "--terms", "50", "--epsilon", value,
    ]


def _tolerance(value):
    return lambda tmp_path: [
        "verify", "ratio", "--case", "2", "--f-product", "theta", "delta_4_6",
        "--g", "theta", "--n-max", "2", "--terms", "50", "--tolerance", value,
    ]


@pytest.mark.parametrize(
    "make_argv",
    [
        _series_file("[1, 2, 3]"),
        _series_file('{"precision": 3}'),
        _series_file('{"coeffs": ["1/0", "0/1", "0/1"]}'),
        _series_file('{"twice_weight": 1, "coeffs": ["1/1", "2/1", "0/1"]}'),
        _series_file('{"twice_weight": 1, "level": 4, "character": "trivial", '
                     '"coeffs": []}'),
        # With valid metadata, so only the coefficient type is wrong.
        _series_file(_THETA_META + '"coeffs": [Infinity, "0/1", "0/1"]}'),
        _series_file(_THETA_META + '"coeffs": [true, false, "0/1"]}'),
        _series_file(_THETA_META + '"coeffs": [0.1, "0/1", "0/1"]}'),
        # Strings that Fraction() reads but to_json_dict never writes.
        _series_file(_THETA_META + '"coeffs": ["1e5", "0/1", "0/1"]}'),
        _series_file(_THETA_META + '"coeffs": ["1.5", "0/1", "0/1"]}'),
        # Metadata that int() would have read as weight 12 and level 1.
        _series_file('{"twice_weight": 24.9, "level": 1, "character": "trivial", '
                     '"coeffs": ["0/1", "1/1", "0/1"]}'),
        _series_file('{"twice_weight": 24, "level": true, "character": "trivial", '
                     '"coeffs": ["0/1", "1/1", "0/1"]}'),
        # Deeper than any interpreter's recursion limit for the JSON decoder.
        _series_file("[" * 200000 + "]" * 200000),
        lambda tmp_path: ["bracket", "--f", str(tmp_path), "--g", "theta",
                          "--nu", "0", "--precision", "3"],
        lambda tmp_path: ["expand", "--form", "theta", "--precision", "3",
                          "--output", str(tmp_path / "missing" / "t.json")],
        _epsilon("nan"),
        _epsilon("inf"),
        _epsilon("0"),
        _epsilon("-0.1"),
        _tolerance("nan"),
        _tolerance("inf"),
        _tolerance("-1"),
        _big_coefficient,
        _basis_coefficient("1" + "0" * 400),
        _basis_coefficient("1/1" + "0" * 400),
        _f_coefficient("1" + "0" * 400),
        _f_coefficient("1/1" + "0" * 400),
    ],
    ids=["json-list", "no-coeffs", "zero-denominator", "no-level", "empty",
         "infinity", "booleans", "float", "exponent-string", "decimal-string",
         "twice-weight-float", "level-bool",
         "deeply-nested", "directory", "output-dir-missing", "epsilon-nan",
         "epsilon-inf", "epsilon-zero", "epsilon-negative", "tolerance-nan",
         "tolerance-inf", "tolerance-negative", "coefficient-out-of-float-range",
         "basis-coefficient-overflow", "basis-coefficient-underflow",
         "f-coefficient-overflow", "f-coefficient-underflow"],
)
def test_malformed_input_is_usage_error(make_argv, tmp_path, capsys):
    code = run(make_argv(tmp_path))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    # Our own errors start the line; argparse prefixes the program name.
    assert re.search(r"^(rcadjoint[\w ]*: )?error: ", err, re.M)
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1" + "0" * 400, "1/1" + "0" * 400])
def test_f_coefficient_out_of_float_range_stops_before_the_bracket(
    text, tmp_path, monkeypatch, capsys
):
    def no_sum(*args, **kwargs):
        raise AssertionError("L-series sum started")

    monkeypatch.setattr(adjoint_module, "_l_series_sums", no_sum)
    assert run(_f_coefficient(text)(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: f coefficient 1 is out of float range\n"


@pytest.mark.parametrize(
    "argv, hypothesis_lines, code",
    [
        (["adjoint", "--case", "integral", "--f", "delta", "--g", "E4",
          "--nu", "2", "--n-max", "3", "--terms", "300"], 1, 0),
        # An uncertified tail gives an infinite error budget: the ratio fails.
        (["verify", "ratio", "--case", "2", "--f-product", "theta",
          "delta_4_6", "--g", "theta", "--n-max", "3", "--terms", "400",
          "--epsilon", "2"], 0, 1),
        # The same infinite budget fails the lambda verdict.
        (["verify", "lambda", "--case", "integral", "--basis", "E4",
          "--g", "E6", "--nu", "1", "--n-max", "1", "--terms", "300",
          "--epsilon", "3"], 1, 1),
    ],
    ids=["argv0-1", "argv1-0", "argv2-1"],
)
def test_each_hypothesis_warning_printed_once(argv, hypothesis_lines, code, capsys):
    # Every run below has an uncertified tail for each n; one line says so.
    assert run(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: ") for line in lines)
    tail = [line for line in lines if "tail exponent" in line]
    assert len(tail) == 1
    assert len(lines) - 1 == hypothesis_lines


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_infinite_error_budget_fails_the_ratio(tmp_path, capsys):
    # Delta * E4^3 against g = E4^3: the non-cusp g leaves the tail
    # uncertified (an infinite budget), and the spread is about 6.7; the
    # budget must not excuse it.
    e8, e12, de12 = (str(tmp_path / n) for n in ("e8.json", "e12.json", "de12.json"))
    for argv in (
        ["bracket", "--f", "E4", "--g", "E4", "--nu", "0", "--output", e8],
        ["bracket", "--f", e8, "--g", "E4", "--nu", "0", "--output", e12],
        ["bracket", "--f", "delta", "--g", e12, "--nu", "0", "--output", de12],
    ):
        assert run(argv + ["--precision", "700"]) == 0
    code = run(["verify", "ratio", "--f", de12, "--g", e12, "--basis", "delta",
                "--n-max", "10", "--terms", "600"])
    verdict = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert verdict["pass"] is False
    assert verdict["error_budget"] is None
    assert verdict["spread"] > 1


def test_debug_route_log_leaves_output_unchanged(capsys, caplog):
    argv = ["bracket", "--f", "E4", "--g", "E6", "--nu", "1", "--precision", "100"]
    assert run(argv) == 0
    quiet = capsys.readouterr()
    with caplog.at_level(logging.DEBUG, logger="rcadjoint.kernels"):
        assert run(argv) == 0
    assert capsys.readouterr() == quiet
    assert any("route=fft" in r.getMessage() for r in caplog.records)


_SEC5_ADJOINT = ["adjoint", "--f-product", "theta", "delta_4_6", "--g", "theta",
                 "--n-max", "2", "--terms", "50"]


@pytest.mark.parametrize("digits", ["14", "abc", "100000000"])
def test_precision_digits_out_of_range_is_usage_error(digits, monkeypatch, capsys):
    monkeypatch.setenv("RC_ADJOINT_PRECISION_DIGITS", digits)
    assert run(_SEC5_ADJOINT) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: RC_ADJOINT_PRECISION_DIGITS ")
    assert "15 to 10000" in err


def test_target_weight_at_most_one_stops_before_the_sum(monkeypatch, capsys):
    def no_sum(*args, **kwargs):
        raise AssertionError("L-series sum started")

    monkeypatch.setattr(adjoint_module, "_l_series_sums", no_sum)
    forbid_expansion(monkeypatch)
    # 13/2 - 4 - 2 = 1/2: beta would need Gamma(-1/2).
    code = run(["adjoint", "--case", "3", "--f-product", "theta", "delta_4_6",
                "--g", "E4", "--nu", "1", "--terms", "2000"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (
        "error: target weight 1/2 must exceed 1: "
        "beta needs Gamma(k-1) at a positive argument\n"
    )


@pytest.mark.parametrize(
    "case, argv",
    [
        ("2", _SEC5_ADJOINT),
        ("1", ["adjoint", "--f", "delta_4_6", "--g", "theta", "--nu", "1",
               "--n-max", "2", "--terms", "50"]),
        ("3", ["adjoint", "--f-product", "theta", "delta_4_6", "--g", "E4",
               "--n-max", "2", "--terms", "50", "--format", "json"]),
        ("integral", ["verify", "lambda", "--basis", "delta", "--g", "E4",
                      "--nu", "1", "--n-max", "1", "--terms", "300"]),
    ],
)
def test_case_flag_is_optional_and_checked(case, argv, monkeypatch, capsys):
    # The weights fix the case: --case may be left out, and must match if given.
    assert run(argv) == 0
    without = capsys.readouterr().out
    assert run(argv + ["--case", case]) == 0
    assert capsys.readouterr().out == without
    # A mismatch is found from the weights alone, before any expansion.
    forbid_expansion(monkeypatch)
    for other in ["integral", "1", "2", "3"]:
        if other != case:
            assert run(argv + ["--case", other]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: --case {other} does not match")
