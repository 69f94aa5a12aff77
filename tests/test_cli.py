import hashlib
import json
import logging
import os
import re
import subprocess
import sys

import pytest

import rcadjoint
import rcadjoint.adjoint as adjoint_module
import rcadjoint.forms as forms_module
from rcadjoint.cli import _positive_int, main


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

    @pytest.mark.parametrize(
        "f, g, nu, precision, digest",
        [
            ("E4", "E6", "3", "8000",
             "4110167a88e4749892c9d858469a169fe301dc70f41c024768edbd6830b38403"),
            ("delta", "E4", "2", "2511",
             "f44a2a50c4aca5ab59faa57956735459248618540954cb249a411f8fedef27ed"),
            ("theta", "delta_4_6", "2", "4000",
             "07ba07a4f299d097de17422929ad84ff3190299915a4a1dcf2691bff36238be1"),
            # Slice-adds: the four products of theta with itself, in one call.
            ("theta", "theta", "3", "4000",
             "d47d8969d445da02cc13c976623c711c180e531691a267254be8cfd8d3f51596"),
            # 13 pairs on the FFT route, the largest |w_r| of 75 bits.
            ("delta", "delta", "12", "1500",
             "806643d540dfc6cea9c8d15390b66289a47841bc19509cacc6f1a0f00670f7b5"),
        ],
    )
    def test_brackets_byte_identical(self, f, g, nu, precision, digest, capsys):
        # Digests of the brackets summed term by term, each product its own
        # convolution and series_add over Fractions: summing the nu + 1
        # products in one convolve_sum call changes no byte.
        argv = ["bracket", "--f", f, "--g", g, "--nu", nu, "--precision", precision]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_ratio_failure_exit_code(self, tmp_path, capsys):
        # A wrong basis of the right weight 12: c(n) is proportional to
        # Delta's coefficients, not to E4^3's.
        e8, e12 = str(tmp_path / "e8.json"), str(tmp_path / "e12.json")
        for argv in (
            ["bracket", "--f", "E4", "--g", "E4", "--nu", "0", "--output", e8],
            ["bracket", "--f", e8, "--g", "E4", "--nu", "0", "--output", e12],
        ):
            assert run(argv + ["--precision", "7"]) == 0
        code = run(
            ["verify", "ratio", "--case", "integral", "--f-product", "E4",
             "delta", "--g", "E4", "--nu", "0", "--n-max", "6",
             "--terms", "500", "--basis", e12, "--tolerance", "1e-6"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_ratio_basis_of_the_wrong_weight_is_usage_error(
        self, monkeypatch, capsys
    ):
        # Delta against E4 has target weight 8; E4 has weight 4.  Refused
        # from the weights alone, before any form is expanded.
        forbid_expansion(monkeypatch)
        code = run(["verify", "ratio", "--f", "delta", "--g", "E4", "--nu", "0",
                    "--basis", "E4", "--terms", "50"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: basis E4 has weight 4, but the target weight is 8\n"
        )

    def test_lambda_subcommand(self, capsys):
        code = run(
            ["verify", "lambda", "--case", "2", "--basis", "delta_4_6",
             "--g", "theta", "--nu", "0", "--terms", "1500"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lambda"] > 0

    def test_lambda_sizes_the_forms_from_the_basis(self, tmp_path, capsys):
        # A basis whose first nonzero coefficient is a(3): the rows run to
        # n = 3, so the forms need 3 + terms + 1 coefficients.
        def basis(precision):
            path = tmp_path / f"q3_{precision}.json"
            path.write_text(json.dumps({
                "twice_weight": 12, "level": 4, "character": "trivial",
                "coeffs": ["0/1"] * 3 + ["1/1"] + ["0/1"] * (precision - 4),
            }))
            return ["verify", "lambda", "--basis", str(path), "--g", "theta",
                    "--terms", "200"]

        assert run(basis(400)) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["lambda"] == 0.6614071335868891
        assert err == ""
        assert run(basis(203)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("has precision 203; this run needs at least 204\n")
        # The rows follow from the basis: verify lambda takes no --n-max.
        assert run(basis(400) + ["--n-max", "3"]) == 2
        assert "unrecognized arguments: --n-max 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m0, message",
        [
            (None, "f is the zero series"),
            # m0 + terms + 1 = 501: the size the run needs, not a probe size.
            (300, "series file q.json has precision 400; "
                  "this run needs at least 501"),
        ],
        ids=["zero", "m0-past-the-probe"],
    )
    def test_lambda_basis_known_only_from_its_file(
        self, m0, message, tmp_path, monkeypatch, capsys
    ):
        # A basis file zero through index terms + 1: m0 is read off the
        # whole file, so all-zero is the zero series.
        coeffs = ["0/1"] * 400
        if m0 is not None:
            coeffs[m0] = "1/1"
        (tmp_path / "q.json").write_text(json.dumps({
            "twice_weight": 12, "level": 4, "character": "trivial",
            "coeffs": coeffs,
        }))
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "lambda", "--basis", "q.json", "--g", "theta",
                    "--terms", "200"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_lambda_reads_each_series_file_once(self, tmp_path, monkeypatch, capsys):
        # The basis has m0 = 3, so both forms grow past the first size.
        basis, theta = tmp_path / "q3.json", tmp_path / "theta.json"
        basis.write_text(json.dumps({
            "twice_weight": 12, "level": 4, "character": "trivial",
            "coeffs": ["0/1"] * 3 + ["1/1"] + ["0/1"] * 396,
        }))
        theta_series = forms_module.catalog_get("theta", 400)
        theta.write_text(json.dumps(theta_series.to_json_dict()))
        loads = []
        real_load = json.load

        def counting_load(fh, *args, **kwargs):
            loads.append(fh.name)
            return real_load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        assert run(["verify", "lambda", "--basis", str(basis), "--g", str(theta),
                    "--terms", "200"]) == 1
        assert json.loads(capsys.readouterr().out)["lambda"] == 0.6614071335868891
        assert loads == [str(basis), str(theta)]

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
        path.write_text(json.dumps({"twice_weight": 12, "level": 4,
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
                "--terms", "50"]

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


def _bare_file(tmp_path):
    # A series file with coefficients and no metadata.
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"coeffs": ["0/1", "1/1"] + ["0/1"] * 60}))
    return str(path)


_BAD_COEFF = "expected a string 'p/q' or an integer"
_EPSILON = "argument --epsilon: must be positive and finite"
_TOLERANCE = "argument --tolerance: must be nonnegative and finite"


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_series_file("[1, 2, 3]"),
         "a series must be a JSON object with a 'coeffs' list"),
        (_series_file('{"precision": 3}'),
         "a series must be a JSON object with a 'coeffs' list"),
        (_series_file('{"coeffs": ["1/0", "0/1", "0/1"]}'),
         "bad coefficient '1/0': zero denominator"),
        (_series_file('{"twice_weight": 1, "coeffs": ["1/1", "2/1", "0/1"]}'),
         "bad form metadata: level must be an integer, got None"),
        (_series_file('{"twice_weight": 1, "level": 4, "character": "trivial", '
                      '"coeffs": []}'),
         "a series must know at least one coefficient"),
        # With valid metadata, so only the coefficient type is wrong.
        (_series_file(_THETA_META + '"coeffs": [Infinity, "0/1", "0/1"]}'),
         "bad coefficient inf: " + _BAD_COEFF),
        (_series_file(_THETA_META + '"coeffs": [true, false, "0/1"]}'),
         "bad coefficient True: " + _BAD_COEFF),
        (_series_file(_THETA_META + '"coeffs": [0.1, "0/1", "0/1"]}'),
         "bad coefficient 0.1: " + _BAD_COEFF),
        # Strings that Fraction() reads but to_json_dict never writes.
        (_series_file(_THETA_META + '"coeffs": ["1e5", "0/1", "0/1"]}'),
         "bad coefficient '1e5': " + _BAD_COEFF),
        (_series_file(_THETA_META + '"coeffs": ["1.5", "0/1", "0/1"]}'),
         "bad coefficient '1.5': " + _BAD_COEFF),
        # Metadata that int() would have read as weight 12 and level 1.
        (_series_file('{"twice_weight": 24.9, "level": 1, "character": "trivial", '
                      '"coeffs": ["0/1", "1/1", "0/1"]}'),
         "bad form metadata: twice_weight must be an integer, got 24.9"),
        (_series_file('{"twice_weight": 24, "level": true, "character": "trivial", '
                      '"coeffs": ["0/1", "1/1", "0/1"]}'),
         "bad form metadata: level must be an integer, got True"),
        (_series_file(_THETA_META + '"precision": 4, "coeffs": ["1/1", "0/1", "0/1"]}'),
         "precision field disagrees with coefficient count"),
        (_series_file('{"twice_weight": 12, "level": 0, "character": "trivial", '
                      '"coeffs": ["0/1", "1/1", "0/1"]}'),
         "level must be positive"),
        (_series_file('{"twice_weight": 12, "level": 4, '
                      '"coeffs": ["0/1", "1/1", "0/1"]}'),
         "bad form metadata: KeyError('character')"),
        # Deeper than any interpreter's recursion limit for the JSON decoder.
        (_series_file("[" * 200000 + "]" * 200000), "is nested too deeply"),
        (lambda tmp_path: ["bracket", "--f", str(tmp_path), "--g", "theta",
                           "--nu", "0", "--precision", "3"],
         "cannot read series file"),
        (lambda tmp_path: ["expand", "--form", "theta", "--precision", "3",
                           "--output", str(tmp_path / "missing" / "t.json")],
         "cannot write"),
        (lambda tmp_path: ["bracket", "--f", _bare_file(tmp_path), "--g", "theta",
                           "--nu", "0", "--precision", "3"],
         "bracket needs weight metadata on both forms"),
        (lambda tmp_path: ["adjoint", "--f", _bare_file(tmp_path), "--g", "theta",
                           "--n-max", "2", "--terms", "50"],
         "adjoint needs weight metadata on both forms"),
        (lambda tmp_path: ["verify", "ratio", "--f", _bare_file(tmp_path),
                           "--g", "theta", "--n-max", "2", "--terms", "50"],
         "verify ratio needs --basis (or --f-product)"),
        (lambda tmp_path: ["verify", "lambda", "--g", "E4", "--terms", "5"],
         "verify lambda needs --basis"),
        (lambda tmp_path: ["adjoint", "--f-product", "theta", "delta_4_6",
                           "--g", "theta", "--n-max", "0"],
         "argument --n-max: must be positive"),
        (_epsilon("nan"), _EPSILON),
        (_epsilon("inf"), _EPSILON),
        (_epsilon("0"), _EPSILON),
        (_epsilon("-0.1"), _EPSILON),
        (_tolerance("nan"), _TOLERANCE),
        (_tolerance("inf"), _TOLERANCE),
        (_tolerance("-1"), _TOLERANCE),
        (_big_coefficient,
         "coefficient 1 is out of float range for the tail profile"),
        (_basis_coefficient("1" + "0" * 400),
         "basis coefficient 1 is out of float range"),
        (_basis_coefficient("1/1" + "0" * 400),
         "basis coefficient 1 is out of float range"),
        (_f_coefficient("1" + "0" * 400), "f coefficient 1 is out of float range"),
        (_f_coefficient("1/1" + "0" * 400), "f coefficient 1 is out of float range"),
    ],
    ids=["json-list", "no-coeffs", "zero-denominator", "no-level", "empty",
         "infinity", "booleans", "float", "exponent-string", "decimal-string",
         "twice-weight-float", "level-bool", "precision-mismatch", "level-zero",
         "no-character", "deeply-nested", "directory", "output-dir-missing",
         "bracket-no-metadata", "adjoint-no-metadata", "ratio-no-basis",
         "lambda-no-basis", "n-max-zero", "epsilon-nan",
         "epsilon-inf", "epsilon-zero", "epsilon-negative", "tolerance-nan",
         "tolerance-inf", "tolerance-negative", "coefficient-out-of-float-range",
         "basis-coefficient-overflow", "basis-coefficient-underflow",
         "f-coefficient-overflow", "f-coefficient-underflow"],
)
def test_malformed_input_is_usage_error(make_argv, message, tmp_path, capsys):
    code = run(make_argv(tmp_path))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    # Our own errors start the line; argparse prefixes the program name.
    assert re.search(r"^(rcadjoint[\w ]*: )?error: ", err, re.M)
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["expand", "--form", "theta", "--precision", "99999999999999999999"],
         "--precision"),
        (["verify", "ratio", "--f-product", "theta", "delta_4_6", "--g", "theta",
          "--terms", "99999999999999999999"], "--terms"),
        (["adjoint", "--f-product", "theta", "delta_4_6", "--g", "theta",
          "--n-max", str(sys.maxsize + 1)], "--n-max"),
    ],
    ids=["precision", "terms", "n-max"],
)
def test_size_beyond_an_index_is_usage_error(argv, flag, capsys):
    # argparse refuses the value and names the flag and the limit.
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {flag}: must be at most {sys.maxsize}\n" in err
    assert "Traceback" not in err
    # sys.maxsize itself is accepted by the flag's parser.
    assert _positive_int(str(sys.maxsize)) == sys.maxsize


_HUGE = str(10**15)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["expand", "--form", "theta", "--precision", _HUGE], "--precision"),
        (["bracket", "--f", "E4", "--g", "E6", "--nu", "1", "--precision", _HUGE],
         "--precision"),
        (["verify", "lambda", "--basis", "delta", "--g", "E4", "--terms", _HUGE],
         "--terms"),
        (["adjoint", "--f-product", "theta", "delta_4_6", "--g", "theta",
          "--n-max", _HUGE, "--terms", "20"], "--n-max"),
    ],
    ids=["expand", "bracket", "verify-lambda", "adjoint"],
)
def test_size_beyond_memory_is_usage_error(argv, flag, capsys):
    # 10^15 coefficients ask for petabytes (numpy's refusal included),
    # more than a 64-bit address space holds, so the allocation is refused
    # before any memory is used; the message names the flag.
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} {_HUGE} is too large: out of memory\n"
    )


@pytest.mark.parametrize("precision", ["true", "2.0"])
def test_precision_must_be_an_integer(precision, tmp_path, capsys):
    # true == 1 and 2.0 == 2 would match the coefficient counts.
    coeffs = '["1/1"]' if precision == "true" else '["1/1", "2/1"]'
    path = tmp_path / "series.json"
    path.write_text(f'{{"precision": {precision}, "coeffs": {coeffs}}}')
    assert run(["expand", "--form", str(path), "--precision", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    shown = "True" if precision == "true" else "2.0"
    assert err == f"error: bad precision: must be an integer, got {shown}\n"


def test_coefficients_past_the_int_string_limit(tmp_path, capsys):
    # 4001-digit coefficients multiply to 8001 digits, past CPython's
    # default int <-> str limit of 4300 digits; the limit is lifted for
    # the call and restored after it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 10**4000 + 7
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"twice_weight": 12, "level": 4,
                                "character": "trivial",
                                "coeffs": ["0/1", f"{big}/1", "-3/1"]}))
    out = tmp_path / "product.json"
    assert run(["bracket", "--f", str(path), "--g", str(path), "--nu", "0",
                "--precision", "3", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # Read back through the CLI: expand prints the product's coefficients.
    assert run(["expand", "--form", str(out), "--precision", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"][:2] == ["0/1", "0/1"]
    top = data["coeffs"][2]
    assert len(top) == len("/1") + 8001
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        set_digits(0)
    try:
        assert top == f"{big * big}/1"
    finally:
        if set_digits is not None:
            set_digits(limit)


def test_zero_denominator_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coeffs": ["0/1", "1/0", "3"]}))
    assert run(["expand", "--form", str(path), "--precision", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad coefficient '1/0': zero denominator\n"


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


@pytest.mark.parametrize("command", [["adjoint"], ["verify", "ratio"]])
@pytest.mark.parametrize(
    "f_flags, message",
    [
        (["--f", "delta", "--f-product", "theta", "delta_4_6"],
         "argument --f-product: not allowed with argument --f"),
        ([], "one of the arguments --f --f-product is required"),
    ],
    ids=["both", "neither"],
)
def test_f_and_f_product_are_one_required_choice(command, f_flags, message, capsys):
    # Given both, --f used to be dropped for the product's numbers.
    basis = ["--basis", "delta_4_6"] if command[0] == "verify" else []
    argv = [*command, *f_flags, "--g", "theta", *basis, "--n-max", "3",
            "--terms", "400"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}\n" in err


@pytest.mark.parametrize(
    "epsilon, exponent, n", [("1e300", "1e+300", 2), ("700", "705.75", 3)]
)
def test_tail_power_out_of_float_range_names_the_exponent(
    epsilon, exponent, n, capsys
):
    # Delta's exponent is 11/2 + 1/4 + epsilon, and n^exponent overflows
    # while every coefficient is small: the message names both.
    assert run(["adjoint", "--f", "delta", "--g", "E4", "--epsilon", epsilon,
                "--n-max", "3", "--terms", "200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: n^{exponent} is out of float range at n = {n} for the tail "
        "profile\n"
    )


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
          "--g", "E6", "--nu", "1", "--terms", "300", "--epsilon", "3"], 1, 1),
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


def test_tail_bound_beyond_float_range_is_infinite(tmp_path, monkeypatch, capsys):
    # Weight 316 against E4 at nu = 150: the bracket coefficients' absolute
    # sum in the tail bound is beyond float range.  The bound is inf, the
    # row prints it, and the ratio fails on that infinite budget.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps({
        "twice_weight": 632, "level": 1, "character": "trivial",
        "coeffs": ["0/1", "1/1"] + ["0/1"] * 40,
    }))
    common = ["--f", "q.json", "--g", "E4", "--nu", "150", "--n-max", "1",
              "--terms", "20"]
    assert run(["adjoint", *common]) == 0
    assert capsys.readouterr() == ("n,c_n,err_bound\n1,inf,inf\n", "")
    assert run(["verify", "ratio", *common, "--basis", "delta"]) == 1
    verdict = _strict_json(capsys.readouterr().out)
    assert verdict["pass"] is False
    assert verdict["error_budget"] is None


def test_debug_route_log_leaves_output_unchanged(capsys, caplog):
    argv = ["bracket", "--f", "E4", "--g", "E6", "--nu", "1", "--precision", "100"]
    assert run(argv) == 0
    quiet = capsys.readouterr()
    with caplog.at_level(logging.DEBUG, logger="rcadjoint.kernels"):
        assert run(argv) == 0
    assert capsys.readouterr() == quiet
    assert any("route=fft" in r.getMessage() for r in caplog.records)
    # The nu = 1 bracket is one sum of its two products.
    assert any("pairs=2" in r.getMessage() for r in caplog.records)


def test_l_sum_debug_line_at_the_dense_nu2_shape(tmp_path, monkeypatch, capsys, caplog):
    # dense_nu2's verify call: one limb product of 10 rows against the
    # 2501 dense terms of E4 and its three g-side operands m^2 b, m b and b,
    # in one block whose float64 partial sums stay below 2^44.  DEBUG on
    # leaves stdout as it was.
    monkeypatch.chdir(tmp_path)
    assert run(["bracket", "--f", "delta", "--g", "E4", "--nu", "2",
                "--precision", "2511", "--output", "h.json"]) == 0
    argv = ["verify", "ratio", "--f", "h.json", "--g", "E4", "--case", "integral",
            "--nu", "2", "--basis", "delta", "--n-max", "10", "--terms", "2500"]
    capsys.readouterr()
    assert run(argv) == 0
    quiet = capsys.readouterr()
    with caplog.at_level(logging.DEBUG, logger="rcadjoint.kernels"):
        assert run(argv) == 0
    assert capsys.readouterr() == quiet
    lines = [r.getMessage() for r in caplog.records]
    assert [line for line in lines if line.startswith("correlate_sum ")] == [
        "correlate_sum rows=10 terms=2501 limbs=26,5+4+3 blocks=1 "
        "bound_bits=44 limit_bits=53"
    ]


def test_fft_debug_line_at_the_bracket_nu3_shape(tmp_path, monkeypatch, capsys, caplog):
    # bracket_nu3's one sum of four pairs: the route's certificate on
    # unsigned bytes, 48 times below its limit, and the widest balanced
    # limbs whose own bound stays below it, 12 bits.  DEBUG on leaves the
    # output file as it was.
    monkeypatch.chdir(tmp_path)
    argv = ["bracket", "--f", "E4", "--g", "E6", "--nu", "3", "--precision", "8000"]
    assert run([*argv, "--output", "quiet.json"]) == 0
    with caplog.at_level(logging.DEBUG, logger="rcadjoint.kernels"):
        assert run([*argv, "--output", "debug.json"]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "debug.json").read_bytes() == (tmp_path / "quiet.json").read_bytes()
    assert [r.getMessage() for r in caplog.records if r.name == "rcadjoint.kernels"] == [
        "convolve_sum route=fft pairs=4 prec=8000 bound=0.005212604746830702 "
        "limit=0.25 limb_bits=12 limb_bound=0.12310888706576302"
    ]


_SEC5_ADJOINT = ["adjoint", "--f-product", "theta", "delta_4_6", "--g", "theta",
                 "--n-max", "2", "--terms", "50"]


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
                      "--nu", "1", "--terms", "300"]),
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


@pytest.mark.parametrize(
    "case, argv, rows",
    [
        ("2", _SEC5_ADJOINT,
         "1,0.67865391790982665,0.0058541821414640916\n"
         "2,0.00026698030188364319,0.18733382852685093\n"),
        ("1", ["adjoint", "--f", "delta_4_6", "--g", "theta", "--nu", "1",
               "--n-max", "2", "--terms", "50"],
         "1,-0.00038438729255137969,4.2434771148094699\n"
         "2,-9.7836272127743269e-06,24.004731549533613\n"),
        ("3", ["adjoint", "--f-product", "theta", "delta", "--g", "delta_4_6",
               "--n-max", "2", "--terms", "50"],
         "1,-0.00034182095428129906,8.6631283853137844e-05\n"
         "2,-0.00014565804646407476,0.0039204843696288277\n"),
        ("integral", ["adjoint", "--f-product", "delta", "E6", "--g", "E4",
                      "--nu", "1", "--n-max", "2", "--terms", "300"],
         "1,17.751225025125255,6.1656223274670637e-05\n"
         "2,-426.02940804820389,0.12627194526652546\n"),
    ],
    ids=["2", "1", "3", "integral"],
)
def test_adjoint_csv_is_pinned(case, argv, rows, capsys):
    # One small run per case, byte for byte: a change in how the L-sums
    # round shows here first.
    assert run(argv + ["--case", case, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,c_n,err_bound\n" + rows


def _fresh_interpreter(code, env_updates):
    """Run code in a new interpreter that imports this rcadjoint, with
    OPENBLAS_NUM_THREADS unset unless env_updates sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(rcadjoint.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_updates)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestStartup:
    def test_logging_is_imported_on_demand(self, tmp_path):
        # Importing the CLI leaves logging as it found it; DEBUG turned on
        # after that import still logs the bracket's route line.
        done = _fresh_interpreter(
            "import sys\n"
            "before = 'logging' in sys.modules\n"
            "from rcadjoint.cli import main\n"
            "assert ('logging' in sys.modules) == before\n"
            "import logging\n"
            "logging.basicConfig(level=logging.DEBUG)\n"
            "sys.exit(main(['bracket', '--f', 'E4', '--g', 'E6', '--nu', '1',"
            f" '--precision', '100', '--output', {str(tmp_path / 'b.json')!r}]))\n",
            {},
        )
        assert (done.returncode, done.stdout) == (0, "")
        assert done.stderr.count("convolve_sum route=fft pairs=2 prec=100 ") == 1

    def test_flagship_runs_without_mpmath(self):
        done = _fresh_interpreter(
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from rcadjoint.cli import main\n"
            "sys.exit(main(['verify', 'ratio', '--f-product', 'theta',"
            " 'delta_4_6', '--g', 'theta', '--n-max', '10', '--terms', '2000']))\n",
            {},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["pass"] is True

    def test_flagship_routes(self):
        # The same route pin as CI's: every product of the flagship at
        # --terms 2000 takes slice-adds, three at prec 1005 (J * J, J^2 * J
        # and J^3 * J) and one at 2011 (theta * Delta_{4,6}), none takes a
        # dense route, every route line names its route, and numpy.fft is
        # never loaded.
        done = _fresh_interpreter(
            "import logging, sys\n"
            "logging.basicConfig()\n"
            "logging.getLogger('rcadjoint.kernels').setLevel(logging.DEBUG)\n"
            "from rcadjoint.cli import main\n"
            "code = main(['verify', 'ratio', '--f-product', 'theta', 'delta_4_6',"
            " '--g', 'theta', '--n-max', '10', '--terms', '2000'])\n"
            "assert 'numpy.fft' not in sys.modules\n"
            "sys.exit(code)\n",
            {},
        )
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()

        def count(pattern):
            return sum(bool(re.search(pattern, line)) for line in lines)

        assert count("route=slices pairs=1 prec=1005 ") == 3
        assert count("route=slices pairs=1 prec=2011 ") == 1
        assert count("route=(fft|kronecker)") == 0
        assert count("convolve_sum ") == count(
            "convolve_sum route=(slices|fft|kronecker) "
        )

    def test_two_calls_in_one_process_match_separate_processes(self, tmp_path):
        # dense_nu2's order: a bracket written to a file, then verify ratio
        # on that file.  main builds its parser on the first call only, not
        # at import, and build_parser() still returns a new parser.
        def calls(path):
            return [
                ["bracket", "--f", "delta", "--g", "E4", "--nu", "2",
                 "--precision", "311", "--output", path],
                ["verify", "ratio", "--f", path, "--g", "E4", "--case",
                 "integral", "--nu", "2", "--basis", "delta", "--n-max", "10",
                 "--terms", "300"],
            ]

        one = str(tmp_path / "one.json")
        together = _fresh_interpreter(
            "import rcadjoint.cli as cli\n"
            "assert cli._main_parser.cache_info().currsize == 0\n"
            f"assert [cli.main(argv) for argv in {calls(one)!r}] == [0, 0]\n"
            "assert cli._main_parser.cache_info().misses == 1\n"
            "assert cli.build_parser() is not cli._main_parser()\n",
            {},
        )
        assert (together.returncode, together.stderr) == (0, "")
        apart = str(tmp_path / "apart.json")
        stdout = ""
        for argv in calls(apart):
            done = _fresh_interpreter(
                "import sys\nfrom rcadjoint.cli import main\n"
                f"sys.exit(main({argv!r}))\n",
                {},
            )
            assert (done.returncode, done.stderr) == (0, "")
            stdout += done.stdout
        assert together.stdout == stdout
        assert json.loads(stdout)["pass"] is True
        with open(one, "rb") as a, open(apart, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
    def test_import_leaves_the_environment_as_it_was(self, threads):
        env = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        done = _fresh_interpreter(
            "import os\n"
            "before = dict(os.environ)\n"
            "import rcadjoint.cli\n"
            "assert dict(os.environ) == before\n",
            env,
        )
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    def test_import_starts_no_thread(self):
        # numpy's OpenBLAS would start one thread per core while loading.
        done = _fresh_interpreter(
            "import os\n"
            "import rcadjoint.cli\n"
            "print(len(os.listdir('/proc/self/task')))\n",
            {},
        )
        assert (done.returncode, done.stdout) == (0, "1\n")
