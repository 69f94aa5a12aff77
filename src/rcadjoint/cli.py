"""Command-line front end.

Subcommands: expand, bracket, adjoint, verify (ratio: the shape check,
c(n) proportional to a basis form | lambda: the sign check, lambda >= 0
for the bracket of the basis form itself).  Data goes to stdout or
--output; diagnostics (hypothesis warnings, tail-bound notes) go to
stderr.  Exit codes: 0 success/pass, 1 verification failure, 2 usage
error, including a size flag too large for memory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from typing import List, Optional

from .adjoint import (
    CaseId,
    HypothesisWarning,
    adjoint_case,
    adjoint_coefficients,
    case_id,
    rows_to_csv,
    rows_to_json,
)
from .bracket import BracketParams, rc_bracket, series_mul
from .forms import catalog_get, catalog_names
from .qseries import QSeries
from .verify import first_index, lambda_test, ratio_test


class UsageError(Exception):
    pass


def _index_int(text: str) -> int:
    """text as an int no larger than an index can hold (sys.maxsize)."""
    value = int(text)
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}")
    return value


def _nonneg_int(text: str) -> int:
    value = _index_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    value = _index_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative and finite")
    return value


def _open_form(source: str, precision: int):
    """(twice weight or None, build) for a catalog name or a series JSON file.

    The weight is read without expanding the form.  build(size) returns the
    form at ``size`` coefficients, ``precision`` by default.  A file is read
    here, once; it is refused here when shorter than ``precision``, and in
    build when shorter than ``size``.  build(None) returns every coefficient
    a file holds, and a catalog form at ``precision``: every catalog form
    has a(1) != 0, so either shows the form's first nonzero coefficient.
    """
    if source in catalog_names():
        twice_weight = catalog_get(source, 1).meta.twice_weight
        return twice_weight, lambda size=precision: catalog_get(
            source, size or precision
        )
    if os.path.exists(source):
        try:
            with open(source) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(
                f"cannot read series file {source}: {exc.strerror}"
            ) from None
        except RecursionError:
            raise UsageError(f"series file {source} is nested too deeply") from None
        series = QSeries.from_json_dict(data)

        def build(size=precision):
            if size is None:
                return series
            if series.precision < size:
                raise UsageError(
                    f"series file {source} has precision {series.precision}; "
                    f"this run needs at least {size}"
                )
            return series.truncate(size)

        build()  # a short file is refused before any weight or --case error
        return (series.meta.twice_weight if series.meta else None), build
    raise UsageError(f"unknown form {source!r} (not a catalog name or file)")


def _resolve_form(source: str, precision: int) -> QSeries:
    return _open_form(source, precision)[1]()


def _open_f(args, precision: int):
    """_open_form for f: --f, or the product of the two --f-product forms."""
    if args.f_product:
        w_a, build_a = _open_form(args.f_product[0], precision)
        w_b, build_b = _open_form(args.f_product[1], precision)
        twice_weight = None if w_a is None or w_b is None else w_a + w_b
        return twice_weight, lambda: series_mul(build_a(), build_b())
    return _open_form(args.f, precision)


def _make_case(args, command: str, f_w2, g_w2) -> BracketParams:
    """The triple ``adjoint_case(f_w2, g_w2, args.nu)``.

    f_w2 is the twice-weight of the form the adjoint is applied to, g_w2
    that of g.  The weights fix the case; a --case given on the command
    line must name that same case.  Called before either form is expanded.
    """
    if f_w2 is None or g_w2 is None:
        raise UsageError(f"{command} needs weight metadata on both forms")
    p = adjoint_case(f_w2, g_w2, args.nu)
    if args.case is not None and CaseId(args.case) is not case_id(p):
        raise UsageError(
            f"--case {args.case} does not match the weights: target weight "
            f"{Fraction(p.k2, 2)} and g weight {Fraction(p.l2, 2)} give case "
            f"{case_id(p).value}"
        )
    return p


def _emit(path: Optional[str], *parts: str):
    """Write the text parts in turn to path, or to stdout without one."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(parts)


@contextlib.contextmanager
def _hypothesis_warnings():
    """Print each distinct HypothesisWarning raised in the block once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", HypothesisWarning)
        yield
    messages = []
    for w in caught:
        if issubclass(w.category, HypothesisWarning):
            messages.append(str(w.message))
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for message in dict.fromkeys(messages):
        print(f"warning: {message}", file=sys.stderr)


def _series_parts(series: QSeries):
    """The text ``json.dumps(series.to_json_dict(), indent=2) + "\\n"`` as
    its head, its coefficients joined in one pass, and its tail, to be
    written in turn (CPython's C encoder never runs with an indent)."""
    d = series.to_json_dict()
    coeffs = '",\n    "'.join(d.pop("coeffs"))
    head = "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in d.items())
    return f'{{\n{head}  "coeffs": [\n    "', coeffs, '"\n  ]\n}\n'


def _cmd_expand(args) -> int:
    series = _resolve_form(args.form, args.precision)
    _emit(args.output, *_series_parts(series))
    return 0


def _cmd_bracket(args) -> int:
    f = _resolve_form(args.f, args.precision)
    g = _resolve_form(args.g, args.precision)
    if f.meta is None or g.meta is None:
        raise UsageError("bracket needs weight metadata on both forms")
    p = BracketParams(f.meta.twice_weight, g.meta.twice_weight, args.nu)
    result = rc_bracket(f, g, p)
    _emit(args.output, *_series_parts(result))
    return 0


def _adjoint_rows(args, basis=None):
    """(rows, p) of the adjoint.  basis, verify ratio's (name, twice
    weight), is refused when its known weight is not the target's, from
    the weights alone, before either form is expanded."""
    f_w2, build_f = _open_f(args, args.n_max + args.terms + 1)
    g_w2, build_g = _open_form(args.g, args.terms + 1)
    p = _make_case(args, "adjoint", f_w2, g_w2)
    if basis is not None and basis[1] not in (None, p.k2):
        raise UsageError(
            f"basis {basis[0]} has weight {Fraction(basis[1], 2)}, but the "
            f"target weight is {Fraction(p.k2, 2)}"
        )
    f, g = build_f(), build_g()
    with _hypothesis_warnings():
        rows = adjoint_coefficients(
            f, g, args.nu, args.n_max, args.terms, epsilon=args.epsilon
        )
    return rows, p


def _cmd_adjoint(args) -> int:
    rows, p = _adjoint_rows(args)
    if args.format == "csv":
        _emit(args.output, rows_to_csv(rows))
    else:
        payload = rows_to_json(rows, args.terms, p)
        _emit(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _verdict(args, config: str, extra: dict, passed: bool) -> int:
    """Print the verdict as strict JSON: a non-finite number is null."""
    extra = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in extra.items()
    }
    payload = {"config": config, **extra, "pass": passed}
    _emit(args.output, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0 if passed else 1


def _cmd_verify_ratio(args) -> int:
    basis_name = args.basis
    if basis_name is None:
        if args.f_product:
            basis_name = args.f_product[1]
        else:
            raise UsageError("verify ratio needs --basis (or --f-product)")
    basis_w2, build_basis = _open_form(basis_name, args.n_max + 1)
    rows, p = _adjoint_rows(args, (basis_name, basis_w2))
    basis = build_basis()
    report = ratio_test(rows, basis, args.tolerance)
    config = f"case {case_id(p).value}, nu={args.nu}, basis {basis_name}"
    return _verdict(
        args,
        config,
        {
            "lambda": report.lam,
            "spread": report.spread,
            "error_budget": report.error_budget,
            "M": args.terms,
            "tolerance": args.tolerance,
        },
        report.passed,
    )


def _cmd_verify_lambda(args) -> int:
    if args.basis is None:
        raise UsageError("verify lambda needs --basis")
    # Rows run to n = m0, f's first nonzero index: forms need m0 + terms + 1.
    f_w2, build_f = _open_form(args.basis, args.terms + 2)
    g_w2, build_g = _open_form(args.g, args.terms + 2)
    # The adjoint is applied to [f, g]_nu, of twice-weight f_w2 + g_w2 + 4 nu.
    h_w2 = None if None in (f_w2, g_w2) else f_w2 + g_w2 + 4 * args.nu
    p = _make_case(args, "verify lambda", h_w2, g_w2)
    f = build_f(None)
    precision = first_index(f) + args.terms + 1
    if f.precision != precision:
        f = build_f(precision)
    g = build_g(precision)
    with _hypothesis_warnings():
        report = lambda_test(f, g, args.nu, M=args.terms, epsilon=args.epsilon)
    config = f"case {case_id(p).value}, nu={args.nu}, f={args.basis}, g={args.g}"
    return _verdict(
        args,
        config,
        {"lambda": report.lam, "error_budget": report.error_budget, "M": args.terms},
        report.passed,
    )


def _add_adjoint_flags(p, with_f=True):
    if with_f:
        f = p.add_mutually_exclusive_group(required=True)
        f.add_argument("--f", help="cusp form: catalog name or series file")
        f.add_argument(
            "--f-product",
            nargs=2,
            metavar=("A", "B"),
            help="build f as the product A*B",
        )
    p.add_argument("--g", required=True, help="fixed form g")
    p.add_argument(
        "--case",
        choices=[c.value for c in CaseId],
        help="optional: the weights fix the case; if given, it must match",
    )
    p.add_argument("--nu", type=_nonneg_int, default=0)
    if with_f:  # verify lambda's rows follow from its --basis
        p.add_argument("--n-max", type=_positive_int, default=10)
    p.add_argument("--terms", type=_positive_int, default=20000)
    p.add_argument("--epsilon", type=_positive_float, default=0.1)
    p.add_argument("--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcadjoint",
        description="Rankin-Cohen brackets and adjoint-map special values "
        "on truncated q-expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="q-expansion of a catalog form")
    p.add_argument("--form", required=True)
    p.add_argument("--precision", type=_positive_int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bracket", help="Rankin-Cohen bracket of two forms")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--nu", type=_nonneg_int, required=True)
    p.add_argument("--precision", type=_positive_int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("adjoint", help="coefficients of the adjoint image")
    _add_adjoint_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_adjoint)

    pv = sub.add_parser("verify", help="reproduce the checkable consequences")
    vsub = pv.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("ratio", help="proportionality on a 1-dim space")
    _add_adjoint_flags(p)
    p.add_argument("--basis", help="basis form of the 1-dim target space")
    p.add_argument("--tolerance", type=_nonneg_float, default=1e-3)
    p.set_defaults(func=_cmd_verify_ratio)

    p = vsub.add_parser("lambda", help="sign of the eigenvalue on the basis form")
    _add_adjoint_flags(p, with_f=False)
    p.add_argument("--basis", help="generator f of the 1-dim space")
    p.set_defaults(func=_cmd_verify_lambda)

    return parser


# main's parser: built on its first call, not at import, then kept.
_main_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Series files may hold coefficients beyond CPython's default limit of
    # 4300 digits for int <-> str (3.10.7 on); lift it for this call only.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Every command allocates in proportion to its largest size flag.
        size, name = max(
            (getattr(args, name), name)
            for name in ("precision", "n_max", "terms")
            if hasattr(args, name)
        )
        flag = "--" + name.replace("_", "-")
        print(f"error: {flag} {size} is too large: out of memory", file=sys.stderr)
        return 2
    finally:
        if set_digits is not None:
            set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
