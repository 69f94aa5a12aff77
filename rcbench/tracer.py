"""Outside-in layer tracer for one workload run.

Each layer is a public rcadjoint function.  The tracer wraps it in every
rcadjoint module that binds it (``from .qseries import series_mul`` makes
``rcadjoint.bracket.series_mul`` a second binding), so calls are caught
where the caller looks the function up.  Nothing under ``src/`` changes.

Spans live in memory as ``[name, start, end, parent]`` and are summarised
after the timed calls.  Counters that need a pass over the data (operand
bits, useful terms) are computed from kept argument references after the
run, so they add nothing to the traced time.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import math
import sys
import time

ROOT = "cli.main"

# Span name -> (module, function).  A function missing from the installed
# rcadjoint is skipped and its layer reports zero calls.
LAYERS = {
    "forms.catalog_get": ("rcadjoint.forms", "catalog_get"),
    "qseries.series_mul": ("rcadjoint.qseries", "series_mul"),
    "qseries.apply_D": ("rcadjoint.qseries", "apply_D"),
    "qseries.series_add": ("rcadjoint.qseries", "series_add"),
    "kernels.convolve_exact": ("rcadjoint.kernels", "convolve_exact"),
    "kernels.int64": ("rcadjoint.kernels", "convolve_int64"),
    "kernels.bigint": ("rcadjoint.kernels", "convolve_bigint"),
    "bracket.rc_bracket": ("rcadjoint.bracket", "rc_bracket"),
    "bracket.alpha_coeff": ("rcadjoint.bracket", "alpha_coeff"),
    "adjoint.fit_tail_profile": ("rcadjoint.adjoint", "fit_tail_profile"),
    "adjoint.l_series_value": ("rcadjoint.adjoint", "l_series_value"),
    "adjoint.beta_value": ("rcadjoint.adjoint", "beta_value"),
    "verify.ratio_test": ("rcadjoint.verify", "ratio_test"),
}

# Layers whose bound arguments are kept for the counters in _count().
_KEEP_ARGS = {
    "forms.catalog_get",
    "kernels.int64",
    "kernels.bigint",
    "adjoint.fit_tail_profile",
    "adjoint.l_series_value",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.kept = []  # (layer name, bound arguments)
        self._stack = []

    def wrap(self, name, fn):
        sig = inspect.signature(fn) if name in _KEEP_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            if sig is not None:
                self.kept.append((name, sig.bind(*args, **kwargs).arguments))
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        """Rebind every rcadjoint reference to each layer function."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "rcadjoint" or n.startswith("rcadjoint.")
        ]
        for name, (modname, attr) in LAYERS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            traced = self.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)

    def summary(self, solve_s):
        """Per-layer calls, busy and self seconds, plus the derived counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(list(LAYERS) + [ROOT], 0)
        busy = dict.fromkeys(calls, 0.0)
        own = dict.fromkeys(calls, 0.0)
        top = 0.0
        bigint_from_exact = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name != ROOT and parent_name in (None, ROOT):
                top += end - start
            if name == "kernels.bigint" and parent_name == "kernels.convolve_exact":
                bigint_from_exact += 1
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        out["kernels.bigint_frac"] = _ratio(
            bigint_from_exact, calls["kernels.convolve_exact"]
        )
        out["cli.io_s"] = own[ROOT]
        out["trace.solve_s"] = solve_s
        out["trace.coverage"] = _ratio(top, solve_s)
        out.update(self._counters())
        return out

    def _counters(self):
        total = collections.Counter()
        fitted = set()
        for name, args in self.kept:
            try:
                total.update(_count(name, args, fitted))
            except KeyError:  # the layer's signature changed; skip its counter
                continue
        return {
            "forms.catalog_get.coeffs": total["coeffs"],
            "kernels.int64.macs": total["macs"],
            "kernels.int64.useful_frac": _ratio(total["useful_macs"], total["macs"]),
            "kernels.bigint.operand_bits": total["operand_bits"],
            "adjoint.fit_tail_profile.repeat_frac": _ratio(
                total["repeats"], total["fits"]
            ),
            "adjoint.l_series_value.terms": total["terms"],
            "adjoint.l_series_value.useful_frac": _ratio(
                total["useful_terms"], total["terms"]
            ),
        }

    def dump(self, path, run_id):
        """Write the raw spans; every span of this run carries run_id."""
        with open(path, "w") as fh:
            json.dump({"run": run_id, "spans": self.spans}, fh)


def _count(name, args, fitted):
    """Counter increments for one kept call."""
    if name == "forms.catalog_get":
        return {"coeffs": args["precision"]}
    if name == "kernels.int64":
        # np.convolve forms every product; only those below prec are kept.
        la, lb, prec = len(args["a"]), len(args["b"]), args["prec"]
        useful = sum(min(lb, prec - i) for i in range(min(la, prec)))
        return {"macs": la * lb, "useful_macs": useful}
    if name == "kernels.bigint":
        bits = sum(abs(int(v)).bit_length() for v in args["a"])
        bits += sum(abs(int(v)).bit_length() for v in args["b"])
        return {"operand_bits": bits}
    if name == "adjoint.fit_tail_profile":
        key = id(args["series"])  # unique: self.kept keeps the series alive
        repeat = key in fitted
        fitted.add(key)
        return {"fits": 1, "repeats": int(repeat)}
    if name == "adjoint.l_series_value":
        f, g, n, M = args["f"], args["g"], args["n"], args["M"]
        useful = sum(
            1 for m in range(1, M + 1) if g.coeff(m) != 0 and f.coeff(n + m) != 0
        )
        return {"terms": M, "useful_terms": useful}
    return {}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def scale_exponent(t_small, t_big, n_small, n_big):
    """Log-log slope of a layer's busy time between two sizes (0 if unused)."""
    if t_small <= 0 or t_big <= 0 or n_small == n_big:
        return 0.0
    return math.log(t_big / t_small) / math.log(n_big / n_small)
