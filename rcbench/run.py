#!/usr/bin/env python3
"""The rcadjoint benchmark.

Usage (from the repository root):

    python3 rcbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0
    python3 rcbench/run.py --workload all        # every workload, one table
    python3 rcbench/run.py --self-test           # corrupted outputs must fail

Each run starts a fresh interpreter per repetition (``child.py``) that
imports ``rcadjoint.cli`` and calls ``main()`` as the ``rcadjoint``
command would, repeating while another repetition fits in ``--seconds``
(at least three times).  Every output is checked.  Times are rescaled to a reference host
speed measured by a calibration loop in each repetition; ``solve_s`` is
the mean repetition, ``setup_s`` and ``peak_rss_mb`` are medians.
``--trace 1``
instead runs, per cycle, the workload untraced, traced, and traced at half
size, and reports per-layer numbers plus a kernel length sweep.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json.  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import LAMBDA, bracket_reference, check_bracket, check_ratio
from tracer import scale_exponent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

NOMINAL = {"flagship": 20000, "dense_nu2": 2500, "bracket_nu3": 8000}
# The seed moves the size by up to this share, so no exact size is special.
JITTER = 0.02
N_MAX = 10
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 120
SPOT_CHECKS = 6
SWEEP = {"sizes": [1000, 5000, 20000], "repeats": 3}
# Seconds child.py's calibration loop takes on a quiet host.  Reported
# times are wall times rescaled to that speed (see rescaled()).
CALIBRATION_REF_S = 0.05

# Layers predicted to carry most of the traced self time, per workload.
PREDICTED = {
    "flagship": ["kernels.int64", "forms.catalog_get"],
    "dense_nu2": ["bracket.alpha_coeff", "adjoint.l_series_value"],
    "bracket_nu3": [
        "kernels.bigint",
        "qseries.series_mul",
        "qseries.apply_D",
        "qseries.series_add",
    ],
}
# Layers whose busy time is timed at two sizes for a log-log slope.
SCALED = [
    "kernels.int64",
    "kernels.bigint",
    "forms.catalog_get",
    "adjoint.l_series_value",
    "bracket.rc_bracket",
]


def plan(workload, seed, workdir, half=False):
    """Command lines and output check of one workload, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    size = round(NOMINAL[workload] * rng.uniform(1 - JITTER, 1 + JITTER))
    if half:
        size //= 2
    out = str(Path(workdir) / "h.json")
    adjoint = ["--n-max", str(N_MAX), "--terms", str(size)]
    if workload == "flagship":
        calls = [
            ["verify", "ratio", "--f-product", "theta", "delta_4_6", "--g", "theta",
             "--case", "2", "--nu", "0", *adjoint],
        ]
    elif workload == "dense_nu2":
        calls = [
            ["bracket", "--f", "delta", "--g", "E4", "--nu", "2",
             "--precision", str(size + N_MAX + 1), "--output", out],
            ["verify", "ratio", "--f", out, "--g", "E4", "--case", "integral",
             "--nu", "2", "--basis", "delta", *adjoint],
        ]
    elif workload == "bracket_nu3":
        calls = [
            ["bracket", "--f", "E4", "--g", "E6", "--nu", "3",
             "--precision", str(size), "--output", out],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    if workload == "bracket_nu3":
        indices = rng.sample(range(1, size - 1), SPOT_CHECKS - 1) + [size - 1]
        reference = bracket_reference(4, 6, 3, indices)

        def check(result):
            return check_bracket(result["calls"][-1], out, size, reference)

    else:
        lam, rtol = LAMBDA[workload]
        if half:
            lam = None  # the reference holds at the nominal size only

        def check(result):
            return check_ratio(result["calls"][-1], lam, rtol)

    return {"size": size, "calls": calls, "check": check}


def run_child(spec):
    """Run child.py on spec; (result, failures)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, [f"child exceeded {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, [f"child exited with {proc.returncode}: {' | '.join(tail)}"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def run_once(p, trace=None, run_id=""):
    """One fresh-process repetition of plan p, checked; (result, failures)."""
    spec = {"src": str(SRC), "calls": p["calls"], "trace": trace, "run_id": run_id}
    result, failures = run_child(spec)
    if result is None:
        return None, failures
    return result, judge(p, result)


def judge(p, result):
    """Failures of one repetition: a non-zero exit, else the output check."""
    return [
        f"{' '.join(c['argv'][:2])} exited with {c['rc']}"
        for c in result["calls"]
        if c["rc"] != 0
    ] or p["check"](result)


def rescaled(results, key):
    """Mean wall time of key over results, at the reference host speed.

    On a shared host one input runs at speeds up to ~2x apart, in phases
    from seconds to minutes, with CPU time equal to wall time.  The
    calibration loop timed in the same process before and after the calls
    tracks those phases.  Total time over total calibration time is
    steadier than any per-repetition ratio, whose calibration is short.
    """
    total = sum(r[key] for r in results)
    return total * CALIBRATION_REF_S / sum(r["calib_s"] for r in results)


def error_budget(result):
    """The verdict's error_budget, or None for workloads without a verdict."""
    try:
        return json.loads(result["calls"][-1]["stdout"])["error_budget"]
    except (ValueError, KeyError, TypeError):
        return None


class Deadline:
    """The measuring window: a step starts only if one as long as the
    longest so far still fits, so a run lasts about --seconds."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds
        self.longest = 0.0

    def room(self):
        return time.monotonic() + self.longest <= self.end

    @contextlib.contextmanager
    def step(self):
        start = time.monotonic()
        yield
        self.longest = max(self.longest, time.monotonic() - start)


class Tally:
    """Attempted and failed repetitions of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env = None

    def add(self, result, failures):
        self.attempted += 1
        if result is not None and "solve_s" in result:
            print(
                f"repetition {self.attempted}: wall solve_s {result['solve_s']:.4f} "
                f"setup_s {result['setup_s']:.4f} calib_s {result['calib_s']:.4f}",
                file=sys.stderr,
            )
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
        elif self.env is None:
            self.env = result.get("env")
        return not failures


def measure(workload, seed, seconds, workdir):
    """End-to-end metrics over fresh-process repetitions.

    solve_s is the mean rescaled repetition, setup_s the median rescaled
    one and peak_rss_mb the median.  The raw wall-clock solve times are
    kept for the summary line.
    """
    p = plan(workload, seed, workdir)
    tally, good = Tally(), []
    deadline = Deadline(seconds)
    while tally.attempted < MIN_REPEATS or deadline.room():
        with deadline.step():
            result, failures = run_once(p)
        if tally.add(result, failures):
            good.append(result)
    values = {}
    if good:
        values["solve_s"] = rescaled(good, "solve_s")
        values["setup_s"] = statistics.median(rescaled([r], "setup_s") for r in good)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
        values["wall_solve_min_s"] = min(r["solve_s"] for r in good)
        values["wall_solve_median_s"] = statistics.median(r["solve_s"] for r in good)
        budget = error_budget(good[0])
        if budget is not None:
            values["error_budget"] = budget
    values["failed_frac"] = tally.failed / tally.attempted
    return p, tally, values


def measure_traced(workload, seed, seconds, workdir):
    """Per-layer metrics: untraced, traced and half-size traced cycles."""
    full = plan(workload, seed, workdir)
    half = plan(workload, seed, workdir, half=True)
    spans = str(WORK / f"spans-{workload}.json")
    tally, cycles, plains, traceds = Tally(), [], [], []
    deadline = Deadline(seconds)
    while tally.attempted == 0 or deadline.room():
        with deadline.step():
            plain, f1 = run_once(full)
            traced, f2 = run_once(full, trace=spans, run_id=f"{workload}/{seed}")
            small, f3 = run_once(half, trace=str(Path(workdir) / "spans-half.json"))
        ok = [tally.add(r, f) for r, f in ((plain, f1), (traced, f2), (small, f3))]
        if all(ok):
            cycles.append(cycle_metrics(workload, full, half, traced, small))
            plains.append(plain)
            traceds.append(traced)
    sweep_spec = {"src": str(SRC), "sweep": {**SWEEP, "seed": f"sweep/{seed}"}}
    sweep, failures = run_child(sweep_spec)
    if sweep is not None and not sweep["agree"]:
        failures = ["kernel sweep: int64 and bigint routes disagree"]
    tally.add(sweep, failures)
    values = {}
    if cycles:
        for key in cycles[0]:
            values[key] = statistics.median(c[key] for c in cycles)
        overhead = rescaled(traceds, "solve_s") / rescaled(plains, "solve_s")
        values["trace.overhead_frac"] = overhead - 1
    if sweep is not None:
        times = sweep["times"]
        for key, value in times.items():
            values[f"kernels.sweep.{key}_s"] = value
        lo, hi = SWEEP["sizes"][-2:]
        for route in ("int64", "bigint"):
            values[f"kernels.sweep.{route}.scale_exp"] = scale_exponent(
                times[f"{route}.n{lo}"], times[f"{route}.n{hi}"], lo, hi
            )
    return full, tally, values


def cycle_metrics(workload, full, half, traced, small):
    layers = dict(traced["layers"])
    for name in SCALED:
        layers[f"{name}.scale_exp"] = scale_exponent(
            small["layers"][f"{name}.busy_s"],
            layers[f"{name}.busy_s"],
            half["size"],
            full["size"],
        )
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    self_total += layers["cli.io_s"]
    predicted = sum(layers[f"{name}.self_s"] for name in PREDICTED[workload])
    layers["trace.predicted_frac"] = predicted / self_total
    layers["verify.error_budget"] = error_budget(traced) or 0.0
    return layers


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(names_units, values):
    """The metrics that have a value; a missing one makes the run incorrect."""
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in names_units
        if name in values
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(spec, workload, seed, seconds, trace, workdir):
    measure_fn = measure_traced if trace else measure
    p, tally, values = measure_fn(workload, seed, seconds, workdir)
    print("env " + json.dumps({**(tally.env or {}), "seed": seed}))
    print(
        f"workload {workload} size {p['size']} repetitions {tally.attempted} "
        f"failed {tally.failed}"
    )
    if trace:
        metrics = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        print(
            "  ".join(
                f"{key} {fmt(values[key])}"
                for key in ("solve_s", "setup_s", "peak_rss_mb", "wall_solve_min_s",
                            "wall_solve_median_s", "error_budget", "failed_frac")
                if key in values
            )
        )
    out = report(metrics, values)
    return tally.failed == 0 and len(out) == len(metrics), tally, out, values


def run_all(spec, seed, seconds, workdir):
    """Every workload untraced, then one table of the end-to-end numbers."""
    rows, all_ok, attempted, failed, metrics = [], True, 0, 0, {}
    for w in (entry["name"] for entry in spec["workloads"]):
        ok, tally, out, values = run_workload(spec, w, seed, seconds, False, workdir)
        all_ok &= ok
        attempted += tally.attempted
        failed += tally.failed
        rows.append((w, values))
        metrics.update({f"{w}.{k}": v for k, v in out.items()})
    columns = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
               ("error_budget", "ratio"), ("failed_frac", "ratio")]
    print(f"{'workload':<12}" + "".join(f"{f'{c} [{u}]':>20}" for c, u in columns))
    for w, values in rows:
        cells = "".join(f"{fmt(values[c]) if c in values else 'n/a':>20}"
                        for c, _ in columns)
        print(f"{w:<12}{cells}")
    return all_ok, attempted, failed, metrics


def self_test(seed, workdir):
    """A clean run must pass its checks and each corrupted copy must fail."""
    all_ok = True
    for workload in NOMINAL:
        p = plan(workload, seed, workdir)
        result, failures = run_once(p)
        all_ok &= _expect(f"{workload}: clean output passes", not failures, failures)
        if result is None:
            continue
        output = Path(p["calls"][-1][-1])
        original = output.read_bytes() if output.is_file() else None
        for label, corrupt in _corruptions(workload, p):
            bad = json.loads(json.dumps(result))
            corrupt(bad)
            caught = judge(p, bad)
            all_ok &= _expect(f"{workload}: {label} is a failure", bool(caught), caught)
            if original is not None:
                output.write_bytes(original)
    return all_ok


def _expect(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + ("" if ok else f": {detail}"))
    return ok


def _edit_verdict(**changes):
    def corrupt(result):
        verdict = json.loads(result["calls"][-1]["stdout"])
        for key, fn in changes.items():
            verdict[key] = fn(verdict[key])
        result["calls"][-1]["stdout"] = json.dumps(verdict)

    return corrupt


def _corruptions(workload, p):
    def exit_one(result):
        result["calls"][-1]["rc"] = 1

    if workload != "bracket_nu3":
        return [
            ("lambda off by 1e-3", _edit_verdict(**{"lambda": lambda v: v * (1 + 1e-3)})),
            ("pass false", _edit_verdict(**{"pass": lambda v: False})),
            ("spread 2e-3", _edit_verdict(spread=lambda v: 2e-3)),
            ("error_budget above lambda",
             _edit_verdict(error_budget=lambda v: 1e9)),
            ("exit code 1", exit_one),
        ]
    path = Path(p["calls"][-1][-1])

    def wrong_coefficient(result):
        data = json.loads(path.read_text())
        # The last index is always spot-checked.
        n = p["size"] - 1
        num, den = data["coeffs"][n].split("/")
        data["coeffs"][n] = f"{int(num) + int(den)}/{den}"
        path.write_text(json.dumps(data))

    def truncated(result):
        data = json.loads(path.read_text())
        data["coeffs"] = data["coeffs"][:-1]
        path.write_text(json.dumps(data))

    return [
        ("one exact coefficient off by 1", wrong_coefficient),
        ("one coefficient missing", truncated),
        ("exit code 1", exit_one),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running child before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "rcadjoint" / "cli.py").is_file():
        print(f"error: no rcadjoint package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names + ['all'])}")

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.self_test:
            return 0 if self_test(args.seed, workdir) else 1
        if args.workload == "all":
            ok, attempted, failed, metrics = run_all(
                spec, args.seed, args.seconds, workdir
            )
        else:
            ok, tally, metrics, _ = run_workload(
                spec, args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
            attempted, failed = tally.attempted, tally.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
