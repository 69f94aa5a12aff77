"""One workload run in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``rcadjoint``
package), ``calls`` (argument lists for ``rcadjoint.cli.main``) and
``trace`` (a path for the raw spans, or null for an untraced run).  With
``"sweep": {...}`` instead of ``calls`` it times the two convolution
kernels on random data.  The result is one JSON object on the last line
of stdout.  Nothing is imported from rcadjoint before the setup timer
starts, so ``setup_s`` is the cost every CLI call pays.  ``calib_s`` is
the mean time of a fixed calibration loop run before the import and
after the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time


def _environment(cli):
    import mpmath
    import numpy

    from rcadjoint import kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    active = getattr(kernels, "active_kernel", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "numba_imports": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "active_kernel": active() if active else "n/a",
        "rcadjoint": os.path.dirname(cli.__file__),
    }


def _io_bytes(argv, stdout):
    """JSON bytes one CLI call wrote (stdout, --output) and read (input files)."""
    total = len(stdout.encode())
    for i, arg in enumerate(argv):
        if i > 0 and os.path.isfile(arg):
            total += os.path.getsize(arg)  # --output, or a series file read
    return total


def _calibration():
    """Seconds for a fixed interpreter and big-int loop (no rcadjoint code)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200000):
        total += i * i % 7
    x = 3**100000
    for _ in range(4):
        x * (x + 1)
    return time.perf_counter() - t0


def run_calls(spec):
    # The host's speed drifts; a loop timed just before the import and
    # just after the calls gives run.py the speed to rescale this repetition.
    calib_before = _calibration()
    start = time.perf_counter()
    import rcadjoint.cli as cli

    setup_s = time.perf_counter() - start
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT, cli.main)

    calls = []
    solve_s = 0.0
    for argv in spec["calls"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = entry(argv)
        solve_s += time.perf_counter() - t0
        calls.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})

    calib_s = (calib_before + _calibration()) / 2
    result = {
        "calib_s": calib_s,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
        "env": _environment(cli),
    }
    if tracer is not None:
        layers = tracer.summary(solve_s)
        layers["cli.bytes"] = sum(_io_bytes(c["argv"], c["stdout"]) for c in calls)
        result["layers"] = layers
        tracer.dump(spec["trace"], spec["run_id"])
    return result


def run_sweep(spec):
    """Median time of each kernel on random +-10^6 data, and their agreement."""
    from rcadjoint import kernels

    rng = random.Random(spec["seed"])
    routes = {
        name: getattr(kernels, attr, None)
        for name, attr in (("int64", "convolve_int64"), ("bigint", "convolve_bigint"))
    }
    times, agree = {}, True
    for n in spec["sizes"]:
        a = [rng.randint(-(10**6), 10**6) for _ in range(n)]
        b = [rng.randint(-(10**6), 10**6) for _ in range(n)]
        outputs = []
        for name, fn in routes.items():
            if fn is None:
                times[f"{name}.n{n}"] = 0.0
                continue
            samples = []
            for _ in range(spec["repeats"]):
                t0 = time.perf_counter()
                out = fn(a, b, n)
                samples.append(time.perf_counter() - t0)
            times[f"{name}.n{n}"] = statistics.median(samples)
            outputs.append([int(v) for v in out])
        agree = agree and all(o == outputs[0] for o in outputs)
    return {"times": times, "agree": agree}


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    result = run_sweep(spec["sweep"]) if "sweep" in spec else run_calls(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
