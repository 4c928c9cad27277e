"""Workload process: runs one workload's operations in a closed loop.

Reads a plan (see workloads.py) as JSON on stdin, imports varidx from
``src/`` of the current directory, runs one warm-up pass and then whole
passes until the time is up, and writes one JSON object to stdout:
pass times, operation latencies, set-up times, failures, the warm-up
pass's outputs (which run.py checks), whether later passes repeated
them, peak RSS, and, when traced, the per-layer metrics.

With ``"trace": true`` passes alternate untraced and traced; the
per-layer metrics come from the traced ones, and the tracing overhead
is the median traced pass minus the median untraced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import varidx, varidx.cli"
# An untraced run times a fresh interpreter importing varidx after any
# pass that ends this long after the last such import: the imports are
# spread over the run like the passes, so a slow spell of the machine a
# few seconds long touches only a few of them.
SETUP_EVERY_S = 2.0


def _setup_time() -> float:
    """Wall time of a fresh interpreter importing varidx and varidx.cli.

    The wait blocks in waitpid: a wait with a timeout polls, in steps of
    up to 50 ms, and would quantise the time.
    """
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE]) as proc:
        returncode = proc.wait()
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError("a fresh interpreter failed to import varidx")
    return elapsed


def _peak_rss_mb() -> float:
    """High-water RSS of this process.

    VmHWM belongs to the address space made at exec; ru_maxrss would
    also count the parent's RSS at the fork that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _import_varidx():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import varidx
    import varidx.cli  # noqa: F401

    if not os.path.abspath(varidx.__file__).startswith(src + os.sep):
        raise ImportError(f"varidx imported from {varidx.__file__}, not from {src}")
    return varidx


def _runner(varidx, op):
    """A zero-argument callable performing one operation."""
    if op["kind"] == "cli":
        argv = list(op["argv"])

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
                rc = varidx.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
            return out.getvalue()

        return run
    if op["kind"] == "sample":
        import numpy as np

        values = np.loadtxt(op["data"])

        def run():
            reference = varidx.kde(varidx.SampleData(values))
            return varidx.sample(reference, op["n"], op["seed"]).values.tolist()

        return run
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _pass(runners, tracer=None):
    """Run every operation once: (seconds, [ms], [output or None], [error])."""
    lat, outs, errs = [], [], []
    clock = time.perf_counter
    t0 = clock()
    for i, run in enumerate(runners):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            out, err = run(), None
        except (Exception, SystemExit) as exc:  # an operation's failure is data
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(1e3 * (clock() - start))
        outs.append(out)
        errs.append(err)
    return clock() - t0, lat, outs, errs


def main() -> int:
    plan = json.load(sys.stdin)
    try:
        varidx = _import_varidx()
    except ImportError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    runners = [_runner(varidx, op) for op in plan["ops"]]
    trace = bool(plan["trace"])
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(varidx)

    if not trace:
        _setup_time()  # discarded: it fills the bytecode and page caches
    _, _, first, first_err = _pass(runners)
    result = {
        "outputs": first,
        "errors": first_err,
        "pass_s": [],
        "op_ms": [],
        "setup_s": [],
        "attempted": 0,
        "failed": 0,
        "repeat_mismatch": [],
    }
    traced_s, layer_passes, kept_spans = [], [], None
    start = time.perf_counter()
    last_setup = -math.inf
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        n_pass += 1
        if traced:
            tracer.install()
        try:
            secs, lat, outs, errs = _pass(runners, tracer)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.take()
            layer_passes.append(tracing.layer_totals(spans))
            kept_spans = kept_spans or spans
            traced_s.append(secs)
        else:
            result["pass_s"].append(secs)
            result["op_ms"].extend(lat)
            if not trace and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                result["setup_s"].append(_setup_time())
                last_setup = time.perf_counter()
        result["attempted"] += len(lat)
        result["failed"] += sum(e is not None for e in errs)
        for i, out in enumerate(outs):
            if out != first[i] and i not in result["repeat_mismatch"]:
                result["repeat_mismatch"].append(i)
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (not trace or layer_passes):
            break
    result["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        overhead = 1e3 * (statistics.median(traced_s) - statistics.median(result["pass_s"]))
        result["per_layer"] = tracing.per_layer_metrics(layer_passes, overhead)
        if plan.get("spans_path"):
            tracing.write_spans(plan["spans_path"], kept_spans)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
