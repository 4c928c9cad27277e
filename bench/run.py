"""varidx benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds the workload's inputs from the
seed, runs the operations in a closed loop in a separate
single-threaded workload process for --seconds (which also times fresh
interpreters importing varidx, for set-up time, between passes), checks
every output against independent references (checks.py), and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  Exits 2 when ``src/varidx`` is not
there to measure, 1 when the workload process fails or times out.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join("bench", "out")

WORKER_TIMEOUT_S = 150


def _fail(message: str, code: int):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _metric_specs(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run_worker(plan: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "worker.py")],
            input=json.dumps(plan),
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        _fail(f"workload process exceeded {WORKER_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        # 2: the worker found no varidx under src/ to import.
        _fail(f"workload process exited with code {proc.returncode}", 2 if proc.returncode == 2 else 1)
    return json.loads(proc.stdout)


def end_to_end(res: dict) -> dict:
    ops = res["op_ms"]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "pass_s": statistics.median(res["pass_s"]),
        "op_ms.p50": statistics.median(ops),
        "op_ms.p90": statistics.quantiles(ops, n=10)[8] if len(ops) > 1 else ops[0],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "varidx", "__init__.py")):
        _fail(f"no varidx sources under {os.path.join(ROOT, 'src')}", 2)
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    units = _metric_specs("per_layer" if args.trace else "end_to_end")

    plan = workloads.build(args.workload, args.seed, OUT_DIR)
    plan["seconds"] = args.seconds
    plan["trace"] = bool(args.trace)
    if args.trace:
        plan["spans_path"] = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    res = run_worker(plan)
    problems = checks.check(plan, res["outputs"])
    problems += [f"operation {i} gave a different output on a later pass" for i in res["repeat_mismatch"]]
    for i, err in enumerate(res["errors"]):
        if err is not None:
            print(f"operation {i} failed: {err}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    values = res["per_layer"] if args.trace else end_to_end(res)
    if set(values) != set(units):
        _fail(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", 1)
    n_passes = len(res["pass_s"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n_passes} untraced passes, "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"{len(problems)} failed checks")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
