"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect --out bench/out/a.json --seeds 1-10
    python3 bench/compare.py report bench/out/a.json [bench/out/b.json]

``collect`` runs the command of BENCHMARK.json, untraced and for
run_seconds, once per workload and seed, and stores every result line.
The workloads take turns (seed 1 of each, then seed 2 of each, ...), so
that a slow spell of the machine falls on every workload alike rather
than on one workload's whole block of seeds.
``report`` prints, per workload and end-to-end metric, the median and
the quartile spread (q3 - q1) / median of one set, which must stay
below the metric's bound; given a second set it also prints the change
of the median, which must not be worse than the bound, and checks that
both sets fail the same share of operations.  It exits 1 when any of
this does not hold, when a set lacks a workload of BENCHMARK.json, or
when any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    cfg = _config()
    seconds = cfg["run_seconds"]
    names = [w["name"] for w in cfg["workloads"]]
    runs = []
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = cfg["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "result": result})
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"seconds": seconds, "runs": runs}, fh, indent=1)
    return 0


def _summary(runs, name):
    mine = [r["result"] for r in runs if r["workload"] == name]
    metrics = {}
    for key in mine[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in mine]
        q1, med, q3 = statistics.quantiles(values, n=4)
        metrics[key] = (med, (q3 - q1) / med if med else 0.0, len(values))
    share = [r["failed"] / r["attempted"] for r in mine]
    return metrics, share, all(r["correct"] for r in mine)


def report(args) -> int:
    cfg = _config()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in cfg["end_to_end"]}
    sets = []
    for path in args.sets:
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh)["runs"])
    ok = True
    for w in cfg["workloads"]:
        name = w["name"]
        missing = [path for path, runs in zip(args.sets, sets)
                   if not any(r["workload"] == name for r in runs)]
        if missing:
            print(f"[{name}] no runs in {', '.join(missing)}")
            ok = False
            continue
        summaries = [_summary(runs, name) for runs in sets]
        print(f"[{name}]")
        for i, (_, share, correct) in enumerate(summaries):
            print(f"  set {i}: failed share {sorted(set(share))}, all correct: {correct}")
            ok &= correct and len(set(share)) == 1
        if len(summaries) == 2 and set(summaries[0][1]) != set(summaries[1][1]):
            print("  FAILED SHARE DIFFERS between the sets")
            ok = False
        for key, (bound, better) in bounds.items():
            cells = []
            for metrics, _, _ in summaries:
                med, spread, n = metrics[key]
                flag = " ok" if spread < bound / 3 else (" wide" if spread < bound else " TOO WIDE")
                ok &= spread < bound
                cells.append(f"median {med:.6g} spread {spread:.3f} (n={n}){flag}")
            line = f"  {key:<12} bound {bound:<5} " + " | ".join(cells)
            if len(summaries) == 2:
                a, b = summaries[0][0][key][0], summaries[1][0][key][0]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                line += f" | worse by {worse:+.3f}" + (" REGRESSION" if worse > bound else "")
                ok &= worse <= bound
            print(line)
    print("all within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark over workloads and seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="spreads of one set, or two sets compared")
    p.add_argument("sets", nargs="+", help="one or two files written by collect")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    if args.cmd == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
