"""Checks of every workload's outputs against reference.py.

``check(plan, outputs)`` returns a list of problems, empty when every
output of every operation that did not fail is right.  Measures must
agree with their reference to within 1e-7 * max(1, |ref|); printed CSV
columns, which carry 12 significant digits, to within 1e-10 * max(1, |ref|).
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

MEASURE_TOL = 1e-7
CSV_TOL = 1e-10
SCORE_TOL = 1e-9
KS_LEVEL = 1e-3
MC_SIGMAS = 5.0

# Inputs of the paper's examples (the bundled datasets).
MURTHY41 = (
    11.24, 1.92, 12.74, 22.48, 9.60, 11.50, 8.86, 7.75, 5.73, 9.37,
    30.42, 9.17, 10.20, 5.52, 5.85, 38.14, 2.99, 16.58, 18.92, 13.36,
)
COIN3 = (20, 63, 84, 33)
CURVE_LAMBDAS = (1.0, 2.0, 3.0, 4.0)
BOUND_LAM = 4.0
BOUND_EPS = (0.5, 1.0, 1.5, 2.0)


class Problems(list):
    def close(self, what, got, want, tol=MEASURE_TOL):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            self.append(f"{what}: got {got!r}, reference {want!r}")

    def require(self, what, condition):
        if not condition:
            self.append(what)


def _grid(spec: str) -> tuple[float, float, float]:
    return tuple(float(v) for v in spec.split(":"))


def _csv(text: str):
    lines = text.strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _check_grid(p: Problems, what, column, spec):
    start, stop, step = _grid(spec)
    expect = start + step * np.arange(int(round((stop - start) / step)) + 1)
    p.require(f"{what}: {column.size} grid rows, expected {expect.size}", column.size == expect.size)
    if column.size == expect.size:
        p.require(f"{what}: grid column differs from {spec}", np.allclose(column, expect, rtol=1e-12, atol=0))
    return expect


def check_reproduce(p: Problems, text: str):
    rows = [ln.strip() for ln in text.splitlines() if ln.startswith("  ")]
    p.require("reproduce: no check rows", rows)
    for row in rows:
        p.require(f"reproduce: {row}", row.startswith("PASS"))


def check_curves(p: Problems, argv, text: str):
    pair, grid = argv[argv.index("--pair") + 1], argv[argv.index("--grid") + 1]
    header, rows = _csv(text)
    what = f"curves {pair}"
    x = _check_grid(p, what, rows[:, 0], grid)
    if x.size != rows.shape[0]:
        return
    if pair == "exp":
        expect_header = ["eta"]
        for lam in CURVE_LAMBDAS:
            expect_header += [f"I_lambda={lam:g}", f"VarI_lambda={lam:g}"]
        cols = []
        for lam in CURVE_LAMBDAS:
            cols += [-np.log(x) + x / lam, (x / lam) ** 2]
    else:
        expect_header = ["alpha", "I", "VarI"]
        cols = [-np.log(x) + x - 1.0, (x - 1.0) ** 2]
    p.require(f"{what}: header {header}", header == expect_header)
    for j, col in enumerate(cols, start=1):
        for xi, got, want in zip(x, rows[:, j], col):
            p.close(f"{what} {header[j]} at {xi:g}", got, want, CSV_TOL)


def check_bounds(p: Problems, argv, text: str):
    pair, grid = argv[argv.index("--pair") + 1], argv[argv.index("--grid") + 1]
    header, rows = _csv(text)
    what = f"bounds {pair}"
    x = _check_grid(p, what, rows[:, 0], grid)
    if x.size != rows.shape[0]:
        return
    first = "eta" if pair == "exp" else "alpha"
    p.require(
        f"{what}: header {header}",
        header == [first, "VarI"] + [f"bound_eps={e:g}" for e in BOUND_EPS],
    )
    for xi, row in zip(x, rows):
        var_i = (xi / BOUND_LAM) ** 2 if pair == "exp" else (xi - 1.0) ** 2
        p.close(f"{what} VarI at {xi:g}", row[1], var_i, CSV_TOL)
        for eps, got in zip(BOUND_EPS, row[2:]):
            if pair == "exp":
                want = ref.exp_pair_bound(BOUND_LAM, xi, eps)
            else:
                want = ref.uniform_power_bound(xi, eps)
            p.close(f"{what} bound eps={eps:g} at {xi:g}", got, want, CSV_TOL)
            p.require(f"{what}: bound eps={eps:g} at {xi:g} exceeds VarI", got <= row[1])


def check_ranking(p: Problems, what, payload):
    scored = [ref.Scored(c["label"], c["K"], c["VarK"]) for c in payload["candidates"]]
    want = ref.auto_ranking(scored)
    p.require(f"{what}: ranking {payload['ranking']}, rule gives {want}", payload["ranking"] == want)
    p.require(f"{what}: disqualified {payload['disqualified']}", not payload["disqualified"])
    p.require(f"{what}: failures {payload['failures']}", not payload["failures"])


def check_fit_continuous(p: Problems, what, payload, data, kde: ref.LogKDE):
    """Returns the fitted Weibull's params, for the sampler's Monte-Carlo check."""
    desc = payload["reference"]
    p.require(f"{what}: reference {desc['kind']}, n={desc['n']}", desc["kind"] == "kde" and desc["n"] == len(data))
    p.close(f"{what} bandwidth", desc["bandwidth"], kde.h, 1e-12)
    for got, want in zip(desc["support"], kde.support):
        p.close(f"{what} support", got, want, 1e-12)
    p.close(f"{what} reference mass (Simpson)", kde.integrated_mass(), 1.0, 1e-9)
    fitted_w2 = None
    for cand in payload["candidates"]:
        label = cand["label"]
        family, params = ref.parse_spec(label)
        if cand["fitted"]:
            p.require(f"{what} {label}: params differ from label", tuple(cand["fit"]["params"]) == params)
            if family == "w2":
                fitted_w2 = params
                for name, score in zip(("rate", "shape"), ref.weibull_scores(data, *params)):
                    p.require(f"{what} {label}: {name} score {score:.3e}", abs(score) <= SCORE_TOL)
            else:
                for got, want in zip(params, ref.lognormal_mle(data)):
                    p.close(f"{what} {label} lognormal ML", got, want, 1e-12)
        k, var_k = kde.kl_moments(family, params)
        p.close(f"{what} K({label})", cand["K"], k)
        p.close(f"{what} VarK({label})", cand["VarK"], var_k)
    check_ranking(p, what, payload)
    return fitted_w2


def check_fit_discrete(p: Problems, what, payload, counts):
    p.require(f"{what}: reference {payload['reference']}", payload["reference"]["counts"] == list(counts))
    for cand in payload["candidates"]:
        family, params = ref.parse_spec(cand["label"])
        if cand["fitted"]:
            p.close(f"{what} binomial ML p", params[1], ref.binomial_mle(counts), 1e-12)
        k, var_k = ref.discrete_kl(counts, ref.pmf(family, params))
        p.close(f"{what} K({cand['label']})", cand["K"], k)
        p.close(f"{what} VarK({cand['label']})", cand["VarK"], var_k)
    check_ranking(p, what, payload)


def check_measures(p: Problems, f_spec, g_spec, text: str):
    payload = json.loads(text)
    what = f"measures {f_spec} / {g_spec}"
    p.require(f"{what}: echoed specs {payload['f']} / {payload['g']}",
              ref.parse_spec(payload["f"]) == ref.parse_spec(f_spec)
              and ref.parse_spec(payload["g"]) == ref.parse_spec(g_spec))
    got = {m["measure"]: m["value"] for m in payload["measures"]}
    want = ref.parametric_measures(f_spec, g_spec)
    p.require(f"{what}: measures {sorted(got)}", sorted(got) == sorted(want))
    for name, value in want.items():
        if name in got:
            p.close(f"{what} {name}", got[name], value)
    if {"K", "I", "H"} <= set(got):
        p.close(f"{what} K = I - H", got["K"], got["I"] - got["H"], MEASURE_TOL)


def check_sample(p: Problems, draws, kde: ref.LogKDE, fitted_w2, n_expected):
    x = np.asarray(draws, dtype=float)
    lo, hi = kde.support
    p.require(f"sample: {x.size} draws, expected {n_expected}", x.size == n_expected)
    p.require("sample: draws outside the support", bool(np.all((x > lo) & (x < hi))))
    pvalue = ref.ks_pvalue(x, kde.cdf)
    p.require(f"sample: KS p-value {pvalue:.3g} < {KS_LEVEL:g}", pvalue >= KS_LEVEL)
    if fitted_w2 is not None:
        k, var_k = kde.kl_moments("w2", fitted_w2)
        mc = float(np.mean(kde.log_pdf(x) - ref.log_pdf("w2", fitted_w2, x)))
        se = math.sqrt(var_k / x.size)
        p.require(
            f"sample: Monte-Carlo K {mc:.6g} is {abs(mc - k) / se:.2f} standard errors from {k:.6g}",
            abs(mc - k) <= MC_SIGMAS * se,
        )


def check(plan: dict, outputs: list) -> list[str]:
    """Problems with the outputs of one pass of a workload (None = failed op)."""
    p = Problems()
    name = plan["workload"]
    ops = plan["ops"]
    if name == "paper":
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            argv = op["argv"]
            if argv[0] == "reproduce":
                check_reproduce(p, out)
            elif argv[0] == "curves":
                check_curves(p, argv, out)
            elif argv[0] == "bounds":
                check_bounds(p, argv, out)
            elif "--discrete" in argv:
                check_fit_discrete(p, "fit coin3", json.loads(out), COIN3)
            else:
                murthy = ref.LogKDE(MURTHY41, ref.robust_log_bandwidth(MURTHY41))
                check_fit_continuous(p, "fit murthy41", json.loads(out), MURTHY41, murthy)
    elif name == "parametric":
        for (f_spec, g_spec), out in zip(plan["pairs"], outputs):
            if out is not None:
                check_measures(p, f_spec, g_spec, out)
    elif name == "kde-large":
        data = np.loadtxt(plan["data"])
        kde = ref.LogKDE(data, ref.robust_log_bandwidth(data))
        fitted_w2 = None
        if outputs[0] is not None:
            fitted_w2 = check_fit_continuous(p, "fit kde-large", json.loads(outputs[0]), data, kde)
        if outputs[1] is not None:
            check_sample(p, outputs[1], kde, fitted_w2, ops[1]["n"])
    else:
        p.append(f"unknown workload {name!r}")
    return list(p)
