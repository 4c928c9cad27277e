"""Command-line front end.

Subcommands
-----------
measures    divergence and dispersion measures between two named laws
curves      CSV of inaccuracy/varinaccuracy along a parameter grid
bounds      CSV of varinaccuracy with its lower-bound curves
fit         fit candidates to data, compare by K/VarK, rank
reproduce   recompute pinned reference values and diff against them

Exit codes: 0 success, 1 reproduce mismatch, 2 parse error,
3 computation error, 4 I/O error.  Data goes to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import datasets, errors
from .bounds import _generic_bounds, exp_pair_bound, uniform_power_bound
from .distributions import (
    _FAMILIES,
    _kind,
    Exponential,
    Power,
    SampleData,
    Uniform,
    Weibull2,
    make_distribution,
    make_pmf,
)
from .errors import SpecParseError
from .estimation import fit_binomial_p, fit_lognormal_mle, fit_weibull_mle, kde
from .measures import info_moments, kl, var_kl

# Not called here; bench/tracing.py wraps these names on this module.
from .bounds import chebyshev_bound  # noqa: F401
from .measures import (  # noqa: F401
    entropy,
    entropy_pmf,
    inaccuracy,
    inaccuracy_pmf,
    kl_pmf,
    var_kl_pmf,
    varentropy,
    varentropy_pmf,
    varinaccuracy,
    varinaccuracy_pmf,
)
from .selection import prefer_auto, rank

@dataclass(frozen=True)
class DistSpec:
    """Parsed textual spec ``family:p1,p2`` with a canonical form."""

    family: str
    params: tuple

    @property
    def kind(self) -> str:
        return _kind(self.family)

    def format(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(repr(float(p)) for p in self.params)

    def to_distribution(self):
        build = make_distribution if self.kind == "continuous" else make_pmf
        return build(self.family, self.params)


def parse_dist_spec(text: str) -> DistSpec:
    """Parse ``family[:p1,p2,...]``, annotating errors with position; the
    spec keeps the printed spelling of any spelling in ``_FAMILIES``."""
    head, sep, tail = text.partition(":")
    entry = _FAMILIES.get(head.strip().lower())
    if entry is None:
        raise SpecParseError(
            f"unknown family '{head}' at position 0 in '{text}'", position=0
        )
    family, _, arity = entry
    if not sep:
        return DistSpec(family, ())
    params = []
    offset = len(head) + 1
    for piece in tail.split(","):
        try:
            params.append(float(piece))
        except ValueError:
            raise SpecParseError(
                f"invalid numeric parameter '{piece}' at position {offset} "
                f"in '{text}'",
                position=offset,
            ) from None
        offset += len(piece) + 1
    if len(params) != arity:
        raise SpecParseError(
            f"family '{family}' takes {arity} parameter(s), got {len(params)} "
            f"in '{text}'"
        )
    return DistSpec(family, tuple(params))


def _parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:step`` (inclusive), or a single value v as ``v:v:1``."""
    parts = text.split(":") if ":" in text else [text, text, "1"]
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise SpecParseError(
            f"grid must be 'start:stop:step' or a single number, got '{text}'"
        ) from None
    if step <= 0 or stop < start:
        raise SpecParseError(f"grid '{text}' must have step > 0 and stop >= start")
    steps = (stop - start) / step
    # At most 10^6 steps, where README's largest grid takes 79; a nan or
    # an infinite end fails this test too.
    if not (steps <= 1e6 and math.isfinite(step)):
        raise SpecParseError(f"grid '{text}' must be finite and take at most 10^6 steps")
    count = int(math.floor(steps + 1e-9)) + 1
    return start + step * np.arange(count)


def _parse_float_list(text: str, what: str) -> list[float]:
    out = []
    for piece in text.split(","):
        try:
            out.append(float(piece))
        except ValueError:
            raise SpecParseError(f"invalid {what} value '{piece}'") from None
    if not out:
        raise SpecParseError(f"empty {what} list")
    return out


_COMMENT = re.compile(r"#[^\n]*")


def _load_values(source: str) -> list[float]:
    """Numbers from a bundled dataset or a text file.

    Files hold one value per line or comma/whitespace separated values;
    ``#`` starts a comment.  The file is parsed in one pass; a file with
    a malformed number is read again line by line, so the error names
    the number's line.
    """
    if source in datasets.names():
        return [float(v) for v in datasets.load(source)]
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise SpecParseError(f"{source}: not UTF-8 text") from None
    try:
        values = list(map(float, _COMMENT.sub("", text).replace(",", " ").split()))
    except ValueError:
        # Universal newlines end every line at "\n", as readlines does.
        for lineno, line in enumerate(text.split("\n"), start=1):
            for token in line.split("#", 1)[0].replace(",", " ").split():
                try:
                    float(token)
                except ValueError:
                    raise SpecParseError(
                        f"{source}:{lineno}: malformed number '{token}'"
                    ) from None
        raise
    if not values:
        raise SpecParseError(f"{source}: no numeric data found")
    return values


def _fmt(value: float, precision: int) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{precision}g}"


def _json(payload) -> str:
    """Strict JSON: infinities are written "inf"/"-inf", as in text output."""

    def encode(v):
        if isinstance(v, float) and math.isinf(v):
            return _fmt(v, 0)
        if isinstance(v, dict):
            return {k: encode(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [encode(x) for x in v]
        return v

    return json.dumps(encode(payload), allow_nan=False)


def _emit(text: str, out_path: str | None):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------

def _measure_records(fd, gd):
    record = info_moments(fd, gd)
    rows = []
    for name in ("H", "VarH", "I", "VarI", "K", "VarK"):
        mv = getattr(record, name)
        rows.append(
            {
                "measure": name,
                "value": mv.value,
                "method": mv.method,
                "abs_error": mv.abs_error_estimate,
            }
        )
    return rows


def cmd_measures(args) -> int:
    fspec = parse_dist_spec(args.f)
    gspec = parse_dist_spec(args.g)
    if not fspec.params or not gspec.params:
        raise SpecParseError("measures needs fully parameterized specs")
    if fspec.kind != gspec.kind:
        raise SpecParseError(
            f"specs must be of matching kind; got {fspec.kind} vs {gspec.kind}"
        )
    records = _measure_records(fspec.to_distribution(), gspec.to_distribution())
    if args.json:
        payload = {"f": fspec.format(), "g": gspec.format(), "measures": records}
        print(_json(payload))
        return 0
    width = max(len(r["measure"]) for r in records)
    print(f"f = {fspec.format()}   g = {gspec.format()}")
    for r in records:
        print(
            f"{r['measure']:<{width}}  {_fmt(r['value'], args.precision):>14}"
            f"  {r['method']:<12} abs_err={_fmt(r['abs_error'], 3)}"
        )
    return 0


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------

def cmd_curves(args) -> int:
    grid = _parse_grid(args.grid)
    if args.pair == "exp":
        lams = _parse_float_list(args.lambdas, "lambda")
        header = ["eta"]
        columns = []
        gs = [Exponential(eta) for eta in grid]
        for lam in lams:
            header += [f"I_lambda={lam:g}", f"VarI_lambda={lam:g}"]
            records = info_moments(Exponential(lam), gs)
            columns += [[r.I.value for r in records], [r.VarI.value for r in records]]
        rows = [[float(eta), *row] for eta, *row in zip(grid, *columns)]
    else:
        header = ["alpha", "I", "VarI"]
        records = info_moments(Uniform(0.0, 1.0), [Power(alpha) for alpha in grid])
        rows = [[float(alpha), r.I.value, r.VarI.value] for alpha, r in zip(grid, records)]
    _emit(_csv(header, rows), args.out)
    return 0


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def _bound_grid(f, gs, eps_list):
    """VarI of (f, g) and its generic bounds at every margin, per g, from
    one record per g."""
    records = info_moments(f, gs)
    bounds = _generic_bounds(f, gs, eps_list, [r.I.value for r in records])
    return [(r.VarI.value, b) for r, b in zip(records, bounds)]


def cmd_bounds(args) -> int:
    grid = _parse_grid(args.grid)
    eps_list = _parse_float_list(args.eps, "eps")
    if args.pair == "exp":
        header = ["eta"]
        f, gs = Exponential(args.lam), [Exponential(eta) for eta in grid]
    else:
        header = ["alpha"]
        f, gs = Uniform(0.0, 1.0), [Power(alpha) for alpha in grid]
    header += ["VarI"] + [f"bound_eps={e:g}" for e in eps_list]
    rows = [
        [float(x), vi] + [b.bound_value for b in bounds]
        for x, (vi, bounds) in zip(grid, _bound_grid(f, gs, eps_list))
    ]
    _emit(_csv(header, rows), args.out)
    return 0


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

# The fitters of bare names.  Each looks its function up in this module
# when it is called, so a wrapper later set on that name sees the call.
_FITTERS = {
    "w2": lambda sample: fit_weibull_mle(sample),
    "lognormal": lambda sample: fit_lognormal_mle(sample),
    "binomial": lambda counts: fit_binomial_p(counts, len(counts) - 1),
}


def _resolve_candidate(spec: DistSpec, data):
    """Resolve a candidate spec into (label, law, fitted, fit_info).

    ``data`` is the SampleData of a continuous fit or the count list of a
    discrete one; bare ``w2``/``lognormal``/``binomial`` are fitted to it.
    """
    if spec.params:
        return spec.format(), spec.to_distribution(), False, None
    if spec.family not in _FITTERS:
        raise errors.InvalidParameterError(
            f"no fitter for bare family '{spec.family}'; give explicit parameters"
        )
    fit = _FITTERS[spec.family](data)
    fitted = DistSpec(spec.family, fit.params)
    return fitted.format(), fitted.to_distribution(), True, asdict(fit)


def cmd_fit(args) -> int:
    values = _load_values(args.data)
    if len(values) < 2:
        raise SpecParseError(f"{args.data}: need at least 2 observations")
    specs = [parse_dist_spec(c) for c in args.candidates]

    if args.discrete:
        if not all(math.isfinite(v) and v == int(v) and v >= 0 for v in values):
            raise SpecParseError(
                f"{args.data}: discrete mode expects nonnegative integer counts"
            )
        fit_data = values
        reference = make_pmf("empirical", values)
        ref_desc = {"kind": "empirical", "counts": [int(v) for v in values]}
        bad_kind = "continuous"
    else:
        fit_data = SampleData(values)
        reference = kde(fit_data, args.bandwidth)
        ref_desc = {
            "kind": "kde",
            "n": fit_data.n,
            "bandwidth": reference.bandwidth,
            "support": list(reference.support),
        }
        bad_kind = "discrete"

    entries = []
    failures = []
    for spec in specs:
        if spec.kind == bad_kind:
            raise SpecParseError(
                f"candidate '{spec.format()}' does not match the data kind"
            )
        try:
            label, dist, fitted, info = _resolve_candidate(spec, fit_data)
        except errors.Error as exc:
            failures.append({"spec": spec.format(), "error": str(exc)})
            continue
        entries.append((label, dist, fitted, info))

    if not entries:
        raise errors.NoValidCandidatesError(
            "every candidate failed to fit: "
            + "; ".join(f"{rec['spec']}: {rec['error']}" for rec in failures)
        )
    report = rank(reference, [(label, dist) for label, dist, _, _ in entries])

    fitted_by_label = {label: (fitted, info) for label, _, fitted, info in entries}
    cand_records = []
    for cand in report.ranking + [c for c, _ in report.disqualified]:
        fitted, info = fitted_by_label[cand.label]
        cand_records.append(
            {
                "label": cand.label,
                "fitted": fitted,
                "fit": info,
                "K": cand.K.value,
                "VarK": cand.VarK.value,
                "method": cand.K.method,
            }
        )
    payload = {
        "reference": ref_desc,
        "candidates": cand_records,
        "decisions": [asdict(d) for d in report.decisions],
        "ranking": [c.label for c in report.ranking],
        "disqualified": [
            {"label": c.label, "reason": reason} for c, reason in report.disqualified
        ],
        "failures": failures,
    }
    if args.json:
        print(_json(payload))
        return 0

    p = args.precision
    if args.discrete:
        print(f"reference: empirical pmf of {args.data} (counts {values})")
    else:
        print(
            f"reference: kde of {args.data} "
            f"(n={ref_desc['n']}, bandwidth={_fmt(ref_desc['bandwidth'], p)})"
        )
    print()
    width = max(len(r["label"]) for r in cand_records)
    print(f"{'candidate':<{width}}  {'K':>12}  {'VarK':>12}")
    for r in cand_records:
        mark = " (fitted)" if r["fitted"] else ""
        print(
            f"{r['label']:<{width}}  {_fmt(r['K'], p):>12}  "
            f"{_fmt(r['VarK'], p):>12}{mark}"
        )
    if report.decisions:
        print()
        print("decisions:")
        for d in report.decisions:
            extra = (
                "exact match"
                if d.exact_match
                else f"criterion={_fmt(d.criterion_value, p)}"
            )
            print(f"  {d.first} vs {d.second} -> {d.winner}  ({extra})")
    for c, reason in report.disqualified:
        print(f"disqualified: {c.label} ({reason})")
    for rec in failures:
        print(f"fit failed: {rec['spec']} ({rec['error']})")
    print()
    print(f"selected: {report.ranking[0].label}")
    return 0


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: float
    actual: float
    tol: float

    @property
    def ok(self) -> bool:
        return abs(self.actual - self.expected) <= self.tol


def _bool_row(name: str, condition: bool) -> CheckRow:
    return CheckRow(name, 1.0, 1.0 if condition else 0.0, 0.0)


def _route_rows(name: str, f, g, expected: dict[str, float]) -> list[CheckRow]:
    """One row per field of ``expected``, by closed form and then by
    quadrature, each against its expected value."""
    rows = []
    for label, method, tol in (("closed", "auto", 1e-9), ("quadrature", "quadrature", 1e-7)):
        record = info_moments(f, g, method=method)
        for field, want in expected.items():
            rows.append(
                CheckRow(f"{field}({name}) {label}", want, getattr(record, field).value, tol)
            )
    return rows


def _target_example23() -> list[CheckRow]:
    return _route_rows(
        "exp1, exp2", Exponential(1.0), Exponential(2.0), {"I": 2.0 - math.log(2.0), "VarI": 4.0}
    )


def _target_example24() -> list[CheckRow]:
    return _route_rows(
        "unif, power2", Uniform(0.0, 1.0), Power(2.0), {"I": 1.0 - math.log(2.0), "VarI": 1.0}
    )


def _target_remark33() -> list[CheckRow]:
    f, g, h = Power(0.5), Power(3.0), Power(2.0)
    rows = []
    for name, a, b, expect in [
        ("power.5 : power3", f, g, 25.0),
        ("power.5 : power2", f, h, 9.0),
        ("power2 : power3", h, g, 0.25),
    ]:
        rows += _route_rows(name, a, b, {"VarK": expect})
    vk = var_kl(f, g).value
    rows.append(
        _bool_row("triangle inequality fails (25 > 9 + 0.25)", vk > 9.0 + 0.25)
    )
    return rows


def _target_table2() -> list[CheckRow]:
    emp = make_pmf("empirical", datasets.COIN3)
    cells = [
        ("binomial", make_pmf("binomial", (3, 0.55)), 0.0011, 0.0023),
        ("beta-binomial", make_pmf("beta_binomial", (3, 12, 10)), 0.0027, 0.0054),
        ("uniform", make_pmf("discrete_uniform", (4,)), 0.1305, 0.2253),
    ]
    rows = []
    for name, q, k_exp, v_exp in cells:
        record = info_moments(emp, q)
        rows.append(CheckRow(f"K vs {name}", k_exp, record.K.value, 5e-5))
        rows.append(CheckRow(f"VarK vs {name}", v_exp, record.VarK.value, 5e-5))
    return rows


def _target_example41() -> list[CheckRow]:
    fit = fit_binomial_p(list(datasets.COIN3), 3)
    return [CheckRow("binomial p-hat (330/600)", 0.55, fit.params[1], 1e-12)]


def _target_example42() -> list[CheckRow]:
    data = SampleData(datasets.MURTHY41)
    fit = fit_weibull_mle(data)
    shape, rate = fit.params
    f = kde(data)
    k_val = kl(f, Weibull2(shape, rate)).value
    return [
        CheckRow("weibull shape rel. error", 0.0, abs(shape - 1.5487) / 1.5487, 0.01),
        CheckRow("weibull rate rel. error", 0.0, abs(rate - 0.0166) / 0.0166, 0.01),
        CheckRow("K(kde, fitted W2) near 0.0990", 0.0990, k_val, 0.02),
    ]


def _target_example43() -> list[CheckRow]:
    data = SampleData(datasets.MURTHY41)
    f = kde(data)
    labels = ("w2:1.5487,0.0166", "w2:1.6,0.0127")
    laws = (Weibull2(1.5487, 0.0166), Weibull2(1.6, 0.0127))
    report = rank(f, list(zip(labels, laws)))
    by_label = {c.label: c for c in report.ranking}
    c1, c2 = (by_label[label] for label in labels)
    k1, k2 = c1.K.value, c2.K.value
    v1, v2 = c1.VarK.value, c2.VarK.value
    return [
        CheckRow("K(kde, g1) near 0.0990", 0.0990, k1, 0.02),
        CheckRow("|K(kde,g1) - K(kde,g2)|", 0.0, abs(k1 - k2), 0.01),
        _bool_row("VarK(kde,g1) > VarK(kde,g2)", v1 > v2),
        _bool_row("selection picks w2:1.6,0.0127", report.ranking[0].label == "w2:1.6,0.0127"),
    ]


def _target_example44() -> list[CheckRow]:
    from .measures import MeasureValue
    from .selection import Candidate

    c1 = Candidate(
        "weibull", None, MeasureValue(0.0381, "summation"), MeasureValue(0.1148, "summation")
    )
    c2 = Candidate(
        "lognormal", None, MeasureValue(0.0420, "summation"), MeasureValue(0.0924, "summation")
    )
    winner, decision = prefer_auto(c1, c2)
    return [
        _bool_row("criterion value negative", decision.criterion_value < 0.0),
        _bool_row("lognormal candidate selected", winner.label == "lognormal"),
    ]


def _target_bounds_figs() -> list[CheckRow]:
    eps_grid = [0.5, 1.0, 1.5, 2.0]
    worst_dom = -math.inf
    worst_diff = 0.0
    for f, family, closed, grid in [
        (Exponential(4.0), Exponential, lambda eta, e: exp_pair_bound(4.0, eta, e),
         np.arange(0.5, 8.01, 0.5)),
        (Uniform(0.0, 1.0), Power, uniform_power_bound, np.arange(1.25, 5.01, 0.25)),
    ]:
        xs = [float(x) for x in grid]
        for x, (vi, bounds) in zip(xs, _bound_grid(f, [family(x) for x in xs], eps_grid)):
            for gb in bounds:
                cb = closed(x, gb.epsilon)
                worst_dom = max(worst_dom, gb.bound_value - vi)
                worst_diff = max(worst_diff, abs(gb.bound_value - cb.bound_value))
    return [
        CheckRow("max(bound - VarI) over grids", 0.0, max(worst_dom, 0.0), 1e-7),
        CheckRow("max |generic - closed form|", 0.0, worst_diff, 1e-9),
    ]


_TARGETS = {
    "example23": _target_example23,
    "example24": _target_example24,
    "remark33": _target_remark33,
    "table2": _target_table2,
    "example41": _target_example41,
    "example42": _target_example42,
    "example43": _target_example43,
    "example44": _target_example44,
    "bounds_figs": _target_bounds_figs,
}


def cmd_reproduce(args) -> int:
    names = list(_TARGETS) if args.target == "all" else [args.target]
    any_fail = False
    for name in names:
        rows = _TARGETS[name]()
        print(f"[{name}]")
        for row in rows:
            status = "PASS" if row.ok else "FAIL"
            any_fail = any_fail or not row.ok
            print(
                f"  {status}  {row.name}: expected {row.expected:.10g} "
                f"got {row.actual:.10g} (tol {row.tol:g})"
            )
    return 1 if any_fail else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _precision(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got '{text}'")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varidx",
        description="Dispersion indices of uncertainty measures "
        "(inaccuracy, divergence, and their variances).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="measures between two laws")
    p.add_argument("--f", required=True, help="reference law, e.g. exp:1")
    p.add_argument("--g", required=True, help="hypothesized law, e.g. exp:2")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--precision", type=_precision, default=6, help="significant digits"
    )
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("curves", help="I/VarI curves as CSV")
    p.add_argument("--pair", choices=("exp", "power"), required=True)
    p.add_argument(
        "--lambdas", default="1,2,3,4", help="rates of f for the exp pair"
    )
    p.add_argument("--grid", required=True, help="parameter grid start:stop:step")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("bounds", help="VarI with lower-bound curves as CSV")
    p.add_argument("--pair", choices=("exp", "power"), required=True)
    p.add_argument("--lam", type=float, default=4.0, help="rate of f (exp pair)")
    p.add_argument("--eps", default="0.5,1,1.5,2", help="margin values")
    p.add_argument("--grid", required=True, help="parameter grid start:stop:step")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fit", help="fit candidates to data and rank them")
    p.add_argument(
        "--data",
        required=True,
        help=f"dataset name ({', '.join(datasets.names())}) or file path",
    )
    p.add_argument(
        "--candidates",
        nargs="+",
        required=True,
        help="candidate specs; bare 'w2'/'lognormal'/'binomial' are fitted",
    )
    p.add_argument("--discrete", action="store_true", help="treat data as counts")
    p.add_argument("--bandwidth", type=float, default=None, help="kde bandwidth")
    p.add_argument("--json", action="store_true")
    p.add_argument("--precision", type=_precision, default=6)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="recompute pinned reference values")
    p.add_argument("target", choices=sorted(_TARGETS) + ["all"])
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
