"""The benchmark's workloads: seeded lists of operations.

An operation is either a CLI call, ``{"kind": "cli", "argv": [...]}``,
run as ``varidx.cli.main(argv)`` with stdout captured, or a library
call, ``{"kind": "sample", "data": path, "n": draws, "seed": s}``, run as
``varidx.sample(varidx.kde(varidx.SampleData(values)), n, s)``.  The
benchmark seed reaches the program only through these inputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

NAMES = ("paper", "parametric", "kde-large")

# Weibull law of the murthy41 fit (shape, rate) that generates kde-large.
KDE_LARGE_LAW = (1.5487, 0.0166)
KDE_LARGE_N = 10_000
KDE_LARGE_DRAWS = 2000
# The paper's alternative law for murthy41, used as the fixed candidate.
FIXED_W2 = "w2:1.6,0.0127"

PAPER_OPS = [
    ["reproduce", "all"],
    ["curves", "--pair", "exp", "--grid", "0.1:8:0.1"],
    ["curves", "--pair", "power", "--grid", "0.2:4:0.1"],
    ["bounds", "--pair", "exp", "--grid", "0.5:8:0.25"],
    ["bounds", "--pair", "power", "--grid", "1.25:5:0.25"],
    ["fit", "--data", "murthy41", "--candidates", "w2", "lognormal", FIXED_W2, "--json"],
    ["fit", "--data", "coin3", "--discrete", "--candidates", "binomial", "betabin:3,12,10", "dunif:4", "--json"],
]

_FAMILIES = ("exp", "w2", "lognormal")
# exp/exp is the only closed-form cell among these families.
_COMBOS = [(f, g) for f in _FAMILIES for g in _FAMILIES if (f, g) != ("exp", "exp")]
PAIRS_PER_COMBO = 3
# Levels (0, 1, 2 = lower, middle, upper third of (0, 1)) of the four
# uniforms behind a pair (f scale, f shape, g scale, g shape): the L9
# orthogonal array, rows (a, b, a + b, a + 2b) mod 3, in which any two
# of the four uniforms meet in each of the 9 level pairings once.
_L9 = [(a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)]
# Pair i of the 24 takes row i mod 9.
LEVELS = [_L9[i % len(_L9)] for i in range(PAIRS_PER_COMBO * len(_COMBOS))]
# The corner of high lognormal sigma and high Weibull shape, where one
# pair needs about 20 times the panels of a typical pair: run in every
# pass, the same for every seed.
CORNER_PAIR = ("lognormal:1.28,1.191", "w2:2.68,0.145")


def _spec(family: str, u_scale: float, u_shape: float) -> str:
    """Spec with typical scale e^U(-1, 3), Weibull shape in [1, 3] and
    lognormal sigma in [0.3, 1.2]."""
    scale = math.exp(-1.0 + 4.0 * u_scale)
    if family == "exp":
        return f"exp:{1.0 / scale!r}"
    if family == "w2":
        shape = 1.0 + 2.0 * u_shape
        return f"w2:{shape!r},{scale ** -shape!r}"
    sigma = 0.3 + 0.9 * u_shape
    return f"lognormal:{math.log(scale)!r},{sigma!r}"


def parametric_pairs(seed: int) -> list[tuple[str, str]]:
    """24 seeded (f, g) specs, 3 per family combination, then CORNER_PAIR.

    Pair i takes its four levels from LEVELS, row i mod 9 of L9, so
    over the 24 pairs any two uniforms meet in every level pairing at
    least twice, and the seed draws each uniform uniformly within the
    third its level names.  The mix of cheap and costly pairs is thus
    nearly the same for every seed, while the seed changes every
    parameter and every point of the parameter box can be drawn.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for c, (f_fam, g_fam) in enumerate(_COMBOS):
        for k in range(PAIRS_PER_COMBO):
            levels = LEVELS[PAIRS_PER_COMBO * c + k]
            fu, fs, gu, gs = ((lv + float(rng.random())) / 3.0 for lv in levels)
            pairs.append((_spec(f_fam, fu, fs), _spec(g_fam, gu, gs)))
    pairs.append(CORNER_PAIR)
    return pairs


def kde_large_data(seed: int) -> np.ndarray:
    """One Weibull draw per probability stratum (i + U_i) / (n + 2), i = 1..n."""
    shape, rate = KDE_LARGE_LAW
    rng = np.random.default_rng(seed)
    u = (np.arange(1, KDE_LARGE_N + 1) + rng.random(KDE_LARGE_N)) / (KDE_LARGE_N + 2)
    return (-np.log1p(-u) / rate) ** (1.0 / shape)


def build(name: str, seed: int, out_dir: str) -> dict:
    """Plan of one workload: its operations and the inputs they read."""
    if name == "paper":
        return {"workload": name, "ops": [{"kind": "cli", "argv": argv} for argv in PAPER_OPS]}
    if name == "parametric":
        pairs = parametric_pairs(seed)
        ops = [
            {"kind": "cli", "argv": ["measures", "--f", f, "--g", g, "--json"]}
            for f, g in pairs
        ]
        return {"workload": name, "ops": ops, "pairs": pairs}
    if name == "kde-large":
        data = kde_large_data(seed)
        path = os.path.join(out_dir, f"kde-large-seed{seed}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(repr(float(v)) for v in data) + "\n")
        ops = [
            {"kind": "cli", "argv": ["fit", "--data", path, "--candidates", "w2", "lognormal", FIXED_W2, "--json"]},
            {"kind": "sample", "data": path, "n": KDE_LARGE_DRAWS, "seed": seed},
        ]
        return {"workload": name, "ops": ops, "data": path}
    raise ValueError(f"unknown workload {name!r}")
