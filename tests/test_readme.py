"""README's library quick start runs as written and gives what its comments say."""

import math
import re
import warnings
from pathlib import Path

from varidx import chebyshev_bound

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_matches_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    ns = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(block, str(README), "exec"), ns)
    m, fit, report = ns["m"], ns["fit"], ns["report"]
    assert m.K.method == "closed_form"
    assert (round(m.K.value, 4), round(m.VarK.value, 3)) == (0.2614, 2.290)
    assert (round(fit.params[0], 4), round(fit.params[1], 4)) == (1.5487, 0.0166)
    assert report.ranking[0].label == "alternative"
    bounds = chebyshev_bound(ns["f"], ns["g"], eps=[0.5, 1, 2])
    assert isinstance(bounds, list) and len(bounds) == 3
    assert all(math.isfinite(b.bound_value) for b in bounds)
