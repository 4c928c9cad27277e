"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import numpy as np
import pytest

from varidx import quadrature
from varidx.distributions import Density


@pytest.fixture
def cdf_calls(monkeypatch):
    """The size of the argument of each `Density.cdf` call the test makes,
    in call order."""
    calls = []
    cdf = Density.cdf

    def counted(self, x):
        calls.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(Density, "cdf", counted)
    return calls


@pytest.fixture
def quadratures(monkeypatch):
    """One record per `quadrature._integrate_vector` call the test makes,
    in call order: its ``integrand``, the node count of each call of the
    integrand (``sizes``) and its panel count (``panels``, None until it
    returns).  A record is appended before its quadrature runs, so one
    that raises is counted too."""
    records = []
    inner = quadrature._integrate_vector

    def counted(h, *args):
        record = SimpleNamespace(integrand=h, sizes=[], panels=None)
        records.append(record)

        def h_counted(x):
            record.sizes.append(x.size)
            return h(x)

        value, error, record.panels = inner(h_counted, *args)
        return value, error, record.panels

    monkeypatch.setattr(quadrature, "_integrate_vector", counted)
    return records
