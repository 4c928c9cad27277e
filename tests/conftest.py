"""Fixtures shared by the test modules."""

import numpy as np
import pytest

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
