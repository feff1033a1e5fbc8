"""Shared test helpers: brute-force reference solvers and fixtures.

The brute-force references now live in :mod:`repro.verify.differential`
(so benchmarks and the ``python -m repro.verify`` CLI can reuse them);
they are re-exported here for the test suite's historical import path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify.differential import (  # noqa: F401  (re-exports)
    brute_force_binary_mip,
    brute_force_misdp,
    brute_force_steiner,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def failing_highs(monkeypatch):
    """Make HiGHS handles report a solve error: ``failing_highs(n)`` arms
    the next ``n`` solves (of any handle created afterwards) to end with
    model status ``kSolveError``; later solves are untouched."""
    from repro.lp.scipy_backend import highs_binding

    core = highs_binding()
    remaining = {"n": 0}

    class Failing(core._Highs):
        def getModelStatus(self):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                return core.HighsModelStatus.kSolveError
            return super().getModelStatus()

    monkeypatch.setattr(core, "_Highs", Failing)

    def arm(n: int = 1) -> None:
        remaining["n"] = n

    return arm
