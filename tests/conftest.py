"""Shared fixtures and independent numeric oracles.

The finite-difference and inner-maximization helpers here are deliberately
written against the value oracles only, so they stay independent of the
analytic gradient paths they are used to check.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

import fedminimax as fm


def fd_grad(fn, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(z, dtype=float)
    for i in range(len(z)):
        e = np.zeros_like(z, dtype=float)
        e[i] = h
        g[i] = (fn(z + e) - fn(z - e)) / (2.0 * h)
    return g


def numeric_inner_max(inst, x: np.ndarray) -> float:
    """max over y of the averaged objective, found numerically."""
    if inst.p == 1:
        res = minimize_scalar(lambda a: -inst.global_value(x, np.array([a])), bounds=(-50, 50), method="bounded")
        return -res.fun
    res = minimize(lambda y: -inst.global_value(x, y), np.zeros(inst.p), method="L-BFGS-B")
    return -res.fun


def same_bits_or_both_nan(a, b):
    """Equal bits where either is a number; any NaN against any NaN.

    Of two NaN operands, numpy's add and multiply pass the first in some
    SIMD lanes and the second in others (on an AVX-512 build of numpy 2.4,
    12 -NaN + 12 +NaN give eight -NaN, then four +NaN), so a - c m and the
    branch-free a + c (-m), or a + b and b + a, may pass different NaNs
    when both terms are NaN."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and bool(((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))).all())


# Signed zeros, infinities, NaNs of both signs and +-1e300.
EDGE_ENTRIES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300])


def edge_rows(rng, shape, share=0.15):
    """Normal rows at a random scale, about share of their entries drawn
    from EDGE_ENTRIES."""
    A = 10.0 ** rng.integers(-3, 7) * rng.standard_normal(shape)
    hit = rng.random(shape) < share
    A[hit] = rng.choice(EDGE_ENTRIES, size=int(hit.sum()))
    return A


@pytest.fixture(scope="session")
def synthetic():
    return fm.SyntheticProblem(K=10, dim=20, s=1.0, tau=10.0, seed=42)


@pytest.fixture(scope="session")
def synthetic_small():
    return fm.SyntheticProblem(K=4, dim=6, s=1.0, tau=10.0, seed=7, n_per_client=25)


@pytest.fixture(scope="session")
def auc_inst():
    return fm.AucProblem(K=6, dim=8, n_per_client=30, pos_ratio=0.05, seed=11)


@pytest.fixture(scope="session")
def robust_inst():
    return fm.RobustProblem(K=6, dim=10, n_per_client=30, seed=11)
