"""Variance-reduced gradient estimators and server-side adaptive matrices.

The recursive estimator keeps a running gradient estimate d and, given one
fresh sample evaluated at both the new and the old iterate, updates

    d' = g_new + (1 - momentum) * (d - g_old).

momentum = 1 recovers the plain stochastic gradient.

The server generates both diagonal preconditioners by one rule on the
averaged estimates of (x, y) taken as one vector (AdaptiveAccumulator); a
diagonal matrix is the 1-D array of its entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Vector

MODE_IDENTITY = "identity"
MODE_ADAM = "adam"
MODE_ADABELIEF = "adabelief"
MODES = (MODE_IDENTITY, MODE_ADAM, MODE_ADABELIEF)


def storm_update(g_new: Vector, g_old: Vector, prev_est: Vector, momentum: float) -> Vector:
    """One recursive variance-reduced estimator step. The momentum lies in
    (0, 1]: HyperParams.schedule checks every value a run uses, once."""
    return g_new + (1.0 - momentum) * (prev_est - g_old)


def momentum_schedule(c1: float, c2: float, eta_t: float) -> tuple[float, float]:
    """Momentum pair (alpha, beta) = (c1 * eta^2, c2 * eta^2), clamped to 1.

    Validated configurations keep both products at or below 1; the clamp
    only protects unvalidated ones. HyperParams checks c1 and c2, and
    HyperParams.schedule every eta_t and pair a run uses.
    """
    return min(1.0, c1 * eta_t**2), min(1.0, c2 * eta_t**2)


@dataclass
class AdaptiveAccumulator:
    """The server: one second moment m over (x, y), the adabelief reference
    ref and the current diagonals A (x side) and B (y side). rho floors
    every emitted entry; varrho is the moment decay. ref is zero until an
    adabelief generation sets it, so a first call is the adam rule.
    """

    mode: str = MODE_IDENTITY
    rho: float = 0.01
    varrho: float = 0.9
    m: Vector | None = None
    ref: Vector | float = 0.0
    A: Vector | None = None
    B: Vector | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0.0 < self.varrho <= 1.0:
            raise ValueError("varrho must lie in (0, 1]")

    def generate(self, w_bar: Vector, v_bar: Vector, varrho: float | None = None) -> tuple[Vector, Vector]:
        """Produce the diagonals (A, B) for the next window and keep them.
        For g = (w_bar, v_bar): m <- r*m + (1-r)*(g - ref)^2 in place, with
        r = varrho (the configured decay when None), and (A, B) =
        sqrt(m) + rho split at len(w_bar). Identity mode keeps the ones of
        its first call."""
        if self.mode == MODE_IDENTITY:
            if self.A is None:
                self.A, self.B = np.ones_like(w_bar), np.ones_like(v_bar)
            return self.A, self.B
        g = np.concatenate((w_bar, v_bar))
        r = self.varrho if varrho is None else varrho
        if self.m is None:
            self.m = np.zeros_like(g)
        self.m *= r
        self.m += (1.0 - r) * (g - self.ref) ** 2
        if self.mode == MODE_ADABELIEF:
            self.ref = g
        diag = np.sqrt(self.m) + self.rho
        if diag.min() < self.rho:
            raise AssertionError("adaptive matrix violated its entry floor")
        self.A, self.B = diag[:len(w_bar)], diag[len(w_bar):]
        return self.A, self.B
