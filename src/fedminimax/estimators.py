"""Variance-reduced gradient estimators and server-side adaptive matrices.

The recursive estimator keeps a running gradient estimate d and, given one
fresh sample evaluated at both the new and the old iterate, updates

    d' = g_new + (1 - momentum) * (d - g_old).

momentum = 1 recovers the plain stochastic gradient.

The server generates diagonal preconditioners from the averaged estimates
by one rule, accumulated squared innovations against a reference: zero in
adam mode (so squared gradients), the previous synchronization's averages
in adabelief mode. A diagonal matrix is the 1-D array of its entries;
every emitted entry is at least rho, asserted once where it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Second-moment state behind the server's diagonal matrices.

    a accumulates on the x side (from averaged w), b on the y side (from
    averaged v). rho floors every emitted diagonal entry; varrho is the
    accumulator decay. In adabelief mode the averaged gradients of the
    previous generation step are retained as the innovation reference; the
    first generation uses a zero reference, which coincides with the adam
    rule on that call.
    """

    mode: str = MODE_IDENTITY
    rho: float = 0.01
    varrho: float = 0.9
    a: Vector | None = None
    b: Vector | None = None
    last_sync_grads: tuple[Vector, Vector] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0.0 < self.varrho <= 1.0:
            raise ValueError("varrho must lie in (0, 1]")

    def _moments(self, d: int, p: int) -> tuple[Vector, Vector]:
        if self.a is None:
            self.a = np.zeros(d)
            self.b = np.zeros(p)
        return self.a, self.b

    def generate(self, w_bar: Vector, v_bar: Vector, varrho: float | None = None) -> tuple[Vector, Vector]:
        """Produce the diagonals (A, B) for the next window, mutating the
        accumulator. The innovation reference is zero in adam mode; in
        adabelief mode it is the previous call's averages, zero at first."""
        if self.mode == MODE_IDENTITY:
            return np.ones_like(w_bar), np.ones_like(v_bar)
        w_ref, v_ref = self.last_sync_grads or (0.0, 0.0)
        if self.mode == MODE_ADABELIEF:
            self.last_sync_grads = (w_bar.copy(), v_bar.copy())
        return adabelief_matrix_update(self, w_bar, v_bar, w_ref, v_ref, varrho)


def _emit(acc: AdaptiveAccumulator) -> tuple[Vector, Vector]:
    A = np.sqrt(acc.a) + acc.rho
    B = np.sqrt(acc.b) + acc.rho
    if A.min() < acc.rho or B.min() < acc.rho:
        raise AssertionError("adaptive matrix violated its entry floor")
    return A, B


def adabelief_matrix_update(
    acc: AdaptiveAccumulator, w_bar: Vector, v_bar: Vector,
    w_ref: Vector | float = 0.0, v_ref: Vector | float = 0.0, varrho: float | None = None,
) -> tuple[Vector, Vector]:
    """a <- varrho*a + (1-varrho)*(w_bar - w_ref)^2, A = diag(sqrt(a) + rho);
    same for b/B. The zero reference is the adam rule: (w - 0.0)**2 is
    bitwise w**2."""
    if acc.mode == MODE_IDENTITY:
        raise ValueError(f"accumulator mode is {MODE_IDENTITY!r}; it has no moments")
    r = acc.varrho if varrho is None else varrho
    a, b = acc._moments(len(w_bar), len(v_bar))
    # In place, bitwise r * a + (1 - r) * (w_bar - w_ref)**2.
    a *= r
    a += (1.0 - r) * (w_bar - w_ref) ** 2
    b *= r
    b += (1.0 - r) * (v_bar - v_ref) ** 2
    return _emit(acc)
