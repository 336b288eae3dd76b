"""Synthetic quadratic K-client minimax problem with a known saddle point.

Per-client objective:

    f_k(x, y) = (tau/2)*||x||^2 - [ (1/2)*||y||^2 - b_k . y + t_k * (y . x) ]

with b_k centered across clients (sum_k b_k = 0 exactly) and t_k drawn
uniformly from (0, 0.1). The averaged objective is 1-strongly concave in y,
its inner maximizer is y*(x) = b_bar - t_bar*x, and with centered b_k the
saddle point is (0, 0).

The stochastic oracle is the exact gradient plus a per-item noise vector
from a pre-drawn table. Noise columns are centered per client, so the mean
over a client's items reproduces the exact gradient (finite-population
unbiasedness is exactly testable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Vector, row_dots
from .base import ProblemInstance, Unconstrained


def _center_rows(rows: np.ndarray) -> np.ndarray:
    """Subtract the row-mean, then force the last row to cancel the rest
    exactly (fixed-order sum of the result is bitwise zero). A single row
    minus its own mean is already zero."""
    out = rows - rows.mean(axis=0)
    if len(out) > 1:
        out[-1] = -np.cumsum(out[:-1], axis=0)[-1]
    return out


@dataclass(eq=False, kw_only=True)
class SyntheticProblem(ProblemInstance):
    name = "synthetic"
    has_closed_form_inner_max = True

    K: int = 10
    dim: int = 20
    s: float = 1.0
    tau: float = 10.0
    n_per_client: int = 50
    noise_sigma: float = 0.1
    seed: int
    center_b: bool = True

    def __post_init__(self) -> None:
        K, dim, n = self.K, self.dim, self.n_per_client
        if K < 1 or dim < 1:
            raise ValueError("K and dim must be >= 1")
        if self.s <= 0 or self.tau <= 0:
            raise ValueError("s and tau must be positive")
        if n < 1:
            raise ValueError("n_per_client must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        self.d = dim
        self.p = dim  # t_k * I maps the x-space onto the y-space
        self.y_constraint = Unconstrained()

        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        b_raw = rng.normal(0.0, self.s, size=(K, dim))
        self.b = _center_rows(b_raw) if self.center_b else b_raw
        self.t = rng.uniform(0.0, 0.1, size=K)

        # Per-client noise realizations for both gradient blocks, in one draw
        # (client k's x-table, then its y-table, as a per-client loop draws
        # them), centered per client and block as _center_rows does, so each
        # table's fixed-order mean is exactly zero. The last item is minus the
        # others added in item order, as np.cumsum adds them, but without a
        # table-sized cumsum.
        if self.noise_sigma > 0:
            noise = rng.normal(0.0, self.noise_sigma, size=(K, 2, n, dim))
            noise -= noise.mean(axis=2, keepdims=True)
            if n > 1:
                last = noise[:, :, -1]
                last[...] = noise[:, :, 0]
                for i in range(1, n - 1):
                    last += noise[:, :, i]
                np.negative(last, out=last)
        else:
            noise = np.zeros((K, 2, n, dim))
        self.noise_x, self.noise_y = noise[:, 0], noise[:, 1]

        # Fixed-order means used by the closed forms (cumsum adds in client order).
        self.b_bar = np.cumsum(self.b, axis=0)[-1] / K
        self.t_bar = np.cumsum(self.t)[-1] / K

    def dataset_size(self, k: int) -> int:
        return self.n_per_client

    def values(self, x: Vector, y: Vector) -> np.ndarray:
        # Per-row dots against y repeated per client: self.b @ y (gemv) sums
        # in another order.
        by = row_dots(self.b, np.repeat(y[..., None, :], self.K, axis=-2))
        xx, yy, yx = row_dots(0.5 * self.tau * x, x), row_dots(0.5 * y, y), row_dots(y, x)
        return xx[..., None] - (yy[..., None] - by + self.t * yx[..., None])

    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        gx = self.tau * x - self.t[k] * y
        gy = -y + self.b[k] - self.t[k] * x
        return gx, gy

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Viewed as (n, K, d) blocks; elementwise arithmetic keeps its bits when broadcast.
        X3, Y3 = X.reshape(-1, self.K, self.d), Y.reshape(-1, self.K, self.p)
        t = self.t[:, None]
        return (self.tau * X3 - t * Y3).reshape(X.shape), (-Y3 + self.b - t * X3).reshape(Y.shape)

    def grad_stoch_rows(
        self, ks: np.ndarray, items: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        t = self.t[ks, None]
        GX = self.tau * X - t * Y
        GY = -Y + self.b[ks] - t * X
        return GX + self.noise_x[ks, items], GY + self.noise_y[ks, items]

    def y_star(self, x: Vector) -> Vector:
        return self.b_bar - self.t_bar * x

    def saddle(self) -> tuple[Vector, Vector]:
        x_star = (self.t_bar / (self.tau + self.t_bar**2)) * self.b_bar
        return x_star, self.y_star(x_star)

    # Analytic constants: the smallest uniform Lipschitz constant over the
    # four partial-gradient blocks is max(tau, 1, max_k t_k); the averaged
    # objective has y-curvature exactly -1.
    @property
    def lipschitz_L_f(self) -> float:
        return max(self.tau, 1.0, float(self.t.max()))

    @property
    def mu(self) -> float:
        return 1.0

    @property
    def sigma_bound(self) -> float:
        sq = (self.noise_x**2).sum(axis=2) + (self.noise_y**2).sum(axis=2)
        return math.sqrt(sq.mean(axis=1).max())


make_synthetic = SyntheticProblem
