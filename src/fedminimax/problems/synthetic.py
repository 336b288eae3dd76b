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

import numpy as np

from ..core import Vector, as_vector
from .base import ProblemInstance, Unconstrained


def _center_rows(rows: np.ndarray) -> np.ndarray:
    """Subtract the row-mean, then force the last row to cancel the rest
    exactly (fixed-order sum of the result is bitwise zero)."""
    out = rows - rows.mean(axis=0)
    if out.shape[0] > 1:
        acc = np.zeros(out.shape[1])
        for i in range(out.shape[0] - 1):
            acc += out[i]
        out[-1] = -acc
    else:
        out[0] = 0.0
    return out


class SyntheticProblem(ProblemInstance):
    name = "synthetic"

    def __init__(
        self,
        K: int,
        dim: int,
        s: float,
        tau: float,
        seed: int,
        n_per_client: int = 50,
        noise_sigma: float = 0.1,
        center_b: bool = True,
    ):
        if K < 1 or dim < 1:
            raise ValueError("K and dim must be >= 1")
        if s <= 0 or tau <= 0:
            raise ValueError("s and tau must be positive")
        if n_per_client < 1:
            raise ValueError("n_per_client must be >= 1")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        self.K = K
        self.d = dim
        self.p = dim  # t_k * I maps the x-space onto the y-space
        self.s = float(s)
        self.tau = float(tau)
        self.seed = int(seed)
        self.n_per_client = int(n_per_client)
        self.noise_sigma = float(noise_sigma)
        self.center_b = bool(center_b)
        self.y_constraint = Unconstrained()

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b_raw = rng.normal(0.0, s, size=(K, dim))
        self.b = _center_rows(b_raw) if center_b else b_raw
        self.t = rng.uniform(0.0, 0.1, size=K)

        # Per-client noise realizations for both gradient blocks, centered
        # per client so the table mean is exactly zero.
        self.noise_x = np.zeros((K, n_per_client, dim))
        self.noise_y = np.zeros((K, n_per_client, dim))
        if noise_sigma > 0:
            for k in range(K):
                self.noise_x[k] = _center_rows(rng.normal(0.0, noise_sigma, size=(n_per_client, dim)))
                self.noise_y[k] = _center_rows(rng.normal(0.0, noise_sigma, size=(n_per_client, dim)))

        # Fixed-order means used by the closed forms.
        b_acc = np.zeros(dim)
        t_acc = 0.0
        for k in range(K):
            b_acc += self.b[k]
            t_acc += self.t[k]
        self.b_bar = b_acc / K
        self.t_bar = t_acc / K

    def dataset_size(self, k: int) -> int:
        return self.n_per_client

    def value(self, k: int, x: Vector, y: Vector) -> float:
        return float(
            0.5 * self.tau * x @ x - (0.5 * y @ y - self.b[k] @ y + self.t[k] * (y @ x))
        )

    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        gx = self.tau * x - self.t[k] * y
        gy = -y + self.b[k] - self.t[k] * x
        return gx, gy

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self.t[:, None]
        return self.tau * X - t * Y, -Y + self.b - t * X

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
        return as_vector(x_star), as_vector(self.y_star(x_star))

    def grad_F(self, x: Vector) -> Vector:
        # F(x) = (tau/2)||x||^2 + (1/2)||b_bar - t_bar x||^2
        return self.tau * x - self.t_bar * (self.b_bar - self.t_bar * x)

    def value_F(self, x: Vector) -> float:
        r = self.b_bar - self.t_bar * x
        return float(0.5 * self.tau * x @ x + 0.5 * r @ r)

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
        worst = 0.0
        for k in range(self.K):
            sq = (self.noise_x[k] ** 2).sum(axis=1) + (self.noise_y[k] ** 2).sum(axis=1)
            worst = max(worst, float(sq.mean()))
        return float(np.sqrt(worst))

    def describe(self) -> str:
        lines = [
            "problem=synthetic",
            f"K={self.K}",
            f"dim={self.d}",
            f"s={self.s}",
            f"tau={self.tau}",
            f"seed={self.seed}",
            f"n_per_client={self.n_per_client}",
            f"noise_sigma={self.noise_sigma}",
            f"center_b={self.center_b}",
        ]
        return "\n".join(lines)


def make_synthetic(
    K: int,
    dim: int,
    s: float,
    tau: float,
    seed: int,
    n_per_client: int = 50,
    noise_sigma: float = 0.1,
    center_b: bool = True,
) -> SyntheticProblem:
    """Build the synthetic instance from its generation parameters."""
    return SyntheticProblem(K, dim, s, tau, seed, n_per_client, noise_sigma, center_b)
