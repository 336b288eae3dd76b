"""Robust logistic regression against a shared bounded perturbation.

    min over w  max over ||rho|| <= 1  of  (1/K) sum_k mean_i loss(w . (x_i + rho), y_i)

with the logistic loss and labels in {-1, +1}. The perturbation rho is
shared across all samples and constrained to the unit Euclidean ball,
enforced by projection. The inner maximization has no closed form (the
loss is convex, not concave, in rho), so value-function quantities for
this family are evaluated by projected gradient ascent elsewhere.

Generated features split into a few robust coordinates (class signal
larger than the perturbation budget, unit noise) and many fragile ones
(aggregate signal below the budget, low noise). A plain fit leans on the
fragile coordinates because they look clean; the shared perturbation can
erase them, which is exactly what robust training has to learn to resist.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..core import Vector
from ..federation import partition
from .base import DatasetProblem, EuclideanBall


class RobustProblem(DatasetProblem):
    name = "robust"

    def __init__(
        self,
        K: int,
        dim: int,
        n_per_client: int,
        seed: int,
        margin: float = 1.5,
        fragile_total: float = 0.5,
        fragile_noise: float = 0.15,
        scheme: str = "iid",
        n_test: int = 400,
        ball_radius: float = 1.0,
    ):
        if K < 1 or dim < 2 or n_per_client < 1:
            raise ValueError("require K >= 1, dim >= 2, n_per_client >= 1")
        self.K = K
        self.d = dim
        self.p = dim  # rho lives in feature space
        self.n_per_client = int(n_per_client)
        self.seed = int(seed)
        self.margin = float(margin)
        self.fragile_total = float(fragile_total)
        self.fragile_noise = float(fragile_noise)
        self.scheme = scheme
        self.y_constraint = EuclideanBall(ball_radius)
        self.n_robust = max(1, dim // 5)

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n_total = K * n_per_client
        X, labels, groups = self._draw(rng, n_total)
        plan = partition(n_total, groups, K, scheme, seed=seed + 1)
        self._set_clients(X, labels, plan)

        self.n_test = int(n_test)
        self.test_X, self.test_y, _ = self._draw(rng, n_test)

    def _draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        labels = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        r = self.n_robust
        m = self.d - r
        X = np.zeros((n, self.d))
        X[:, :r] = labels[:, None] * self.margin / np.sqrt(r) + rng.normal(size=(n, r))
        X[:, r:] = labels[:, None] * self.fragile_total / np.sqrt(m) + self.fragile_noise * rng.normal(size=(n, m))
        groups = (labels > 0).astype(int)
        return X, labels, groups

    def value(self, k: int, x: Vector, y: Vector) -> float:
        z = self.clients_X[k] @ x + float(x @ y)
        return float(np.logaddexp(0.0, -self.clients_y[k] * z).mean())

    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        z = np.matmul(Xs, X[:, :, None])[:, :, 0] + np.matmul(X[:, None, :], Y[:, :, None])[:, :, 0]
        s = -labs * expit(-labs * z)  # d loss / d z
        GX = (s[:, :, None] * (Xs + Y[:, None, :])).mean(axis=1)
        GY = s.mean(axis=1)[:, None] * X
        return GX, GY

    def describe(self) -> str:
        lines = [
            "problem=robust",
            f"K={self.K}",
            f"dim={self.d}",
            f"n_per_client={self.n_per_client}",
            f"seed={self.seed}",
            f"margin={self.margin}",
            f"fragile_total={self.fragile_total}",
            f"fragile_noise={self.fragile_noise}",
            f"scheme={self.scheme}",
            f"n_test={self.n_test}",
            f"ball_radius={self.y_constraint.radius}",
        ]
        return "\n".join(lines)


def make_robust(
    K: int,
    dim: int,
    n_per_client: int,
    seed: int,
    margin: float = 1.5,
    fragile_total: float = 0.5,
    fragile_noise: float = 0.15,
    scheme: str = "iid",
    n_test: int = 400,
    ball_radius: float = 1.0,
) -> RobustProblem:
    """Build the robust-logistic instance from its generation parameters."""
    return RobustProblem(
        K, dim, n_per_client, seed, margin, fragile_total, fragile_noise, scheme, n_test, ball_radius
    )
