"""Robust logistic regression against a shared bounded perturbation.

    min over w  max over ||rho|| <= r  of  (1/K) sum_k mean_i loss(w . (x_i + rho), y_i)

with the logistic loss and labels in {-1, +1}. The perturbation rho is
shared across all samples and constrained to the ball of radius r
(ball_radius, 1 by default). It enters only through c = w . rho in
[-r||w||, r||w||], and the loss is convex in c, so the inner maximum lies
at rho = +r w/||w|| or -r w/||w|| (worst_perturbation). That maximizer
jumps between the two, so the family has no closed-form (unique,
Lipschitz) inner maximizer.

Generated features split into a few robust coordinates (class signal
larger than the perturbation budget, unit noise) and many fragile ones
(aggregate signal below the budget, low noise). A plain fit leans on the
fragile coordinates because they look clean; the shared perturbation can
erase them, which is exactly what robust training has to learn to resist.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..core import Vector, expit, row_dots
from ..federation import partition
from .base import DatasetProblem, EuclideanBall

# The most (points x clients x items) slopes, the largest temporaries, that
# one call of the exact gradient kernel makes.
_ORACLE_ELEMENTS = 12_000


@dataclass(eq=False, kw_only=True)
class RobustProblem(DatasetProblem):
    name = "robust"

    K: int = 10
    dim: int = 10
    n_per_client: int = 40
    margin: float = 1.5
    fragile_total: float = 0.5
    fragile_noise: float = 0.15
    scheme: str = "iid"
    n_test: int = 400
    ball_radius: float = 1.0
    seed: int

    def __post_init__(self) -> None:
        if self.K < 1 or self.dim < 2 or self.n_per_client < 1 or self.n_test < 0:
            raise ValueError("require K >= 1, dim >= 2, n_per_client >= 1, n_test >= 0")
        self.d = self.dim
        self.p = self.dim  # rho lives in feature space
        self.y_constraint = EuclideanBall(self.ball_radius)
        self.n_robust = max(1, self.dim // 5)

        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        n_total = self.K * self.n_per_client
        X, labels, groups = self._draw(rng, n_total)
        self._set_clients(X, labels, partition(n_total, groups, self.K, self.scheme, seed=self.seed + 1))
        self.test_X, self.test_y, _ = self._draw(rng, self.n_test)

    def _draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        labels = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        r = self.n_robust
        m = self.d - r
        X = np.zeros((n, self.d))
        X[:, :r] = labels[:, None] * self.margin / np.sqrt(r) + rng.normal(size=(n, r))
        X[:, r:] = labels[:, None] * self.fragile_total / np.sqrt(m) + self.fragile_noise * rng.normal(size=(n, m))
        groups = (labels > 0).astype(int)
        return X, labels, groups

    def _value_block(self, Xs: np.ndarray, labs: np.ndarray, x: Vector, y: Vector) -> np.ndarray:
        z = np.matmul(Xs, x[..., None, :, None])[..., 0] + row_dots(x, y)[..., None, None]
        return np.logaddexp(0.0, -labs * z).mean(axis=-1)

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The n K-row blocks as (n, K, .), each size block's data broadcast over
        # them in pieces of at most _ORACLE_ELEMENTS (blocks, K_b, n_b)
        # slopes, one block at least; a block's bits do not depend on the others.
        X3, Y3 = X.reshape(-1, self.K, self.d), Y.reshape(-1, self.K, self.p)
        GX, GY = np.empty_like(X3), np.empty_like(Y3)
        for ks, Xs, labs in self._blocks:
            step = max(1, _ORACLE_ELEMENTS // labs.size)
            for i in range(0, len(X3), step):
                piece = slice(i, i + step)
                GX[piece, ks], GY[piece, ks] = self._grad_block(Xs, labs, X3[piece, ks], Y3[piece, ks])
        return GX.reshape(X.shape), GY.reshape(Y.shape)

    def _grad_block(self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Exact gradients of B clients with datasets Xs (B, n, dim) and
        labels labs (B, n), at points X (..., B, d) and Y (..., B, p): the
        x-gradient mean_i s_i (x_i + y) as (s' Xs) / n + m y, with m the
        mean slope, s' Xs one gemv per point and client (see core)."""
        s, m, GY = self._slopes_and_grad_y(Xs, labs, X, Y)
        return np.matmul(s[..., None, :], Xs)[..., 0, :] / labs.shape[-1] + m * Y, GY

    def _grad_rows(
        self, x_items: np.ndarray, labels: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        s, _, GY = self._slopes_and_grad_y(x_items[:, None, :], labels[:, None], X, Y)
        return s * (x_items + Y) + 0.0, GY

    def _slopes_and_grad_y(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d loss / d z of each item, their mean m (..., B, 1), and the
        y-gradients m x, of _grad_block."""
        z = np.matmul(Xs, X[..., :, None])[..., 0] + np.matmul(X[..., None, :], Y[..., :, None])[..., 0]
        # In place, as are the slopes: a label is never NaN, so a product's
        # bits do not depend on the order of its operands.
        z *= -labs
        s = expit(z)
        s *= -labs
        m = (np.add.reduce(s, axis=-1) / labs.shape[-1])[..., None]
        return s, m, m * X


def worst_perturbation(w: Vector, radius: float, loss: Callable[[Vector], float]) -> Vector:
    """The rho of norm at most radius that maximizes loss(rho), for a loss
    that depends on rho only through w . rho and is convex in it: whichever
    of +-radius w/||w|| has the larger loss, + on a tie. At w = 0 every rho
    gives the same loss, and the rule returns zeros.
    """
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return np.zeros_like(w)
    plus = w * (radius / norm)
    minus = -plus
    return minus if loss(minus) > loss(plus) else plus
