"""AUC maximization as a minimax problem with a linear scorer.

Square-loss AUC surrogate: with score h = w . x, positive ratio p,
minimization variable x := (w, a, b) and maximization variable y := alpha,

    f(w, a, b, alpha; x_i, +1) = (1-p)(h - a)^2 - 2(1+alpha)(1-p) h - p(1-p) alpha^2
    f(w, a, b, alpha; x_i, -1) = p(h - b)^2 + 2(1+alpha) p h     - p(1-p) alpha^2

The -p(1-p)alpha^2 term makes every per-sample objective, hence every
client objective and the average, 2p(1-p)-strongly concave in alpha, and
the inner maximizer alpha*(w) is available in closed form.

The generated dataset is linearly separable along a hidden direction with
unit Gaussian noise. Items are grouped into 2K feature clusters whose
centers are orthogonal to the separating direction; the default by_group
split gives each client a disjoint cluster set (non-i.i.d.), and positives
concentrate in a few clusters when pos_ratio is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Vector
from ..federation import partition
from .base import DatasetProblem, Unconstrained


@dataclass(eq=False, kw_only=True)
class AucProblem(DatasetProblem):
    name = "auc"
    has_closed_form_inner_max = True

    K: int = 10
    dim: int = 10
    n_per_client: int = 40
    pos_ratio: float = 0.05
    margin: float = 1.0
    center_spread: float = 0.5
    noise_std: float = 0.5
    scheme: str = "by_group"
    n_test: int = 400
    seed: int

    def __post_init__(self) -> None:
        if self.K < 1 or self.dim < 1 or self.n_per_client < 1:
            raise ValueError("K, dim and n_per_client must be >= 1")
        if not 0.0 < self.pos_ratio < 1.0:
            raise ValueError(f"pos_ratio must lie in (0, 1), got {self.pos_ratio}")
        self.d = self.dim + 2  # (w, a, b)
        self.p = 1  # alpha
        self.y_constraint = Unconstrained()

        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        w_true = rng.normal(size=self.dim)
        self.w_true = w_true / np.linalg.norm(w_true)

        n_total = self.K * self.n_per_client
        X, labels, groups = self._draw(rng, n_total)
        plan = partition(n_total, groups, self.K, self.scheme, seed=self.seed + 1)
        self._set_clients(X, labels, plan)
        self.test_X, self.test_y, _ = self._draw(rng, self.n_test)

    def _draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_groups = 2 * self.K
        n_pos_groups = max(1, round(n_groups * self.pos_ratio))
        centers = rng.normal(0.0, self.center_spread, size=(n_groups, self.dim))
        centers -= np.outer(centers @ self.w_true, self.w_true)  # keep classes separable

        n_pos = max(1, round(self.pos_ratio * n))
        n_neg = n - n_pos
        pos_groups = np.arange(n_pos_groups)
        neg_groups = np.arange(n_pos_groups, n_groups)
        groups = np.concatenate(
            [pos_groups[np.arange(n_pos) % len(pos_groups)],
             neg_groups[np.arange(n_neg) % len(neg_groups)]]
        )
        labels = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
        X = (
            labels[:, None] * self.margin * self.w_true
            + centers[groups]
            + self.noise_std * rng.normal(size=(n, self.dim))
        )
        return X, labels, groups

    def _value_block(self, Xs: np.ndarray, labs: np.ndarray, x: Vector, y: Vector) -> np.ndarray:
        dim, pr = self.dim, self.pos_ratio
        a, b, alpha = x[..., dim, None, None], x[..., dim + 1, None, None], y[..., 0, None, None]
        # alpha**2 on Python floats: libm pow, which an array's **2 (x*x)
        # does not reproduce bit for bit.
        alpha_sq = np.array([v**2 for v in alpha.ravel().tolist()]).reshape(alpha.shape)
        h = np.matmul(Xs, x[..., None, :dim, None])[..., 0]
        vals = np.where(
            labs > 0,
            (1 - pr) * (h - a) ** 2 - 2 * (1 + alpha) * (1 - pr) * h,
            pr * (h - b) ** 2 + 2 * (1 + alpha) * pr * h,
        )
        return (vals - pr * (1 - pr) * alpha_sq).mean(axis=-1)

    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        dim, n = self.dim, labs.shape[-1]
        a, b, alpha = X[..., dim:dim + 1], X[..., dim + 1:], Y
        h = np.matmul(Xs, X[..., :dim, None])[..., 0]
        pos = labs > 0
        pr = self.pos_ratio

        coef = np.where(pos, 2 * (1 - pr) * (h - a) - 2 * (1 + alpha) * (1 - pr),
                        2 * pr * (h - b) + 2 * (1 + alpha) * pr)
        # Means as a sum and one division (what mean does, without its
        # wrapper): over the items for gw, and along the last axis of one
        # (3, ..., B, n) stack for the scalar columns, each row its own
        # pairwise sum.
        gw = np.add.reduce(coef[..., None] * Xs, axis=-2) / n
        ga, gb, gh = np.add.reduce(np.stack([
            np.where(pos, -2 * (1 - pr) * (h - a), 0.0),
            np.where(pos, 0.0, -2 * pr * (h - b)),
            np.where(pos, -2 * (1 - pr) * h, 2 * pr * h),
        ]), axis=-1) / n
        galpha = gh - 2 * pr * (1 - pr) * alpha[..., 0]
        return np.concatenate([gw, ga[..., None], gb[..., None]], axis=-1), galpha[..., None]

    def y_star(self, x: Vector) -> Vector:
        """Closed-form inner maximizer alpha*(w) of the averaged objective."""
        pr = self.pos_ratio
        means = np.empty((2, *x.shape[:-1], self.K))  # per-client means of h over positives, negatives
        for ks, Xs, labs in self._blocks:
            h = np.matmul(Xs, x[..., None, :self.dim, None])[..., 0]
            pos = labs > 0
            means[..., ks] = np.stack([np.where(pos, h, 0.0), np.where(pos, 0.0, h)]).mean(axis=-1)
        # cumsum adds in client order; sum() would add pairwise.
        m_pos, m_neg = np.cumsum(means, axis=-1)[..., -1] / self.K
        alpha = (pr * m_neg - (1 - pr) * m_pos) / (pr * (1 - pr))
        return alpha[..., None]

    @property
    def mu(self) -> float:
        return 2 * self.pos_ratio * (1 - self.pos_ratio)

    @property
    def lipschitz_L_f(self) -> float:
        """Max spectral norm of the (constant) per-sample Hessians, one
        batched eigvalsh over each client's (n_k, d+1, d+1) Hessian stack."""
        pr, dim, nv = self.pos_ratio, self.dim, self.d + self.p
        worst = 0.0
        for Xk, labk in zip(self.clients_X, self.clients_y):
            pos = labk > 0
            # u = (x_i, -1, 0) for a positive item, (x_i, 0, -1) for a negative one.
            U = np.zeros((len(Xk), nv))
            U[:, :dim] = Xk
            U[pos, dim] = -1.0
            U[~pos, dim + 1] = -1.0
            cross = np.where(pos, -2 * (1 - pr), 2 * pr)[:, None] * Xk
            H = np.zeros((len(Xk), nv, nv))
            H += np.where(pos, 2 * (1 - pr), 2 * pr)[:, None, None] * (U[:, :, None] * U[:, None, :])
            H[:, :dim, -1] += cross
            H[:, -1, :dim] += cross
            H[:, -1, -1] += -2 * pr * (1 - pr)
            worst = max(worst, float(np.abs(np.linalg.eigvalsh(H)).max()))
        return worst


make_auc = AucProblem
