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

from ..core import Vector, index_sum
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

    def _item_terms(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Per-item gradient terms (..., B, n) of _grad_block's datasets at its
        points: the w coefficient and the a, b and alpha terms of each item."""
        dim, pr = self.dim, self.pos_ratio
        h = np.matmul(Xs, X[..., :dim, None])[..., 0]
        pos = labs > 0
        ha, hb, c = h - X[..., dim:dim + 1], h - X[..., dim + 1:], 2 * (1 + Y)
        return (
            np.where(pos, 2 * (1 - pr) * ha - c * (1 - pr), 2 * pr * hb + c * pr),
            np.where(pos, -2 * (1 - pr) * ha, 0.0),
            np.where(pos, 0.0, -2 * pr * hb),
            np.where(pos, -2 * (1 - pr) * h, 2 * pr * h),
        )

    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        dim, pr, (B, n) = self.dim, self.pos_ratio, labs.shape
        X3, Y3 = X.reshape(-1, B, self.d), Y.reshape(-1, B, 1)
        coef, *scalars = self._item_terms(Xs, labs, X3, Y3)
        # Means as a sum and one division (what mean does, without its
        # wrapper): along the last axis of one (P, B, 3, n) stack for the
        # scalar columns, each row its own pairwise sum, and over the items
        # for gw, item-major but at dim = 1, where the (P, B, n, 1) product
        # sums pairwise. The scalar terms go before the product is made.
        sums = np.add.reduce(np.stack(scalars, axis=-2), axis=-1)
        del scalars
        if dim > 1:
            gw = np.add.reduce(coef.T[..., None] * self._item_major(Xs), axis=0).transpose(1, 0, 2)
        else:
            gw = np.add.reduce(coef * Xs[..., 0], axis=-1)[..., None]
        GX = np.concatenate([gw, sums[..., :2]], axis=-1) / n
        galpha = sums[..., 2] / n - 2 * pr * (1 - pr) * Y3[..., 0]
        return GX.reshape(X.shape), galpha.reshape(Y.shape)

    def _grad_rows(
        self, x_items: np.ndarray, labels: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pr = self.pos_ratio
        coef, ga, gb, gh = self._item_terms(x_items[:, None, :], labels, X, Y)
        return np.concatenate([coef * x_items, ga, gb], axis=1) + 0.0, (gh + 0.0) - 2 * pr * (1 - pr) * Y

    def y_star(self, x: Vector) -> Vector:
        """Closed-form inner maximizer alpha*(w) of the averaged objective."""
        pr = self.pos_ratio
        means = np.empty((2, *x.shape[:-1], self.K))  # per-client means of h over positives, negatives
        for ks, Xs, labs in self._blocks:
            h = np.matmul(Xs, x[..., None, :self.dim, None])[..., 0]
            pos = labs > 0
            means[..., ks] = np.stack([np.where(pos, h, 0.0), np.where(pos, 0.0, h)]).mean(axis=-1)
        m_pos, m_neg = index_sum(means, axis=-1) / self.K
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
