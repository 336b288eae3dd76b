"""AUC maximization as a minimax problem with a linear scorer.

Square-loss AUC surrogate: with score h = w . x, positive ratio p,
minimization variable x := (w, a, b) and maximization variable y := alpha,

    f(w, a, b, alpha; x_i, +1) = (1-p)(h - a)^2 - 2(1+alpha)(1-p) h - p(1-p) alpha^2
    f(w, a, b, alpha; x_i, -1) = p(h - b)^2 + 2(1+alpha) p h     - p(1-p) alpha^2

The -p(1-p)alpha^2 term makes every per-sample objective, hence every
client objective and the average, 2p(1-p)-strongly concave in alpha, and
the inner maximizer alpha*(w) is available in closed form.

Each objective is quadratic in z = (w, a, b, alpha), so client k's exact
gradient is H_k z + g_k: its Hessian, made once from its n_k items' class
moments (n+, n-, sums s+, s-, second moments M+, M-), times z plus its
gradient at 0, g_k = (u_k, 0, 0, 0). With c+ = 2(1-p)/n_k, c- = 2p/n_k and
u_k = c- s- - c+ s+, H_k has rows [c+ M+ + c- M-, -c+ s+, -c- s-, u_k],
[-c+ s+', c+ n+, 0, 0], [-c- s-', 0, c- n-, 0] and [u_k', 0, 0, -2p(1-p)].

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
        self._set_hessians()

    def _set_hessians(self) -> None:
        """Each client's H_k and g_k (module docstring), stacked over K, from
        its class moments weighted by c+ on a positive item, c- on a negative."""
        pr, dim, d = self.pos_ratio, self.dim, self.d
        H, g = np.zeros((self.K, d + 1, d + 1)), np.zeros((self.K, d + 1))
        for ks, Xs, labs in self._blocks:
            pos, n = labs > 0, labs.shape[1]
            c_pos, c_neg = np.where(pos, 2 * (1 - pr) / n, 0.0), np.where(pos, 0.0, 2 * pr / n)
            s_pos, s_neg = np.matmul(c_pos[:, None], Xs)[:, 0], np.matmul(c_neg[:, None], Xs)[:, 0]
            H[ks, :dim, :dim] = np.matmul(Xs.transpose(0, 2, 1), (c_pos + c_neg)[..., None] * Xs)
            H[ks, :dim, dim] = H[ks, dim, :dim] = -s_pos
            H[ks, :dim, dim + 1] = H[ks, dim + 1, :dim] = -s_neg
            H[ks, :dim, d] = H[ks, d, :dim] = g[ks, :dim] = s_neg - s_pos
            H[ks, dim, dim], H[ks, dim + 1, dim + 1] = c_pos.sum(axis=1), c_neg.sum(axis=1)
        H[:, d, d] = -2 * pr * (1 - pr)
        self._hessians, self._grads_at_0 = H, g

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
        """Per-item gradient terms (R, 1) of the one-item datasets Xs (R, 1,
        dim) with labels labs (R, 1), at points X (R, d) and Y (R, 1): the w
        coefficient and the a, b and alpha terms of each item."""
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

    def _grad_rows(
        self, x_items: np.ndarray, labels: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # + 0.0 turns -0.0 into +0.0: bits that the golden traces pin
        pr = self.pos_ratio
        coef, ga, gb, gh = self._item_terms(x_items[:, None, :], labels, X, Y)
        return np.concatenate([coef * x_items, ga, gb], axis=1) + 0.0, (gh + 0.0) - 2 * pr * (1 - pr) * Y

    def _affine_grads(self, ks: slice, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H_k z + g_k of the clients ks at points X (..., B, d), Y (..., B, 1):
        one gemv per point, so a row's bits do not depend on the rows with it."""
        G = np.matmul(self._hessians[ks], np.concatenate([X, Y], axis=-1)[..., None])[..., 0]
        G += self._grads_at_0[ks]
        return np.ascontiguousarray(G[..., :self.d]), np.ascontiguousarray(G[..., self.d:])

    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        GX, GY = self._affine_grads(slice(k, k + 1), x[None], y[None])
        return GX[0], GY[0]

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        GX, GY = self._affine_grads(slice(None), X.reshape(-1, self.K, self.d), Y.reshape(-1, self.K, 1))
        return GX.reshape(X.shape), GY.reshape(Y.shape)

    def y_star(self, x: Vector) -> Vector:
        """Closed-form inner maximizer alpha*(w) of the averaged objective: the
        zero of the clients' mean alpha-gradient, mean_k(u_k . w) - 2p(1-p) alpha."""
        u_dot_w = np.matmul(self._grads_at_0[:, :self.dim], x[..., :self.dim, None])[..., 0]
        return (index_sum(u_dot_w, axis=-1) / self.K / self.mu)[..., None]

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
