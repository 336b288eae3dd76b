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

import numpy as np

from ..core import Vector
from ..federation import partition
from .base import DatasetProblem, Unconstrained


class AucProblem(DatasetProblem):
    name = "auc"

    def __init__(
        self,
        K: int,
        dim: int,
        n_per_client: int,
        pos_ratio: float,
        seed: int,
        margin: float = 1.0,
        center_spread: float = 0.5,
        noise_std: float = 0.5,
        scheme: str = "by_group",
        n_test: int = 400,
    ):
        if K < 1 or dim < 1 or n_per_client < 1:
            raise ValueError("K, dim and n_per_client must be >= 1")
        if not 0.0 < pos_ratio < 1.0:
            raise ValueError(f"pos_ratio must lie in (0, 1), got {pos_ratio}")
        self.K = K
        self.dim = dim
        self.d = dim + 2  # (w, a, b)
        self.p = 1  # alpha
        self.pos_ratio = float(pos_ratio)
        self.n_per_client = int(n_per_client)
        self.seed = int(seed)
        self.margin = float(margin)
        self.center_spread = float(center_spread)
        self.noise_std = float(noise_std)
        self.scheme = scheme
        self.y_constraint = Unconstrained()

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        w_true = rng.normal(size=dim)
        self.w_true = w_true / np.linalg.norm(w_true)

        n_total = K * n_per_client
        X, labels, groups = self._draw(rng, n_total)
        plan = partition(n_total, groups, K, scheme, seed=seed + 1)
        self.clients_X = [X[idx] for idx in plan.assignment]
        self.clients_y = [labels[idx] for idx in plan.assignment]
        self.partition_plan = plan
        self._stack_clients()

        self.n_test = int(n_test)
        self.test_X, self.test_y, _ = self._draw(rng, n_test)

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

    def _split_x(self, xv: Vector) -> tuple[np.ndarray, float, float]:
        return xv[: self.dim], float(xv[self.dim]), float(xv[self.dim + 1])

    def _sample_values(self, k: int, xv: Vector, alpha: float) -> np.ndarray:
        w, a, b = self._split_x(xv)
        h = self.clients_X[k] @ w
        pos = self.clients_y[k] > 0
        pr = self.pos_ratio
        vals = np.where(
            pos,
            (1 - pr) * (h - a) ** 2 - 2 * (1 + alpha) * (1 - pr) * h,
            pr * (h - b) ** 2 + 2 * (1 + alpha) * pr * h,
        )
        return vals - pr * (1 - pr) * alpha**2

    def value(self, k: int, x: Vector, y: Vector) -> float:
        return float(self._sample_values(k, x, float(y[0])).mean())

    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        dim = self.dim
        W, a, b, alpha = X[:, :dim], X[:, dim:dim + 1], X[:, dim + 1:], Y
        h = np.matmul(Xs, W[:, :, None])[:, :, 0]
        pos = labs > 0
        pr = self.pos_ratio

        coef = np.where(pos, 2 * (1 - pr) * (h - a) - 2 * (1 + alpha) * (1 - pr),
                        2 * pr * (h - b) + 2 * (1 + alpha) * pr)
        gw = (coef[:, :, None] * Xs).mean(axis=1)
        ga = np.where(pos, -2 * (1 - pr) * (h - a), 0.0).mean(axis=1)
        gb = np.where(pos, 0.0, -2 * pr * (h - b)).mean(axis=1)
        galpha = np.where(pos, -2 * (1 - pr) * h, 2 * pr * h).mean(axis=1) - 2 * pr * (1 - pr) * alpha[:, 0]
        return np.column_stack([gw, ga, gb]), galpha[:, None]

    def grad_stoch(self, k: int, x: Vector, y: Vector, item: int) -> tuple[Vector, Vector]:
        w, a, b = self._split_x(x)
        alpha = float(y[0])
        xi = self.clients_X[k][item]
        pr = self.pos_ratio
        h = float(xi @ w)
        if self.clients_y[k][item] > 0:
            gw = (2 * (1 - pr) * (h - a) - 2 * (1 + alpha) * (1 - pr)) * xi
            ga = -2 * (1 - pr) * (h - a)
            gb = 0.0
            galpha = -2 * (1 - pr) * h - 2 * pr * (1 - pr) * alpha
        else:
            gw = (2 * pr * (h - b) + 2 * (1 + alpha) * pr) * xi
            ga = 0.0
            gb = -2 * pr * (h - b)
            galpha = 2 * pr * h - 2 * pr * (1 - pr) * alpha
        gx = np.concatenate([gw, [ga, gb]])
        return gx, np.array([galpha])

    def y_star(self, x: Vector) -> Vector:
        """Closed-form inner maximizer alpha*(w) of the averaged objective."""
        w = x[: self.dim]
        pr = self.pos_ratio
        m_pos = 0.0
        m_neg = 0.0
        for k in range(self.K):
            h = self.clients_X[k] @ w
            pos = self.clients_y[k] > 0
            m_pos += float(np.where(pos, h, 0.0).mean())
            m_neg += float(np.where(pos, 0.0, h).mean())
        m_pos /= self.K
        m_neg /= self.K
        alpha = (pr * m_neg - (1 - pr) * m_pos) / (pr * (1 - pr))
        return np.array([alpha])

    @property
    def mu(self) -> float:
        return 2 * self.pos_ratio * (1 - self.pos_ratio)

    @property
    def lipschitz_L_f(self) -> float:
        """Max spectral norm of the (constant) per-sample Hessians."""
        pr = self.pos_ratio
        worst = 0.0
        nv = self.d + self.p
        for k in range(self.K):
            for xi, lab in zip(self.clients_X[k], self.clients_y[k]):
                H = np.zeros((nv, nv))
                u = np.zeros(nv)
                u[: self.dim] = xi
                if lab > 0:
                    u[self.dim] = -1.0
                    H += 2 * (1 - pr) * np.outer(u, u)
                    H[: self.dim, -1] += -2 * (1 - pr) * xi
                    H[-1, : self.dim] += -2 * (1 - pr) * xi
                else:
                    u[self.dim + 1] = -1.0
                    H += 2 * pr * np.outer(u, u)
                    H[: self.dim, -1] += 2 * pr * xi
                    H[-1, : self.dim] += 2 * pr * xi
                H[-1, -1] += -2 * pr * (1 - pr)
                worst = max(worst, float(np.abs(np.linalg.eigvalsh(H)).max()))
        return worst

    def describe(self) -> str:
        lines = [
            "problem=auc",
            f"K={self.K}",
            f"dim={self.dim}",
            f"n_per_client={self.n_per_client}",
            f"pos_ratio={self.pos_ratio}",
            f"seed={self.seed}",
            f"margin={self.margin}",
            f"center_spread={self.center_spread}",
            f"noise_std={self.noise_std}",
            f"scheme={self.scheme}",
            f"n_test={self.n_test}",
        ]
        return "\n".join(lines)


def make_auc(
    K: int,
    dim: int,
    n_per_client: int,
    pos_ratio: float,
    seed: int,
    margin: float = 1.0,
    center_spread: float = 0.5,
    noise_std: float = 0.5,
    scheme: str = "by_group",
    n_test: int = 400,
) -> AucProblem:
    """Build the AUC-maximization instance from its generation parameters."""
    return AucProblem(
        K, dim, n_per_client, pos_ratio, seed, margin, center_spread, noise_std, scheme, n_test
    )
