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

The stochastic rows, the objective and L_f take no branch on a label: they
read each item's constants from a table made once (_item_table).

The generated dataset is linearly separable along a hidden direction with
unit Gaussian noise. Items are grouped into 2K feature clusters whose
centers are orthogonal to the separating direction; the default by_group
split gives each client a disjoint cluster set (non-i.i.d.), and positives
concentrate in a few clusters when pos_ratio is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Vector, index_sum, row_dots
from ..federation import partition
from . import base
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
        if max(1, round(self.pos_ratio * self.n_test)) >= self.n_test:  # _draw's positives
            raise ValueError(f"n_test={self.n_test} leaves the held-out set without both classes")
        if round(2 * self.K * self.pos_ratio) >= 2 * self.K:  # _draw's positive clusters
            raise ValueError(f"pos_ratio={self.pos_ratio} leaves none of the 2K={2 * self.K} clusters negative")
        self.d = self.dim + 2  # (w, a, b)
        self.p = 1  # alpha
        self.y_constraint = Unconstrained()

        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        w_true = rng.normal(size=self.dim)
        self.w_true = w_true / np.linalg.norm(w_true)

        n_total = self.K * self.n_per_client
        X, labels, groups = self._draw(rng, n_total)
        self._set_clients(X, labels, partition(n_total, groups, self.K, self.scheme, seed=self.seed + 1))
        # Up to 2K rows (a step), the pool or one pass of theory's sigma probe.
        self._rows = np.arange(max(2 * self.K, len(self._pool_X), base._PROBE_ITEMS))
        self.test_X, self.test_y, _ = self._draw(rng, self.n_test)
        self._set_hessians()

    def _set_hessians(self) -> None:
        """Each client's H_k and g_k (module docstring), stacked over K, from
        its class moments weighted by c+ on a positive item, c- on a negative."""
        pr, dim, d = self.pos_ratio, self.dim, self.d
        H, g = np.zeros((self.K, d + 1, d + 1)), np.zeros((self.K, d + 1))
        for ks, Xs, table in self._blocks:
            pos, n = table[5] == dim, table.shape[-1]
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

    def _item_table(self, labels: np.ndarray) -> np.ndarray:
        """Each item's branch constants (6, *labels.shape), from its class's
        q = 1-p (positive) or p (negative): q, 2q, -+q, -2q, -+2q, and the
        column of its e = a or b (dim or dim+1), signs - for a positive."""
        pos = labels > 0
        q, sign = np.where(pos, 1 - self.pos_ratio, self.pos_ratio), np.where(pos, -1.0, 1.0)
        return np.stack([q, 2 * q, sign * q, -2 * q, sign * (2 * q), np.where(pos, self.dim, self.dim + 1)])

    def _value_block(self, Xs: np.ndarray, table: np.ndarray, x: Vector, y: Vector) -> np.ndarray:
        # q (h - e)^2 + ((2(1+alpha)) (-+q)) h - p(1-p) alpha^2: f's products
        # in their order (a - c m as a + c (-m)), in three temporaries.
        dim, pr = self.dim, self.pos_ratio
        q, _, c_q, _, _, col = table
        alpha = y[..., 0, None, None]
        # alpha**2 on float64 scalars: libm pow (inf where the square
        # overflows), which an array's **2 (x*x) does not reproduce bit for bit.
        alpha_sq = np.array([v**2 for v in alpha.ravel()]).reshape(alpha.shape)
        h = np.matmul(Xs, x[..., None, :dim, None])[..., 0]
        vals = np.multiply(2 * (1 + alpha), c_q, out=np.empty(np.broadcast_shapes(h.shape, alpha.shape)))
        np.multiply(vals, h, out=vals)
        sq = np.subtract(h, x[..., col.astype(np.intp)], out=h)
        np.add(np.multiply(q, np.square(sq, out=sq), out=sq), vals, out=vals)
        vals -= pr * (1 - pr) * alpha_sq
        return vals.mean(axis=-1)

    def _grad_rows(
        self, x_items: np.ndarray, table: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # With t = h - e: the w coefficient 2q t + c (-+q), c = 2(1+alpha),
        # -2q t in e's column and (-+2q) h for alpha. + 0.0 turns -0.0 into
        # +0.0: bits that the golden traces pin.
        dim, pr = self.dim, self.pos_ratio
        _, two_q, c_q, c_e, c_alpha, col = table
        h = np.matmul(x_items[:, None, :], X[:, :dim, None])[:, 0, 0]
        rows, col = self._rows[:len(X)], col.astype(np.intp)
        t = h - X[rows, col]
        GX = np.zeros(X.shape)
        np.multiply((two_q * t + (2 * (1 + Y[:, 0])) * c_q)[:, None], x_items, out=GX[:, :dim])
        GX[rows, col] = c_e * t
        GX += 0.0
        return GX, ((c_alpha * h + 0.0) - 2 * pr * (1 - pr) * Y[:, 0])[:, None]

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # H_k z + g_k on the (n, K, d + 1) blocks of z = (x, y): one gemv per
        # row, so a row's bits do not depend on the rows with it.
        Z = np.concatenate([X, Y], axis=-1).reshape(-1, self.K, self.d + 1, 1)
        G = np.matmul(self._hessians, Z)[..., 0]
        G += self._grads_at_0
        G = G.reshape(len(X), -1)
        return np.ascontiguousarray(G[:, :self.d]), np.ascontiguousarray(G[:, self.d:])

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
        """Max spectral norm of the (constant) per-item Hessians, from one
        batched eigvalsh over a 3 x 3 block per item.

        Item i's Hessian is c u u' + s (v e' + e v') - 2p(1-p) e e', with
        v = (x_i, 0, 0, 0), u = v - e_ab, e_ab the axis of its a or b and e
        that of alpha, c = 2q and s = -+2q (its table's rows 1 and 4). It
        vanishes off span{v, e_ab, e}; in the orthonormal frame v/r, e_ab, e,
        r = |x_i|, it is [[c r^2, -c r, s r], [-c r, c, 0], [s r, 0, -2p(1-p)]],
        whose eigenvalues are the Hessian's nonzero ones (at r = 0 too).

        eigvalsh runs only on the blocks that can hold the largest: a block's
        norm lies between its largest |entry| and its largest absolute row
        sum, and eigvalsh returns it within far less than the relative slack
        of 1e-8 that the screen allows, so the block whose |eigenvalue| is
        largest is kept (and eigvalsh of a stack is bitwise that of each
        block, see core). A NaN bound keeps every block.
        """
        _, c, _, _, s, _ = self._pool_table
        r = np.sqrt(r_sq := row_dots(self._pool_X))
        a00, a10, a20, mu = c * r_sq, c * r, s * r, self.mu
        upper = np.maximum(np.maximum(a00 + a10 + np.abs(a20), a10 + c), np.abs(a20) + mu)
        lower = np.maximum(np.maximum(a00, a10), np.maximum(np.abs(a20), c)).max(initial=mu)
        keep = ~(upper < lower * (1.0 - 1e-8))
        blocks = np.zeros((int(keep.sum()), 3, 3))  # eigvalsh reads the lower triangle
        blocks[:, 0, 0], blocks[:, 1, 0], blocks[:, 1, 1] = a00[keep], -a10[keep], c[keep]
        blocks[:, 2, 0], blocks[:, 2, 2] = a20[keep], -mu
        return float(np.abs(np.linalg.eigvalsh(blocks)).max())
