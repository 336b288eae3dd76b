"""Common interface for K-client minimax problem instances.

An instance exposes stacked stochastic and exact partial-gradient oracles,
one row per (client, point), for

    min over x of max over y of (1/K) * sum_k f^k(x, y),

plus whatever closed forms the family admits (saddle point, inner
maximizer y*(x), value function gradient). Instances are immutable after
construction and the oracles are pure functions, so concurrent reads are
safe. grad_full_all is each family's only exact-gradient oracle: the module
function grad_full reads every client's row of it at one shared point. The
module function grad_stoch is the checked one-item form, which raises
IndexError on an out-of-range client or item.

Each family is a keyword-only dataclass: its fields are its generation
parameters (the [problem] config keys, K for k), and __post_init__ draws
the data from them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from ..core import Vector, index_sum, row_dots, vec_mean
from ..federation import PartitionPlan


# The most item rows that one pass of theory's sigma and robust L_f probes
# holds, one probe at least (the AUC row table is sized for it): 2 probes a
# pass at 400 items, whose temporaries stay below a run's own.
_PROBE_ITEMS = 1_000


@dataclass(frozen=True)
class Unconstrained:
    def project(self, y: Vector) -> Vector:
        return y


@dataclass(frozen=True)
class EuclideanBall:
    radius: float

    def project(self, y: Vector | np.ndarray) -> Vector | np.ndarray:
        """Nearest point of the ball to y, or to each row of a stacked (K, p) y."""
        norm = np.sqrt(row_dots(y))[..., None]
        if (norm <= self.radius).all():
            return y
        return y * (self.radius / np.maximum(norm, self.radius))


class ProblemInstance(ABC):
    """Abstract K-client minimax problem with finite per-client datasets."""

    name: str
    K: int
    d: int
    p: int
    y_constraint: Unconstrained | EuclideanBall
    sizes: np.ndarray  # (K,) stochastic realizations held by each client

    @abstractmethod
    def values(self, x: Vector, y: Vector) -> np.ndarray:
        """Exact objectives f^k(x, y) of every client at one shared point,
        shape (K,); at S row-stacked points x (S, d) and y (S, p), shape
        (S, K), row s bitwise equal to values(x[s], y[s])."""

    @abstractmethod
    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact partial gradients of every client at its own point.

        X is (nK, d) and Y is (nK, p): n stacked blocks of one row per
        client, so row i belongs to client i mod K. A row's bits do not
        depend on the rows with it: row i of each output is bitwise row
        i mod K of the module function grad_full at (X[i], Y[i]).
        """

    @abstractmethod
    def grad_stoch_rows(
        self, ks: np.ndarray, items: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial gradients of sampled realizations, one per row: row i is
        item items[i] of client ks[i], at the point (X[i], Y[i])."""

    def global_value(self, x: Vector, y: Vector) -> float | np.ndarray:
        """The averaged objective at (x, y), a float; at S row-stacked
        points, the (S,) array of each point's value."""
        v = index_sum(self.values(x, y), axis=-1) / self.K
        return float(v) if v.ndim == 0 else v

    def global_grad(self, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        GX, GY = grad_full(self, x, y)
        return vec_mean(GX), vec_mean(GY)

    # Closed forms: y_star exists iff has_closed_form_inner_max.
    has_closed_form_inner_max = False

    def saddle(self) -> tuple[Vector, Vector] | None:
        """Closed-form saddle point of the averaged objective, or None when
        the family has no closed form (AUC, robust)."""
        return None

    def y_star(self, x: Vector) -> Vector:
        """Closed-form maximizer of y -> f(x, y); at S row-stacked points
        x (S, d), the (S, p) rows of each point's maximizer."""
        raise ValueError(f"{self.name} has no closed-form inner maximizer")

    def inner_max_value(self, x: Vector) -> float:
        """Closed-form max over y of f(x, y)."""
        return self.global_value(x, self.y_star(x))

    def describe(self) -> str:
        """key=value dump of all generation parameters, for provenance: the
        dataclass fields of the family, in declaration order."""
        return "\n".join([f"problem={self.name}", *(f"{f.name}={getattr(self, f.name)}" for f in fields(self))])


class DatasetProblem(ProblemInstance):
    """A family whose client k holds a finite labelled dataset
    (clients_X[k] of shape (n_k, dim), clients_y[k] of shape (n_k,)).

    Clients with equal dataset sizes form one block, stored stacked as
    (K_b, n_b, dim) features and their items' (..., K_b, n_b) constants
    (_item_table, made once: the labels, or AUC's branch coefficients); an
    i.i.d. split is a single block. Subclasses give the objective as a
    kernel over one block, broadcast over the points' leading axes, and the
    stochastic oracle's row kernel, applied to items of all items pooled in
    client order. The exact oracle is each family's own (robust: a block
    kernel over the items; AUC: affine in the point, coefficients made once).
    """

    clients_X: list[np.ndarray]
    clients_y: list[np.ndarray]

    def _set_clients(self, X: np.ndarray, labels: np.ndarray, plan: PartitionPlan) -> None:
        """Give client k the items plan.assignment[k], then pool and block them."""
        self.clients_X = [X[idx] for idx in plan.assignment]
        self.clients_y = [labels[idx] for idx in plan.assignment]
        pooled = np.concatenate(plan.assignment)
        self._pool_X, self._pool_table = X[pooled], self._item_table(labels[pooled])
        self.sizes = sizes = np.array([len(idx) for idx in plan.assignment])
        self._pool_start = np.cumsum(sizes) - sizes
        self._blocks = []
        for n in np.unique(sizes):
            ks = np.flatnonzero(sizes == n)
            self._blocks.append((
                ks,
                np.stack([self.clients_X[k] for k in ks]),
                self._item_table(np.stack([self.clients_y[k] for k in ks])),
            ))

    def _item_table(self, labels: np.ndarray) -> np.ndarray:
        """Items' constants (..., *labels.shape), by default their labels."""
        return labels

    @abstractmethod
    def _value_block(self, Xs: np.ndarray, table: np.ndarray, x: Vector, y: Vector) -> np.ndarray:
        """Objectives (..., B) of B clients with datasets Xs (B, n, dim) and
        item table (..., B, n), at points x (..., d) and y (..., p) that
        every client shares."""

    @abstractmethod
    def _grad_rows(
        self, x_items: np.ndarray, table: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial gradients of R items x_items (R, dim) with item table
        (..., R), one row each, at points X (R, d) and Y (R, p)."""

    def values(self, x: Vector, y: Vector) -> np.ndarray:
        # x and y broadcast against each other over their leading axes:
        # ascend_y passes x's (S, 1, d) against their endpoints (S, 2, p).
        out = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (self.K,))
        for ks, Xs, table in self._blocks:
            out[..., ks] = self._value_block(Xs, table, x, y)
        return out

    def grad_stoch_rows(
        self, ks: np.ndarray, items: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = self._pool_start.take(ks)
        rows += items
        return self._grad_rows(self._pool_X.take(rows, axis=0), self._pool_table.take(rows, axis=-1), X, Y)


def grad_stoch(inst: ProblemInstance, k: int, x: Vector, y: Vector, item: int) -> tuple[Vector, Vector]:
    """Partial gradients of item `item` of client k; uniform sampling over
    the client's finite dataset makes this estimator unbiased for row k of
    grad_full."""
    if not 0 <= k < inst.K:
        raise IndexError(f"client index {k} out of range [0, {inst.K})")
    if not 0 <= item < inst.sizes[k]:
        raise IndexError(f"item index {item} out of range for client {k}")
    GX, GY = inst.grad_stoch_rows(np.array([k]), np.array([item]), x[None], y[None])
    return GX[0], GY[0]


def grad_full(inst: ProblemInstance, x: Vector, y: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Exact partial gradients of every client at one shared point: (K, d)
    and (K, p), row k client k's."""
    # Real copies, not broadcast views: matmul on zero-stride operands
    # leaves BLAS and sums in another order.
    return inst.grad_full_all(np.tile(x, (inst.K, 1)), np.tile(y, (inst.K, 1)))


def grad_F(inst: ProblemInstance, x: Vector) -> Vector:
    """Gradient of the value function F(x) = max_y f(x, y).

    Evaluated as the x-partial of f at (x, y*(x)); requires a closed-form
    inner maximizer.
    """
    gx, _ = inst.global_grad(x, inst.y_star(x))
    return gx
