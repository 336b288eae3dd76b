"""Common interface for K-client minimax problem instances.

An instance exposes stacked stochastic and exact partial-gradient oracles,
one row per (client, point), and their per-client one-row forms, for

    min over x of max over y of (1/K) * sum_k f^k(x, y),

plus whatever closed forms the family admits (saddle point, inner
maximizer y*(x), value function gradient). Instances are immutable after
construction and the oracles are pure functions, so concurrent reads are
safe.

Each family is a keyword-only dataclass: its fields are its generation
parameters (the [problem] config keys, K for k), and __post_init__ draws
the data from them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from ..core import Vector, row_dots, vec_mean
from ..federation import PartitionPlan


class SampleRef(NamedTuple):
    """One realization of a client's data: (client index, item index)."""

    client: int
    item: int


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
        if np.all(norm <= self.radius):
            return y
        return y * (self.radius / np.maximum(norm, self.radius))


class ProblemInstance(ABC):
    """Abstract K-client minimax problem with finite per-client datasets."""

    name: str
    K: int
    d: int
    p: int
    y_constraint: Unconstrained | EuclideanBall

    @abstractmethod
    def dataset_size(self, k: int) -> int:
        """Number of stochastic realizations held by client k."""

    @abstractmethod
    def values(self, x: Vector, y: Vector) -> np.ndarray:
        """Exact objectives f^k(x, y) of every client at one shared point, shape (K,)."""

    @abstractmethod
    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        """Exact per-client partial gradients (df/dx, df/dy)."""

    @abstractmethod
    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact partial gradients of every client at its own point.

        X is (nK, d) and Y is (nK, p): n stacked blocks of one row per
        client, so row i belongs to client i mod K. Row i of each output is
        bitwise equal to grad_full(i mod K, X[i], Y[i]).
        """

    @abstractmethod
    def grad_stoch_rows(
        self, ks: np.ndarray, items: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial gradients of sampled realizations, one per row: row i is
        item items[i] of client ks[i], at the point (X[i], Y[i])."""

    def grad_stoch(self, k: int, x: Vector, y: Vector, item: int) -> tuple[Vector, Vector]:
        """Partial gradients for one sampled realization of client k."""
        GX, GY = self.grad_stoch_rows(np.array([k]), np.array([item]), x[None], y[None])
        return GX[0], GY[0]

    def value(self, k: int, x: Vector, y: Vector) -> float:
        return float(self.values(x, y)[k])

    def global_value(self, x: Vector, y: Vector) -> float:
        # cumsum adds in client order; sum() would add pairwise.
        return float(np.cumsum(self.values(x, y))[-1] / self.K)

    def global_grad(self, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        # Real copies, not broadcast views: matmul on zero-stride operands
        # leaves BLAS and sums in another order.
        GX, GY = self.grad_full_all(np.tile(x, (self.K, 1)), np.tile(y, (self.K, 1)))
        return vec_mean(GX), vec_mean(GY)

    # Closed forms: y_star exists iff has_closed_form_inner_max.
    has_closed_form_inner_max = False

    def saddle(self) -> tuple[Vector, Vector] | None:
        return None

    def y_star(self, x: Vector) -> Vector:
        """Closed-form maximizer of y -> f(x, y)."""
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
    (K_b, n_b, dim) features and (K_b, n_b) labels; an i.i.d. split is a
    single block. Subclasses give the objective and the exact gradient
    once each, as kernels over one block, and every oracle uses them; the
    stochastic oracle applies the gradient kernel to one-item datasets
    taken from all items pooled in client order.
    """

    clients_X: list[np.ndarray]
    clients_y: list[np.ndarray]

    def _set_clients(self, X: np.ndarray, labels: np.ndarray, plan: PartitionPlan) -> None:
        """Give client k the items plan.assignment[k], then pool and block them."""
        self.clients_X = [X[idx] for idx in plan.assignment]
        self.clients_y = [labels[idx] for idx in plan.assignment]
        pooled = np.concatenate(plan.assignment)
        self._pool_X, self._pool_y = X[pooled], labels[pooled]
        sizes = np.array([len(idx) for idx in plan.assignment])
        self._pool_start = np.cumsum(sizes) - sizes
        self._blocks = []
        for n in np.unique(sizes):
            ks = np.flatnonzero(sizes == n)
            self._blocks.append((
                ks,
                np.stack([self.clients_X[k] for k in ks]),
                np.stack([self.clients_y[k] for k in ks]),
            ))
        self._tiled = (1, self._blocks)

    @abstractmethod
    def _value_block(self, Xs: np.ndarray, labs: np.ndarray, x: Vector, y: Vector) -> np.ndarray:
        """Objectives (B,) of B clients with datasets Xs (B, n, dim) and
        labels labs (B, n), at the shared point (x, y)."""

    @abstractmethod
    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradients of B clients with datasets Xs (B, n, dim) and
        labels labs (B, n), at points X (B, d) and Y (B, p)."""

    def dataset_size(self, k: int) -> int:
        return len(self.clients_y[k])

    def values(self, x: Vector, y: Vector) -> np.ndarray:
        out = np.empty(self.K)
        for ks, Xs, labs in self._blocks:
            out[ks] = self._value_block(Xs, labs, x, y)
        return out

    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        GX, GY = self._grad_block(self.clients_X[k][None], self.clients_y[k][None], x[None], y[None])
        return GX[0], GY[0]

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(X) // self.K
        # Each size block's rows in all n K-row blocks, its data tiled to
        # match; only the last block count's tiles are kept, so an instance
        # holds at most one tiled copy of its data besides the data itself.
        if n == 1:
            tiles = self._blocks
        elif self._tiled[0] == n:
            tiles = self._tiled[1]
        else:
            tiles = [((ks + self.K * np.arange(n)[:, None]).ravel(), np.tile(Xs, (n, 1, 1)),
                      np.tile(labs, (n, 1))) for ks, Xs, labs in self._blocks]
            self._tiled = (n, tiles)
        GX = np.empty((len(X), self.d))
        GY = np.empty((len(X), self.p))
        for rows, Xs, labs in tiles:
            GX[rows], GY[rows] = self._grad_block(Xs, labs, X[rows], Y[rows])
        return GX, GY

    def grad_stoch_rows(
        self, ks: np.ndarray, items: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = self._pool_start[ks] + items
        return self._grad_block(self._pool_X[rows][:, None, :], self._pool_y[rows][:, None], X, Y)


def _check_indices(inst: ProblemInstance, k: int, xi: SampleRef | None = None) -> None:
    if not 0 <= k < inst.K:
        raise IndexError(f"client index {k} out of range [0, {inst.K})")
    if xi is not None:
        if xi.client != k:
            raise IndexError(f"sample belongs to client {xi.client}, not {k}")
        if not 0 <= xi.item < inst.dataset_size(k):
            raise IndexError(f"item index {xi.item} out of range for client {k}")


def grad_stoch(inst: ProblemInstance, k: int, x: Vector, y: Vector, xi: SampleRef) -> tuple[Vector, Vector]:
    """Sampled partial gradients; uniform sampling over the client's finite
    dataset makes this estimator unbiased for grad_full."""
    _check_indices(inst, k, xi)
    return inst.grad_stoch(k, x, y, xi.item)


def grad_full(inst: ProblemInstance, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
    """Exact per-client partial gradients."""
    _check_indices(inst, k)
    return inst.grad_full(k, x, y)


def saddle_point(inst: ProblemInstance) -> tuple[Vector, Vector] | None:
    """Closed-form saddle point of the averaged objective, or None when the
    family has no closed form (AUC, robust)."""
    return inst.saddle()


def project_y(inst: ProblemInstance, y: Vector) -> Vector:
    """Identity when unconstrained, Euclidean ball projection otherwise."""
    return inst.y_constraint.project(y)


def grad_F(inst: ProblemInstance, x: Vector) -> Vector:
    """Gradient of the value function F(x) = max_y f(x, y).

    Evaluated as the x-partial of f at (x, y*(x)); requires a closed-form
    inner maximizer.
    """
    gx, _ = inst.global_grad(x, inst.y_star(x))
    return gx
