"""Common interface for K-client minimax problem instances.

An instance exposes per-client stochastic and exact partial-gradient
oracles, plus a stacked exact oracle over all clients at once, for

    min over x of max over y of (1/K) * sum_k f^k(x, y),

plus whatever closed forms the family admits (saddle point, inner
maximizer y*(x), value function gradient). Instances are immutable after
construction and the oracles are pure functions, so concurrent reads are
safe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import Vector, vec_mean


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

    def project(self, y: Vector) -> Vector:
        norm = float(np.linalg.norm(y))
        if norm <= self.radius:
            return y
        return y * (self.radius / norm)


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
    def value(self, k: int, x: Vector, y: Vector) -> float:
        """Exact per-client objective f^k(x, y)."""

    @abstractmethod
    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        """Exact per-client partial gradients (df/dx, df/dy)."""

    @abstractmethod
    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact partial gradients of every client at its own point.

        X is (K, d) and Y is (K, p), one row per client; row k of each
        output is bitwise equal to grad_full(k, X[k], Y[k]).
        """

    @abstractmethod
    def grad_stoch(self, k: int, x: Vector, y: Vector, item: int) -> tuple[Vector, Vector]:
        """Partial gradients for one sampled realization of client k."""

    def global_value(self, x: Vector, y: Vector) -> float:
        acc = 0.0
        for k in range(self.K):
            acc += self.value(k, x, y)
        return acc / self.K

    def global_grad(self, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        # Real copies, not broadcast views: matmul on zero-stride operands
        # leaves BLAS and sums in another order.
        GX, GY = self.grad_full_all(np.tile(x, (self.K, 1)), np.tile(y, (self.K, 1)))
        return vec_mean(GX), vec_mean(GY)

    # Closed forms; families without them return None.

    def saddle(self) -> tuple[Vector, Vector] | None:
        return None

    def y_star(self, x: Vector) -> Vector | None:
        """Closed-form maximizer of y -> f(x, y), when available."""
        return None

    def inner_max_value(self, x: Vector) -> float | None:
        """Closed-form max over y of f(x, y), when available."""
        y = self.y_star(x)
        if y is None:
            return None
        return self.global_value(x, y)

    @property
    def has_closed_form_inner_max(self) -> bool:
        return self.y_star(np.zeros(self.d)) is not None

    @abstractmethod
    def describe(self) -> str:
        """key=value dump of all generation parameters, for provenance."""


class DatasetProblem(ProblemInstance):
    """A family whose client k holds a finite labelled dataset
    (clients_X[k] of shape (n_k, dim), clients_y[k] of shape (n_k,)).

    Clients with equal dataset sizes form one block, stored stacked as
    (K_b, n_b, dim) features and (K_b, n_b) labels; an i.i.d. split is a
    single block. Subclasses give the exact gradient once, as a kernel over
    one block, and both exact oracles use it.
    """

    clients_X: list[np.ndarray]
    clients_y: list[np.ndarray]

    def _stack_clients(self) -> None:
        """Group the clients into blocks; call once the datasets are set."""
        sizes = np.array([len(lab) for lab in self.clients_y])
        self._blocks = []
        for n in np.unique(sizes):
            ks = np.flatnonzero(sizes == n)
            self._blocks.append((
                ks,
                np.stack([self.clients_X[k] for k in ks]),
                np.stack([self.clients_y[k] for k in ks]),
            ))

    @abstractmethod
    def _grad_block(
        self, Xs: np.ndarray, labs: np.ndarray, X: np.ndarray, Y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradients of B clients with datasets Xs (B, n, dim) and
        labels labs (B, n), at points X (B, d) and Y (B, p)."""

    def dataset_size(self, k: int) -> int:
        return len(self.clients_y[k])

    def grad_full(self, k: int, x: Vector, y: Vector) -> tuple[Vector, Vector]:
        GX, GY = self._grad_block(self.clients_X[k][None], self.clients_y[k][None], x[None], y[None])
        return GX[0], GY[0]

    def grad_full_all(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        GX = np.empty((self.K, self.d))
        GY = np.empty((self.K, self.p))
        for ks, Xs, labs in self._blocks:
            GX[ks], GY[ks] = self._grad_block(Xs, labs, X[ks], Y[ks])
        return GX, GY


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
    y = inst.y_star(x)
    if y is None:
        raise ValueError(f"{inst.name} has no closed-form inner maximizer")
    gx, _ = inst.global_grad(x, y)
    return gx
