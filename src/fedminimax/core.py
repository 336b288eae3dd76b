"""Shared value types and elementwise vector arithmetic.

All numerics are float64. Reductions over clients are done in fixed index
order (0..K-1) so traces are bit-reproducible across runs and thread counts.

Stacked per-client arrays (one row or one leading slice per client) keep
those bits only in some forms. Bitwise equal to the per-client call, row by
row:

- means along axis 1 of stacked (K, n) and (K, n, d) arrays;
- np.matmul(X3, W[:, :, None]) against each client's X @ w;
- np.matmul(D[:, None, :], D[:, :, None]) against each row's D[k] @ D[k],
  the square of np.linalg.norm(D[k]).

Not bitwise equal: np.add.reduceat, np.einsum, np.linalg.norm(axis=1), and
sum(axis=0) or mean(axis=0) across clients on a (K, 1) array, which sums
pairwise. Cross-client means therefore stay the explicit row loop of
vec_mean, which takes a stacked (K, d) array as well as a list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A Vector is a 1-D float64 ndarray with finite entries.
Vector = np.ndarray


def as_vector(values) -> Vector:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def check_finite(v: Vector, what: str = "vector") -> Vector:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"{what} contains NaN or Inf")
    return v


def vec_mean(vs: list[Vector] | np.ndarray) -> Vector:
    """Coordinatewise mean of a list of vectors or of the rows of a (K, d)
    array, summed in fixed order (no pairwise reduction)."""
    if len(vs) == 0:
        raise ValueError("vec_mean of empty list")
    dim = vs[0].shape[0]
    acc = np.zeros(dim, dtype=np.float64)
    for v in vs:
        if v.shape[0] != dim:
            raise ValueError(f"dimension mismatch: {v.shape[0]} != {dim}")
        acc += v
    return check_finite(acc / len(vs), "mean")


@dataclass
class DiagMatrix:
    """Diagonal preconditioner with strictly positive entries (entry floor rho)."""

    diag: Vector

    def __post_init__(self) -> None:
        self.diag = as_vector(self.diag)
        if np.any(self.diag <= 0.0):
            raise ValueError("DiagMatrix requires strictly positive diagonal entries")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def min_entry(self) -> float:
        return float(self.diag.min())

    def spectral_norm(self) -> float:
        return float(self.diag.max())


def identity_diag(dim: int) -> DiagMatrix:
    return DiagMatrix(np.ones(dim, dtype=np.float64))


def precondition(A: DiagMatrix, g: Vector) -> Vector:
    """Apply the inverse of a diagonal matrix: returns g_i / diag_i."""
    if A.dim != g.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {A.dim}, vector {g.shape[0]}")
    if np.any(A.diag <= 0.0):
        raise ValueError("preconditioner has a nonpositive diagonal entry")
    return check_finite(g / A.diag, "preconditioned gradient")


@dataclass
class Counters:
    """Run-level complexity ledger.

    sfo_per_client counts stochastic-gradient evaluations on one client
    (all clients consume the same amount); comm_rounds counts
    server-averaging rounds; local_steps counts non-sync iterations.
    """

    sfo_per_client: int = 0
    comm_rounds: int = 0
    local_steps: int = 0

    def add_sfo(self, n: int) -> None:
        if n < 0:
            raise ValueError("sfo increment must be nonnegative")
        self.sfo_per_client += n

    def add_comm(self) -> None:
        self.comm_rounds += 1
