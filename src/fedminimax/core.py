"""Shared value types and elementwise vector arithmetic.

All numerics are float64. Reductions over clients are done in fixed index
order (0..K-1) so traces are bit-reproducible across runs and thread counts.

Stacked per-client arrays (one row or one leading slice per client) keep
those bits only in some forms. Bitwise equal to the per-client call, row by
row:

- elementwise arithmetic on (K, d) rows (the client step), a stacked
  oracle on the rows of two calls concatenated (new and old points), and
  the exact oracle on n stacked K-row blocks against one call per block;
- a per-client scalar repeated across the client's row, (rows, d),
  against a (rows, 1) column broadcast in an elementwise kernel; the column
  costs one inner loop per row, so the synthetic oracles take the rows;
- elementwise arithmetic in place (out=, +=) against a temporary per
  operation, and a + b, a * b against b + a, b * a but for which of two
  NaNs comes through (see below): the client step, the estimate
  refreshes and the synthetic oracles;
- vec_mean of (K, d_i) blocks side by side, (K, 1) ones included, against
  each block's own vec_mean (each column is added on its own, in index
  order);
- Generator.integers(n, size=m) against m integers(n) calls, and
  size=(r, m) against r calls of size m, state included;
- Generator.standard_normal(size=(n, a + b)) against n pairs of calls of
  sizes a and b, state included (the probe points of theory);
- means along axis 1 of stacked (K, n), (K, n, d) and one-item (K, 1, d)
  arrays;
- np.matmul(X3, W[:, :, None]) against each client's X @ w, one-item
  blocks included, and X3 @ w at one shared w;
- row_dots(D) against each row's D[k] @ D[k]; its square root is
  np.linalg.norm(D[k]) (consensus, ball projection, heterogeneity);
- np.cumsum(a)[-1] against a sequential sum in index order, and
  np.cumsum(A, axis=0)[-1] against adding the rows of A one by one in
  index order (np.add.accumulate, which np.cumsum calls, never
  reassociates), also along the K axis of an (S, K, d) stack against each
  (K, d) slice's own cumsum, along the last axis of a (P, K, n) stack
  against each row's own (theory's sigma probe), and in place (out=A);
- np.add.reduce(A, axis) against that cumsum's last slice, where the axis
  is not the last and A is C-contiguous with a trailing length of at
  least 2: numpy adds whole rows in index order and sums pairwise only
  along the fast axis (index_sum: vec_mean, the recorder's (S, K, .)
  stack);
- np.exp of a reversed (negative-stride) 1-D view against libm exp
  (math.exp, inf past its overflow edge) at every float, NaN, infinities
  and signed zeros included: numpy's SIMD loop takes only positive strides,
  and its strided loop calls libm item by item (expit; pinned by
  tests/test_core.py TestExpit);
- a family's values and y_star at S row-stacked points, (S, d) and
  (S, p), against one call per point; the AUC objective squares each
  alpha as a float64 scalar;
- matmul with one operand broadcast over leading axes (a dataset block's
  (K, n, dim), or the AUC clients' (K, m, m) Hessians, against (S, K, ., 1)
  points) against one call per slice: it still makes one gemv per matrix;
- add.reduce(A, axis) / n against A.mean(axis);
- np.matmul(S[..., None, :], Xs) of slopes S (..., B, n) and a dataset
  block Xs (B, n, dim) against each client's s @ X: one gemv per point and
  client (the robust exact x-gradient's X' s);
- add.reduce over an axis of length 1 against 0.0 + A, which is A but for
  -0.0, made +0.0, and A / 1 against A;
- np.linalg.eigvalsh of a stacked (n, m, m) array against eigvalsh of
  each matrix, and U[:, :, None] * U[:, None, :] against np.outer(u, u).

Not bitwise equal: np.add.reduceat, np.einsum, np.linalg.norm(axis=1),
A @ v (one gemv) against the row dots A[k] @ v, the augmented product
[G_a, N_a, 1] . [-2 G_b; 1; N_b] = N_a + N_b - 2 G_a.G_b of a squared
distance against row_dots(G_a - G_b) (theory uses it only as a screen of
pairs, within a proven slack, before the row dots), and add.reduce, sum or
mean along the fast axis, or across clients on a (K, 1) array, which sum
pairwise; these stay forbidden for cross-client reductions.
Cross-client means are therefore index_sum's: add.reduce where it adds
rows in index order, the index-order add.accumulate elsewhere. vec_mean
takes a stacked (K, d) array as well as a list of vectors.
Nor is the sign of a NaN where NaNs of both signs meet in a sum or a
product: numpy's vector and scalar loops keep different operands' NaN, so
it depends on the length of the rows added and on the operands' order.
Nor are two scalar forms: a scalar's a**2 (libm pow) and an array's **2
(x*x) differ on ~0.07% of inputs, so the AUC objective keeps alpha a
scalar; np.exp on a contiguous array (its SIMD loop) and libm exp
(math.exp) differ on ~2% of sigmoid inputs, so the logistic sigmoid is
expit below, which takes libm exp from np.exp on a reversed view and is
bitwise equal to scipy.special.expit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A Vector is a 1-D float64 ndarray. Finiteness is checked once per recorded
# chunk of steps, by metrics.TraceRecorder.record, not by the helpers below.
Vector = np.ndarray


# The index of the last slice along each axis: _LAST[axis].
_LAST = tuple((slice(None),) * axis + (-1,) for axis in range(64))


def index_sum(A: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum of A over axis (a negative axis counts from the back), its slices
    added one by one in index order, never pairwise. np.add.reduce adds
    whole rows in that order when the axis is not the last and A is
    C-contiguous with a trailing length of at least 2; otherwise (a (K, 1)
    column, say) it would sum pairwise, and the running sum
    np.add.accumulate (np.cumsum without its wrapper) adds in order instead."""
    axis %= A.ndim
    if axis < A.ndim - 1 and A.shape[-1] > 1 and A.flags.c_contiguous:
        return np.add.reduce(A, axis=axis)
    return np.add.accumulate(A, axis)[_LAST[axis]]


def vec_mean(vs: list[Vector] | np.ndarray) -> Vector:
    """Coordinatewise mean of a list of vectors or of the rows of a (K, d)
    array, the rows added in index order (index_sum)."""
    if len(vs) == 0:
        raise ValueError("vec_mean of empty list")
    return index_sum(np.asarray(vs)) / len(vs)


def row_dots(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """A[k] @ B[k] for each row (over the last axis); B defaults to A, and
    a shared vector is passed tiled, as np.tile(v, (K, 1))."""
    return np.matmul(A[..., None, :], (A if B is None else B)[..., :, None])[..., 0, 0]


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-z)) of each item, with libm exp.

    Bitwise equal to scipy.special.expit, infinities and NaN included,
    without importing scipy (about 24 MB resident). np.exp of a reversed
    (negative-stride) view skips numpy's SIMD loop and calls libm exp item
    by item. Only an argument above 709 can overflow, and np.errstate costs
    several microseconds, so it is entered only then.
    """
    z = np.asarray(z, dtype=float)
    u = -z.reshape(-1)
    if np.maximum.reduce(u, initial=-math.inf) <= 709.0:  # False on NaN
        e = np.exp(u[::-1])[::-1]
    else:
        with np.errstate(over="ignore"):
            e = np.exp(u[::-1])[::-1]
    np.add(e, 1.0, out=u)  # u's buffer is free now: two temporaries in all
    return np.divide(1.0, u, out=u).reshape(z.shape)


def precondition(a: Vector, g: Vector | np.ndarray) -> Vector | np.ndarray:
    """Apply the inverse of the diagonal matrix diag(a) to g or to each row of g.

    The entries of a are positive by construction (AdaptiveAccumulator.generate
    asserts their floor rho).
    """
    return g / a


@dataclass
class Counters:
    """Run-level complexity ledger.

    sfo_per_client counts stochastic-gradient evaluations on one client
    (all clients consume the same amount); comm_rounds counts
    server-averaging rounds. Every increment is a nonnegative literal of
    algorithms, so add_sfo does not check it.
    """

    sfo_per_client: int = 0
    comm_rounds: int = 0

    def add_sfo(self, n: int) -> None:
        self.sfo_per_client += n

    def add_comm(self) -> None:
        self.comm_rounds += 1
