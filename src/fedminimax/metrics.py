"""Per-step measurement of the quantities the simulator tracks, and trace IO.

Metrics are computed with full simulator access (exact gradients,
closed-form saddle points) even though the algorithms only ever see
stochastic samples; distance-to-saddle and value-function gradients are
oracle quantities by nature. The recorder keeps a copy of each step's
client rows and measures a whole chunk of steps at a time in stacked calls
(one exact oracle call on all its K-row blocks, one index-order sum over
the clients for every cross-client mean, the averaged iterates of the local
steps included; a sync step's average is its row 0, since the sync writes
it into every row), bitwise what one step at a time gives. It first checks
that every step of the chunk is finite. It appends each metric as a column;
run packs the columns into a TraceTable, which reads the records back, and
the CSV is written from that table's columns.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .core import Counters, Vector, index_sum, row_dots
from .problems import AucProblem, ProblemInstance, RobustProblem, worst_perturbation


@dataclass(slots=True)
class TraceRecord:
    t: int
    is_sync: bool
    dist_x_sq: float | None
    dist_y_sq: float | None
    grad_norm_F: float | None
    est_err_x: float
    est_err_y: float
    consensus_x: float
    objective: float
    auc: float | None
    sfo: int
    comm: int
    # Kept in memory for the sync invariants, on sync records only; not part
    # of the CSV schema.
    consensus_y: float | None = None


_FIELDS = fields(TraceRecord)
# The CSV schema: every TraceRecord field but consensus_y, in field order.
CSV_COLUMNS = [f.name for f in _FIELDS if f.name != "consensus_y"]

# How a cell reads back, by its column's declared type; an empty cell is
# None only in an optional column, and any other type fails here, at import.
_CELL_READERS = {
    "int": int,
    "bool": lambda cell: cell == "1",
    "float": float,
    "float | None": lambda cell: None if cell == "" else float(cell),
}
_COLUMN_READERS = {f.name: _CELL_READERS[f.type] for f in _FIELDS if f.name in CSV_COLUMNS}

_ROW = attrgetter(*(f.name for f in _FIELDS))
_INTS = [j for j, f in enumerate(_FIELDS) if f.type == "int"]
_BOOLS = [j for j, f in enumerate(_FIELDS) if f.type == "bool"]
_FLOATS = [j for j, f in enumerate(_FIELDS) if f.type in ("float", "float | None")]
_OPTIONAL = [j for j, f in enumerate(_FIELDS) if f.type == "float | None"]
_DTYPES = {"int": np.int64, "bool": bool}


@dataclass(slots=True, eq=False)
class TraceTable(Sequence[TraceRecord]):
    """TraceRecords packed by column into few bytes, every bit kept:

    - ints: the int fields, as rows of the smallest integer dtype that holds
      every value;
    - flags: the bool fields, then one row per optional field that marks the
      records that have it, eight records to a byte (np.packbits);
    - floats: the float fields in field order, one after another, each as
      the float64 values of the records that have it (every record, for a
      required field).

    An int index reads back its own row as a TraceRecord, a slice a list of
    them, and column(j) gives field j of every record."""

    ints: np.ndarray
    flags: np.ndarray
    floats: np.ndarray

    @classmethod
    def pack(cls, records: Sequence[TraceRecord]) -> TraceTable:
        cols = list(zip(*map(_ROW, records))) or [()] * len(_FIELDS)
        return cls.from_columns(cols, [[v is not None for v in cols[j]] for j in _OPTIONAL])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], has: Sequence[Sequence[bool]]) -> TraceTable:
        """The table of cols[j], field j of every record, where has[i] marks
        the records that have optional field i (in field order); an absent
        value may be anything that converts to a float, None or NaN."""
        flags = np.array([cols[j] for j in _BOOLS] + list(has), bool)
        ints = np.array([cols[j] for j in _INTS], np.int64)
        if ints.size:
            ints = ints.astype(np.result_type(np.min_scalar_type(ints.min()), np.min_scalar_type(ints.max())))
        present = dict(zip(_OPTIONAL, flags[len(_BOOLS):]))
        floats = [np.asarray(cols[j], float) for j in _FLOATS]  # None converts to NaN, then drops out
        floats = np.concatenate([v[present[j]] if j in present else v for j, v in zip(_FLOATS, floats)])
        return cls(ints, np.packbits(flags, axis=1), floats)

    def __len__(self) -> int:
        return self.ints.shape[1]

    def _layout(self) -> tuple[np.ndarray, dict[int, tuple[int, np.ndarray | None]]]:
        """The flags unpacked, and for each float field where its values
        start in floats and the row of records that have it (None for a
        required field)."""
        n = len(self)
        bits = np.unpackbits(self.flags, axis=1, count=n).astype(bool)
        present = dict(zip(_OPTIONAL, bits[len(_BOOLS):]))
        spans, start = {}, 0
        for j in _FLOATS:
            has = present.get(j)
            spans[j] = (start, has)
            start += n if has is None else int(np.count_nonzero(has))
        return bits, spans

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # negative indices and IndexError as for a list
        bits, spans = self._layout()
        row = dict(zip(_INTS, self.ints[:, i].tolist()))
        row.update(zip(_BOOLS, bits[:len(_BOOLS), i].tolist()))
        for j, (start, has) in spans.items():  # an absent optional field stays None
            if has is None:
                row[j] = self.floats[start + i].item()
            elif has[i]:
                row[j] = self.floats[start + int(np.count_nonzero(has[:i]))].item()
        return TraceRecord(*map(row.get, range(len(_FIELDS))))

    def __iter__(self):
        return map(TraceRecord, *map(self.column, range(len(_FIELDS))))

    def column(self, j: int) -> list:
        """Field j of every record as Python values, None where absent."""
        if j in _INTS:
            return self.ints[_INTS.index(j)].tolist()
        bits, spans = self._layout()
        if j in _BOOLS:
            return bits[_BOOLS.index(j)].tolist()
        start, has = spans[j]
        if has is None:
            return self.floats[start:start + len(self)].tolist()
        values = iter(self.floats[start:start + np.count_nonzero(has)].tolist())
        return [next(values) if h else None for h in has.tolist()]


@dataclass
class RunTrace:
    """One run's outcome. algorithms.run returns its records packed in a
    TraceTable; any sequence of TraceRecords, a list say, serves as well."""

    records: Sequence[TraceRecord]
    config_echo: dict
    final_sampled_index: int
    wall_time_s: float = 0.0
    final_x: Vector | None = None
    final_y: Vector | None = None
    sampled_x: Vector | None = None
    sampled_y: Vector | None = None

    def sync_records(self) -> list[TraceRecord]:
        return [r for r in self.records if r.is_sync]

    def final(self) -> TraceRecord:
        return self.records[-1]


def ascend_y(inst: RobustProblem, x: Vector | np.ndarray) -> Vector | np.ndarray:
    """Exact inner maximizer of the robust family at x: the endpoint
    +-r x/||x|| with the larger global_value, + on a tie (or a NaN value)
    and zeros at x = 0 (problems.robust.worst_perturbation's rule). At S
    stacked rows x (S, d), the (S, p) rows of each row's maximizer, bitwise,
    from one global_value call at the 2S endpoints; ||x|| is
    sqrt(row_dots(x)), bitwise np.linalg.norm (see core)."""
    X = np.atleast_2d(x)
    norm = np.sqrt(row_dots(X))[:, None]
    zero = norm == 0.0
    plus = X * (inst.y_constraint.radius / np.where(zero, 1.0, norm))
    ends = np.stack([plus, -plus], axis=1)  # (S, 2, p), sharing each row's x
    vals = inst.global_value(X[:, None], ends)
    y = np.where(vals[:, 1:] > vals[:, :1], ends[:, 1], plus)
    y[zero[:, 0]] = 0.0
    return y if x.ndim == 2 else y[0]


def grad_norm_F(inst: ProblemInstance, x_bar: Vector) -> float:
    """Norm of the value-function gradient at x_bar: the x-partial at an
    exact maximizer of y -> f(x_bar, y) (Danskin's theorem), y_star or, for
    the robust family, ascend_y's endpoint. Where the robust endpoints tie,
    F has no gradient and this is the partial at the + endpoint. The
    recorder reports these bits from its one oracle call per chunk.
    """
    y = inst.y_star(x_bar) if inst.has_closed_form_inner_max else ascend_y(inst, x_bar)
    gx, _ = inst.global_grad(x_bar, y)
    return float(np.linalg.norm(gx))


def auc_score(inst: ProblemInstance, w: Vector) -> float:
    """Exact pairwise AUC of the linear scorer on the pooled held-out set.

    Ties count one half. Accepts either the bare scorer w or the full
    minimization variable (w, a, b).
    """
    if not isinstance(inst, AucProblem):
        raise TypeError(f"auc_score requires an AUC instance, got {inst.name}")
    w = np.asarray(w, dtype=float)
    if w.shape[0] == inst.d:
        w = w[: inst.dim]
    if w.shape[0] != inst.dim:
        raise ValueError(f"scorer dimension {w.shape[0]} does not match {inst.dim}")
    scores = inst.test_X @ w
    pos = inst.test_y > 0
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("held-out set must contain both classes")
    if np.isnan(scores).any():  # unordered, as a rank sum would report
        return math.nan
    # Twice the Mann-Whitney count: each negative scored below a positive
    # counts 2, a tie 1 (integers, so the one division is the only rounding).
    neg = np.sort(scores[~pos])
    twice = np.searchsorted(neg, scores[pos], "left") + np.searchsorted(neg, scores[pos], "right")
    return float(twice.sum() / (2 * n_pos * n_neg))


def robust_accuracy(inst: RobustProblem, w: Vector) -> float:
    """Held-out accuracy under the perturbation that maximizes the held-out
    logistic loss, by the same two-endpoint rule as ascend_y."""
    lab = inst.test_y
    margins = inst.test_X @ w
    rho = worst_perturbation(
        w, inst.y_constraint.radius, lambda rho: float(np.logaddexp(0.0, -lab * (margins + float(w @ rho))).mean())
    )
    z = margins + float(w @ rho)
    return float((np.sign(z) == lab).mean())


# Client rows (K per step) the recorder measures per call. Its buffers grow
# with them; the robust exact oracle's slopes stay within its _ORACLE_ELEMENTS
# (robust-q6's 29 blocks a call in one piece). At least three steps: a call's
# fixed ~80 numpy calls were half of a K = 100 run at two; five raise its peak 1.4x.
_RECORD_ROWS = 250


class TraceRecorder:
    """Single-writer, append-only trace collection for one run of T steps
    that syncs every q steps: add keeps a copy of a step, and each record
    call measures the steps kept and writes their cells into one (T,)
    buffer per field, and one presence mask per optional field. It keeps
    copies of the averaged iterates (x_bar, y_bar) of the last step
    recorded, as last, and of step sampled_t, as sampled.

    The steps not yet recorded, at most capacity of them (at least
    three), are each step's t and counters and copies of its client rows
    (the steps update the clients' rows in place), in buffers allocated
    once and laid out for the stacked calls:

    - X, Y: the exact oracle's input rows, each step's K client rows, then
      room for a K-row block of (x_bar, y*) per step;
    - M: per step and client, W and V, then room for the exact gradients
      whose cross-client means record takes with them.
    """

    def __init__(self, problem: ProblemInstance, q: int, T: int, heavy_cadence: int = 1,
                 sampled_t: int | None = None):
        self.problem = problem
        self.q = q
        self.heavy_cadence = heavy_cadence
        self.sampled_t = sampled_t
        self.last = self.sampled = (None, None)
        self.n = 0  # steps recorded
        self.columns = {f.name: np.empty(T, _DTYPES.get(f.type, float)) for f in _FIELDS}
        self.has = {_FIELDS[j].name: np.zeros(T, bool) for j in _OPTIONAL}
        sp = problem.saddle()
        self.x_star, self.y_star = (sp if sp is not None else (None, None))
        self.is_auc = isinstance(problem, AucProblem)
        K, d, p = problem.K, problem.d, problem.p
        self.capacity = max(3, _RECORD_ROWS // K)
        self.steps: list[tuple[int, int, int]] = []  # (t, sfo, comm)
        self.X, self.Y = np.empty((2 * self.capacity * K, d)), np.empty((2 * self.capacity * K, p))
        self.M = np.zeros((self.capacity, K, 3 * d + 2 * p))
        # the column slices of M: W, V, then the exact GY, GX and GX at (x_bar, y*)
        cuts = list(itertools.accumulate([0, d, p, p, d, d]))
        self._stacked = [slice(a, b) for a, b in zip(cuts, cuts[1:])]

    def add(self, t: int, clients, counters: Counters) -> None:
        """Keep step t; record the steps kept once the buffers are full."""
        i, (K, d) = len(self.steps), clients.W.shape
        self.steps.append((t, counters.sfo_per_client, counters.comm_rounds))
        self.X[i * K:(i + 1) * K], self.Y[i * K:(i + 1) * K] = clients.X, clients.Y
        self.M[i, :, :d], self.M[i, :, d:d + clients.V.shape[1]] = clients.W, clients.V
        if i + 1 == self.capacity:
            self.record()

    def record(self) -> None:
        """Check and measure every step kept, then empty the buffers.

        A non-finite entry in any step's X, Y, W or V raises
        FloatingPointError naming the first such step, before anything is
        measured, and so does a non-finite objective (finite iterates whose
        value overflows) once it is taken. Each metric is computed for all
        the steps at once, every bit as one step at a time:

        - one index-order sum (core.index_sum: an add.reduce adding whole
          rows, or a running sum for a (., 1) column) over the K axis of an
          (S, K, .) stack for every cross-client mean: first the local
          steps' x_bar and y_bar (vec_mean's bits); a sync step's are its
          row 0 (t % q == 0);
        - one exact-oracle call on the steps' K-row blocks, then (x_bar, y*)
          repeated K times for each step whose grad_norm_F is due, as
          global_grad tiles it;
        - row_dots for every norm, distance and consensus value;
        - y_star and global_value at the S stacked points."""
        S = len(self.steps)
        if not S:
            return
        problem, K, d, p = self.problem, self.problem.K, self.problem.d, self.problem.p
        a, b, SK = self.n, self.n + S, S * K
        t, sfo, comm = zip(*self.steps)
        is_sync = [step % self.q == 0 for step in t]
        X, Y = self.X[:SK].reshape(S, K, d), self.Y[:SK].reshape(S, K, p)
        M = self.M[:S]
        states = X, Y, M[..., :d + p]  # W and V side by side
        if not all(np.isfinite(A).all() for A in states):
            finite = np.logical_and.reduce([np.isfinite(A).all(axis=(1, 2)) for A in states])
            raise FloatingPointError(f"non-finite iterate or estimate at t={t[int(np.argmin(finite))]}")
        sync = np.flatnonzero(is_sync)
        x_bar, y_bar = index_sum(X, axis=1) / K, index_sum(Y, axis=1) / K
        x_bar[sync], y_bar[sync] = X[sync, 0], Y[sync, 0]
        objective = problem.global_value(x_bar, y_bar)
        if not np.isfinite(objective).all():
            raise FloatingPointError(f"non-finite objective at t={t[int(np.argmin(np.isfinite(objective)))]}")
        self.last = x_bar[-1].copy(), y_bar[-1].copy()
        if self.sampled_t in t:
            i = t.index(self.sampled_t)
            self.sampled = x_bar[i].copy(), y_bar[i].copy()

        cols, has = self.columns, self.has
        cols["t"][a:b], cols["is_sync"][a:b], cols["sfo"][a:b], cols["comm"][a:b] = t, is_sync, sfo, comm
        cadence = self.heavy_cadence
        heavy = [s and cadence > 0 and (step // self.q) % cadence == 0 for step, s in zip(t, is_sync)]

        # grad_norm_F is due at every step of a closed-form family, else at heavy ones
        if problem.has_closed_form_inner_max:
            due = slice(None)
            x_due = x_bar
            y_due = problem.y_star(x_due)
            has["grad_norm_F"][a:b] = True
        else:
            due = np.flatnonzero(heavy)
            x_due = x_bar[due]
            y_due = ascend_y(problem, x_due) if len(due) else np.empty((0, p))
            has["grad_norm_F"][a:b] = heavy
        n = (S + len(x_due)) * K
        self.X[SK:n].reshape(-1, K, d)[:] = x_due[:, None]
        self.Y[SK:n].reshape(-1, K, p)[:] = y_due[:, None]
        GX, GY = problem.grad_full_all(self.X[:n], self.Y[:n])
        w_cur, v_cur, gy, gx, gx_star = self._stacked
        M[..., gy] = GY[:SK].reshape(S, K, p)
        M[..., gx] = GX[:SK].reshape(S, K, d)
        if len(x_due) < S:
            M[..., gx_star] = 0.0  # no stale gradients where grad_norm_F is not due
        M[due, :, gx_star] = GX[SK:].reshape(-1, K, d)
        m = index_sum(M, axis=1) / K
        cols["grad_norm_F"][a:b][due] = np.sqrt(row_dots(m[due, gx_star]))
        cols["est_err_x"][a:b] = np.sqrt(row_dots(m[:, w_cur] - m[:, gx]))
        cols["est_err_y"][a:b] = np.sqrt(row_dots(m[:, v_cur] - m[:, gy]))

        cols["consensus_x"][a:b] = np.sqrt(np.maximum.reduce(row_dots(X - x_bar[:, None]), axis=1))
        cols["consensus_y"][a:b][sync] = np.sqrt(np.maximum.reduce(row_dots(Y[sync] - y_bar[sync, None]), axis=1))
        has["consensus_y"][a:b] = is_sync
        cols["objective"][a:b] = objective
        if self.x_star is not None:
            cols["dist_x_sq"][a:b] = row_dots(x_bar - self.x_star)
            cols["dist_y_sq"][a:b] = row_dots(y_bar - self.y_star)
            has["dist_x_sq"][a:b] = has["dist_y_sq"][a:b] = True
        if self.is_auc:
            for i in np.flatnonzero(heavy):
                cols["auc"][a + i] = auc_score(problem, x_bar[i])
            has["auc"][a:b] = heavy
        self.n = b
        self.steps.clear()

    def table(self) -> TraceTable:
        """Every step recorded so far, packed."""
        return TraceTable.from_columns([c[:self.n] for c in self.columns.values()],
                                       [h[:self.n] for h in self.has.values()])


# How a cell prints, by its column's declared type; a missing cell is empty.
_CELL_WRITERS = {
    "int": str,
    "bool": lambda v: "1" if v else "0",
    "float": lambda v: format(v, ".17g"),
    "float | None": lambda v: "" if v is None else format(v, ".17g"),
}
_WRITERS = {f.name: _CELL_WRITERS[f.type] for f in _FIELDS}
_CSV_WRITERS = [(j, _WRITERS[f.name]) for j, f in enumerate(_FIELDS) if f.name in CSV_COLUMNS]


def emit_csv(trace: RunTrace, path, config_hash: str | None = None) -> None:
    """Write the trace with the fixed column schema; unavailable fields are
    empty cells, floats carry 17 significant digits (round-trip exact).
    Cells are formatted a column at a time, from the trace's TraceTable (a
    list of records is packed into one first)."""
    table = trace.records if isinstance(trace.records, TraceTable) else TraceTable.pack(trace.records)
    columns = [list(map(write, table.column(j))) for j, write in _CSV_WRITERS]
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]
    if config_hash is not None:
        lines.append(f"# config_sha256={config_hash}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[TraceRecord]:
    """Re-read an emitted CSV; fields outside the schema come back as None.
    A missing header or a row whose cell count differs from the header's is
    a ValueError."""
    with open(path) as fh:
        rows = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValueError("no CSV header: the file is empty or holds only comments")
    if rows[0][1].split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {rows[0][1]}")
    records = []
    for n, ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"line {n}: {len(cells)} cells, expected {len(CSV_COLUMNS)}")
        records.append(TraceRecord(**{col: read(cell) for (col, read), cell in zip(_COLUMN_READERS.items(), cells)}))
    return records


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode()).hexdigest()[:16]


def render_summary(trace: RunTrace) -> str:
    """Human-readable run summary: final values, counters, wall time."""
    last = trace.final()
    lines = ["run summary", "-----------"]
    for key in ("t", "dist_x_sq", "dist_y_sq", "grad_norm_F", "objective", "auc"):
        val = getattr(last, key)
        if val is not None:
            lines.append(f"final_{key}={_WRITERS[key](val)}")
    lines.append(f"sfo_per_client={last.sfo}")
    lines.append(f"comm_rounds={last.comm}")
    lines.append(f"final_sampled_index={trace.final_sampled_index}")
    lines.append(f"wall_time_s={trace.wall_time_s:.3f}")
    for key, val in trace.config_echo.items():
        lines.append(f"config.{key}={val}")
    return "\n".join(lines)
