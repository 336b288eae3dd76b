"""Per-step measurement of the quantities the simulator tracks, and trace IO.

Metrics are computed with full simulator access (exact gradients,
closed-form saddle points) even though the algorithms only ever see
stochastic samples; distance-to-saddle and value-function gradients are
oracle quantities by nature. The recorder builds one TraceRecord per step;
run packs them by column into a TraceTable, which reads them back unchanged,
and the CSV is written from that table's columns.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .core import Counters, Vector, row_dots, vec_mean
from .problems import AucProblem, ProblemInstance, RobustProblem, saddle_point, worst_perturbation


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
    # Kept in memory for the sync invariants; not part of the CSV schema.
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


def _stored_floats(flags: np.ndarray) -> list[int]:
    """The float fields a TraceTable stores: all but the optional ones that
    no record has (read from the table's flags)."""
    has = dict(zip(_OPTIONAL, flags[len(_BOOLS):].any(axis=1).tolist()))
    return [j for j in _FLOATS if has.get(j, True)]


@dataclass(slots=True, eq=False)
class TraceTable(Sequence[TraceRecord]):
    """TraceRecords packed by column into few bytes, every bit kept:

    - ints: the int fields, as rows of the smallest integer dtype that holds
      every value;
    - flags: the bool fields, then one row per optional field that marks the
      records that have it;
    - floats: the float fields in field order as float64 rows (NaN where a
      record lacks the field), less the optional fields no record has.

    A row reads back as its TraceRecord, a slice as a list of them, and
    column(j) gives field j of every record."""

    ints: np.ndarray
    flags: np.ndarray
    floats: np.ndarray

    @classmethod
    def pack(cls, records: Sequence[TraceRecord]) -> TraceTable:
        cols = list(zip(*map(_ROW, records))) or [()] * len(_FIELDS)
        flags = np.array([cols[j] for j in _BOOLS] + [[v is not None for v in cols[j]] for j in _OPTIONAL], bool)
        ints = np.array([cols[j] for j in _INTS], np.int64)
        if ints.size:
            ints = ints.astype(np.result_type(np.min_scalar_type(ints.min()), np.min_scalar_type(ints.max())))
        # None packs as NaN; flags tell the two apart
        return cls(ints, flags, np.array([cols[j] for j in _stored_floats(flags)], float))

    def __len__(self) -> int:
        return self.flags.shape[1]

    def __getitem__(self, i):
        rows = list(zip(*map(self.column, range(len(_FIELDS)))))
        return [TraceRecord(*row) for row in rows[i]] if isinstance(i, slice) else TraceRecord(*rows[i])

    def __iter__(self):
        return map(TraceRecord, *map(self.column, range(len(_FIELDS))))

    def column(self, j: int) -> list:
        """Field j of every record as Python values, None where absent."""
        if j in _INTS:
            return self.ints[_INTS.index(j)].tolist()
        if j in _BOOLS:
            return self.flags[_BOOLS.index(j)].tolist()
        stored = _stored_floats(self.flags)
        if j not in stored:
            return [None] * len(self)
        values = self.floats[stored.index(j)].tolist()
        if j in _OPTIONAL:
            has = self.flags[len(_BOOLS) + _OPTIONAL.index(j)].tolist()
            values = [v if h else None for v, h in zip(values, has)]
        return values


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


def ascend_y(inst: RobustProblem, x: Vector) -> Vector:
    """Exact inner maximizer of the robust family at x: the endpoint
    +-r x/||x|| with the larger global_value, + on a tie and zeros at
    x = 0 (see problems.robust)."""
    return worst_perturbation(x, inst.y_constraint.radius, lambda y: inst.global_value(x, y))


def inner_maximizer(inst: ProblemInstance, x: Vector) -> Vector:
    """An exact maximizer of y -> f(x, y): y_star, or ascend_y's endpoint for the robust family."""
    return inst.y_star(x) if inst.has_closed_form_inner_max else ascend_y(inst, x)


def grad_norm_F(inst: ProblemInstance, x_bar: Vector) -> float:
    """Norm of the value-function gradient at x_bar: the x-partial at
    inner_maximizer(inst, x_bar) (Danskin's theorem). Where the robust
    endpoints tie, F has no gradient and this is the partial at the +
    endpoint. The recorder reports these bits from its one oracle call.
    """
    gx, _ = inst.global_grad(x_bar, inner_maximizer(inst, x_bar))
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


class TraceRecorder:
    """Single-writer, append-only trace collection for one run."""

    def __init__(self, problem: ProblemInstance, heavy_cadence: int = 1):
        self.problem = problem
        self.heavy_cadence = heavy_cadence
        self.records: list[TraceRecord] = []
        sp = saddle_point(problem)
        self.x_star, self.y_star = (sp if sp is not None else (None, None))
        self.is_auc = isinstance(problem, AucProblem)

    def _heavy_due(self, t: int, is_sync: bool, q: int) -> bool:
        if not is_sync or self.heavy_cadence <= 0:
            return False
        return (t // q) % self.heavy_cadence == 0

    def record(
        self, t: int, is_sync: bool, q: int, clients, counters: Counters, x_bar: Vector, y_bar: Vector
    ) -> TraceRecord:
        """Measure step t. Every exact gradient comes from one oracle call:
        the clients' own points, then, when grad_norm_F is due, (x_bar, y*)
        tiled as global_grad tiles it, which keeps grad_norm_F's bits."""
        problem, K, d, p = self.problem, self.problem.K, self.problem.d, self.problem.p
        heavy = self._heavy_due(t, is_sync, q)
        X, Y = clients.X, clients.Y
        if problem.has_closed_form_inner_max or heavy:
            X = np.concatenate([X, np.tile(x_bar, (K, 1))])
            Y = np.concatenate([Y, np.tile(inner_maximizer(problem, x_bar), (K, 1))])
        GX, GY = problem.grad_full_all(X, Y)
        # One index-order mean over the blocks side by side: each block's own bits.
        m = vec_mean(np.concatenate([clients.W, clients.V, GY[:K], *GX.reshape(-1, K, d)], axis=1))
        w_cur, v_cur, gy, gx, gx_star = m[:d], m[d:d + p], m[d + p:d + 2 * p], m[d + 2 * p:2 * (d + p)], m[2 * (d + p):]

        dist_x_sq = dist_y_sq = None
        if self.x_star is not None:
            dx, dy = x_bar - self.x_star, y_bar - self.y_star
            dist_x_sq, dist_y_sq = float(dx @ dx), float(dy @ dy)

        rec = TraceRecord(
            t=t, is_sync=is_sync, dist_x_sq=dist_x_sq, dist_y_sq=dist_y_sq,
            grad_norm_F=float(np.linalg.norm(gx_star)) if len(gx_star) else None,
            est_err_x=float(np.linalg.norm(w_cur - gx)), est_err_y=float(np.linalg.norm(v_cur - gy)),
            consensus_x=float(np.sqrt(row_dots(clients.X - x_bar).max())),
            objective=float(problem.global_value(x_bar, y_bar)),
            auc=auc_score(problem, x_bar) if (self.is_auc and heavy) else None,
            sfo=counters.sfo_per_client, comm=counters.comm_rounds,
            consensus_y=float(np.sqrt(row_dots(clients.Y - y_bar).max())),
        )
        self.records.append(rec)
        return rec


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# How a cell prints, by its column's declared type; a missing cell is empty.
_CELL_WRITERS = {
    "int": str,
    "bool": lambda v: "1" if v else "0",
    "float": lambda v: format(v, ".17g"),
    "float | None": lambda v: "" if v is None else format(v, ".17g"),
}
_CSV_WRITERS = [(j, _CELL_WRITERS[f.type]) for j, f in enumerate(_FIELDS) if f.name in CSV_COLUMNS]


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
            lines.append(f"final_{key}={_fmt(val)}")
    lines.append(f"sfo_per_client={last.sfo}")
    lines.append(f"comm_rounds={last.comm}")
    lines.append(f"final_sampled_index={trace.final_sampled_index}")
    lines.append(f"wall_time_s={trace.wall_time_s:.3f}")
    for key, val in trace.config_echo.items():
        lines.append(f"config.{key}={val}")
    return "\n".join(lines)
