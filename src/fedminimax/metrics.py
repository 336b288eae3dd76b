"""Per-step measurement of the quantities the simulator tracks, and trace IO.

Metrics are computed with full simulator access (exact gradients,
closed-form saddle points) even though the algorithms only ever see
stochastic samples; distance-to-saddle and value-function gradients are
oracle quantities by nature.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

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


# The CSV schema: every TraceRecord field but consensus_y, in field order.
CSV_COLUMNS = [f.name for f in fields(TraceRecord) if f.name != "consensus_y"]

# How a cell reads back, by its column's declared type; an empty cell is
# None only in an optional column, and any other type fails here, at import.
_CELL_READERS = {
    "int": int,
    "bool": lambda cell: cell == "1",
    "float": float,
    "float | None": lambda cell: None if cell == "" else float(cell),
}
_COLUMN_READERS = {f.name: _CELL_READERS[f.type] for f in fields(TraceRecord) if f.name in CSV_COLUMNS}


@dataclass
class RunTrace:
    records: list[TraceRecord]
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


def grad_norm_F(inst: ProblemInstance, x_bar: Vector) -> float:
    """Norm of the value-function gradient at x_bar: the x-partial at an
    exact inner maximizer (Danskin's theorem), the closed-form y_star for
    the synthetic and AUC families and ascend_y's endpoint for the robust
    one. Where the robust endpoints tie, F has no gradient and this is the
    partial at the + endpoint.
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
        self,
        t: int,
        is_sync: bool,
        q: int,
        clients,
        counters: Counters,
        x_bar: Vector,
        y_bar: Vector,
    ) -> TraceRecord:
        problem = self.problem
        w_cur = vec_mean(clients.W)
        v_cur = vec_mean(clients.V)
        GX, GY = problem.grad_full_all(clients.X, clients.Y)
        est_err_x = float(np.linalg.norm(w_cur - vec_mean(GX)))
        est_err_y = float(np.linalg.norm(v_cur - vec_mean(GY)))
        consensus_x = float(np.sqrt(row_dots(clients.X - x_bar).max()))
        consensus_y = float(np.sqrt(row_dots(clients.Y - y_bar).max()))

        dist_x_sq = dist_y_sq = None
        if self.x_star is not None:
            dx = x_bar - self.x_star
            dy = y_bar - self.y_star
            dist_x_sq = float(dx @ dx)
            dist_y_sq = float(dy @ dy)

        heavy = self._heavy_due(t, is_sync, q)
        gF = grad_norm_F(problem, x_bar) if (problem.has_closed_form_inner_max or heavy) else None

        auc = auc_score(problem, x_bar) if (self.is_auc and heavy) else None

        rec = TraceRecord(
            t=t,
            is_sync=is_sync,
            dist_x_sq=dist_x_sq,
            dist_y_sq=dist_y_sq,
            grad_norm_F=gF,
            est_err_x=est_err_x,
            est_err_y=est_err_y,
            consensus_x=consensus_x,
            objective=float(problem.global_value(x_bar, y_bar)),
            auc=auc,
            sfo=counters.sfo_per_client,
            comm=counters.comm_rounds,
            consensus_y=consensus_y,
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


def emit_csv(trace: RunTrace, path, config_hash: str | None = None) -> None:
    """Write the trace with the fixed column schema; unavailable fields are
    empty cells, floats carry 17 significant digits (round-trip exact)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in trace.records:
        lines.append(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS))
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
