"""Per-step measurement of the quantities the simulator tracks, and trace IO.

Metrics are computed with full simulator access (exact gradients,
closed-form saddle points) even though the algorithms only ever see
stochastic samples; distance-to-saddle and value-function gradients are
oracle quantities by nature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .core import Counters, Vector, row_dots, vec_mean
from .problems import (
    AucProblem,
    ProblemInstance,
    RobustProblem,
    grad_F,
    project_y,
    saddle_point,
)

CSV_COLUMNS = [
    "t",
    "is_sync",
    "dist_x_sq",
    "dist_y_sq",
    "grad_norm_F",
    "est_err_x",
    "est_err_y",
    "consensus_x",
    "objective",
    "auc",
    "sfo",
    "comm",
]


@dataclass
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


def grad_norm_is_exact(inst: ProblemInstance) -> bool:
    return not isinstance(inst, RobustProblem)


def ascend_y(inst: ProblemInstance, x: Vector, n_steps: int = 200, step_size: float = 0.5,
             y0: Vector | None = None) -> Vector:
    """Projected exact-gradient ascent on y for instances without a
    closed-form inner maximizer."""
    y = np.zeros(inst.p) if y0 is None else y0.copy()
    X = np.tile(x, (inst.K, 1))
    for _ in range(n_steps):
        _, GY = inst.grad_full_all(X, np.tile(y, (inst.K, 1)))
        y = project_y(inst, y + step_size * vec_mean(GY))
    return y


def grad_norm_F(inst: ProblemInstance, x_bar: Vector, ascent_steps: int = 200) -> float:
    """Norm of the value-function gradient at x_bar.

    Closed form for the synthetic and AUC families. The robust family has
    no closed-form inner maximum; its value is approximate, from a projected
    ascent with `ascent_steps` steps (see grad_norm_is_exact).
    """
    if inst.y_star(x_bar) is not None:
        return float(np.linalg.norm(grad_F(inst, x_bar)))
    y = ascend_y(inst, x_bar, n_steps=ascent_steps)
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
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def robust_accuracy(inst: RobustProblem, w: Vector, n_steps: int = 200, step_size: float = 0.5) -> float:
    """Held-out accuracy under the worst perturbation found by projected
    ascent of the held-out loss."""
    X, lab = inst.test_X, inst.test_y
    rho = np.zeros(inst.p)
    for _ in range(n_steps):
        z = X @ w + float(w @ rho)
        s = -lab * expit(-lab * z)
        g = float(s.mean()) * w
        rho = inst.y_constraint.project(rho + step_size * g)
    z = X @ w + float(w @ rho)
    return float((np.sign(z) == lab).mean())


class TraceRecorder:
    """Single-writer, append-only trace collection for one run."""

    def __init__(self, problem: ProblemInstance, config_echo: dict, heavy_cadence: int = 1):
        self.problem = problem
        self.config_echo = config_echo
        self.heavy_cadence = heavy_cadence
        self.records: list[TraceRecord] = []
        sp = saddle_point(problem)
        self.x_star, self.y_star = (sp if sp is not None else (None, None))
        self.is_auc = isinstance(problem, AucProblem)
        self.cheap_grad_norm = grad_norm_is_exact(problem)

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
        gF = None
        if self.cheap_grad_norm:
            gF = grad_norm_F(problem, x_bar)
        elif heavy:
            gF = grad_norm_F(problem, x_bar)

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

    def finish(
        self,
        final_sampled_index: int,
        wall_time_s: float,
        final_iterate: tuple[Vector, Vector] | None = None,
        sampled_iterate: tuple[Vector, Vector] | None = None,
    ) -> RunTrace:
        fx, fy = final_iterate if final_iterate is not None else (None, None)
        sx, sy = sampled_iterate if sampled_iterate is not None else (None, None)
        return RunTrace(
            records=self.records,
            config_echo=self.config_echo,
            final_sampled_index=final_sampled_index,
            wall_time_s=wall_time_s,
            final_x=fx,
            final_y=fy,
            sampled_x=sx,
            sampled_y=sy,
        )


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
    """Re-read an emitted CSV; fields outside the schema come back as None."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {lines[0]}")
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        vals = dict(zip(CSV_COLUMNS, cells))
        records.append(
            TraceRecord(
                t=int(vals["t"]),
                is_sync=vals["is_sync"] == "1",
                dist_x_sq=None if vals["dist_x_sq"] == "" else float(vals["dist_x_sq"]),
                dist_y_sq=None if vals["dist_y_sq"] == "" else float(vals["dist_y_sq"]),
                grad_norm_F=None if vals["grad_norm_F"] == "" else float(vals["grad_norm_F"]),
                est_err_x=float(vals["est_err_x"]),
                est_err_y=float(vals["est_err_y"]),
                consensus_x=float(vals["consensus_x"]),
                objective=float(vals["objective"]),
                auc=None if vals["auc"] == "" else float(vals["auc"]),
                sfo=int(vals["sfo"]),
                comm=int(vals["comm"]),
            )
        )
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
