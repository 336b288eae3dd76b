"""The benchmark's workloads, the `fedmm run` call sequence for one seed,
and the output checks.

Every fedminimax function is looked up through its module at call time
(`algorithms.run`, not a name bound at import), so the span wrappers that
`layers.traced` installs are the ones called while tracing is on and the
originals are called otherwise. README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from fedminimax import algorithms, config, federation, metrics, presets, theory


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    why: str


# T is shortened from the shipped presets, with q kept, so that one seed
# takes one to three seconds on a 2-core machine and a run repeats it often.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synthetic-k100",
            "synthetic-s1",
            {"problem.k": "100", "problem.dim": "20", "algorithm.variant": "fgda",
             "algorithm.q": "20", "algorithm.t": "200"},
            "K=100 clients of per-client local-step arithmetic and constants estimation; no ascent",
        ),
        Workload(
            "auc-imbalanced",
            "auc-imbalanced",
            {"algorithm.t": "400"},
            "adaptive adafgda_adam, by-group split, closed-form metrics recorded at every step",
        ),
        Workload(
            "robust-q6",
            "robust-q6",
            {"algorithm.t": "120"},
            "iid split, sync every 6 steps, 200-step exact-gradient ascent at each sync",
        ),
    )
}

_ADAPTIVE = (algorithms.VARIANT_ADAFGDA_ADAM, algorithms.VARIANT_ADAFGDA_ADABELIEF)


@dataclass
class SeedRun:
    """Timings and outputs of one seed of `fedmm run`."""

    setup_s: float
    run_s: float
    wall_s: float
    client_steps: int
    T: int
    q: int
    trace: metrics.RunTrace
    csv_path: Path

    @property
    def client_steps_per_s(self) -> float:
        return self.client_steps / self.run_s


def run_once(workload: Workload, seed: int, out_dir: Path,
             between: Callable[[], object] | None = None) -> SeedRun:
    """One seed of `fedmm run --preset <preset> <overrides>`, writing its CSV
    and summary into `out_dir`, with the same public calls in the same order.

    `between`, if given, is called after set-up and after `algorithms.run`,
    outside the timed phases; `wall_s` is the sum of the three phases."""
    between = between or (lambda: None)
    t0 = time.perf_counter()
    cfg = config.apply_overrides(presets.load_preset(workload.preset), workload.overrides)
    chash = metrics.config_hash(config.render_config(cfg))
    problem = cfg.build_problem(seed)
    hp = cfg.hp_for_seed(seed)
    constants = theory.estimate_constants(
        problem, n_samples=50, seed=hp.seed, rho=hp.rho, rho_u=hp.rho_u
    ).with_safety_margin()
    validate = theory.validate_theorem1 if hp.variant in _ADAPTIVE else theory.validate_theorem2
    validate(hp, constants, problem.K)
    t1 = time.perf_counter()
    between()
    t1b = time.perf_counter()
    trace = algorithms.run(problem, hp, heavy_cadence=cfg.output.heavy_cadence)
    t2 = time.perf_counter()
    between()
    t2b = time.perf_counter()
    stem = f"{problem.name}_{hp.variant}_seed{seed}"
    csv_path = out_dir / f"{stem}.csv"
    metrics.emit_csv(trace, csv_path, config_hash=chash)
    (out_dir / f"{stem}.summary.txt").write_text(metrics.render_summary(trace) + "\n")
    t3 = time.perf_counter()
    return SeedRun(
        setup_s=t1 - t0,
        run_s=t2 - t1b,
        wall_s=(t1 - t0) + (t2 - t1b) + (t3 - t2b),
        client_steps=problem.K * (hp.T - hp.T // hp.q),
        T=hp.T,
        q=hp.q,
        trace=trace,
        csv_path=csv_path,
    )


def check_outputs(trace: metrics.RunTrace, csv_path: Path, T: int, q: int) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    problems = []
    last = trace.final()
    if last.t != T:
        problems.append(f"final t={last.t}, expected {T}")
    if last.sfo != federation.expected_sfo(T, q):
        problems.append(f"sfo={last.sfo}, expected {federation.expected_sfo(T, q)}")
    if last.comm != federation.expected_comm_rounds(T, q):
        problems.append(f"comm={last.comm}, expected {federation.expected_comm_rounds(T, q)}")
    if not math.isfinite(last.objective):
        problems.append(f"final objective {last.objective} is not finite")
    nonzero = [r.t for r in trace.sync_records() if r.consensus_x != 0.0]
    if nonzero:
        problems.append(f"nonzero consensus_x on sync records t={nonzero[:5]}")
    try:
        reread = metrics.read_trace_csv(csv_path)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"CSV does not parse: {exc}"]
    if len(reread) != len(trace.records):
        problems.append(f"CSV has {len(reread)} records, trace has {len(trace.records)}")
    for mem, disk in zip(trace.records, reread):
        diff = [f for f in metrics.CSV_COLUMNS if getattr(mem, f) != getattr(disk, f)]
        if diff:
            problems.append(f"CSV record t={mem.t} differs from the trace in {diff}")
            break
    return problems


def csv_digest(csv_path: Path) -> str:
    return hashlib.sha256(csv_path.read_bytes()).hexdigest()
