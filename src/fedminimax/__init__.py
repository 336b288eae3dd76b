"""Deterministic multi-client simulator for federated minimax optimization
with momentum-based variance-reduced local updates and server-generated
adaptive diagonal preconditioners."""

from .algorithms import (
    VARIANTS,
    HyperParams,
    eta_schedule,
    init_round,
    local_step,
    run,
    sync_step,
)
from .core import Counters, precondition, vec_mean
from .estimators import AdaptiveAccumulator, momentum_schedule, storm_update
from .federation import expected_comm_rounds, expected_sfo, partition
from .metrics import RunTrace, TraceRecord, auc_score, emit_csv, grad_norm_F, read_trace_csv
from .problems import AucProblem, RobustProblem, SyntheticProblem
from .theory import (
    ConstantSet,
    ConstraintReport,
    estimate_constants,
    grad_check,
    probe_lipschitz,
    probe_pl,
    validate_theorem1,
    validate_theorem2,
)

__version__ = "0.1.0"
