from .base import (
    EuclideanBall,
    ProblemInstance,
    SampleRef,
    Unconstrained,
    grad_F,
    grad_full,
    grad_stoch,
    project_y,
    saddle_point,
)
from .auc import AucProblem, make_auc
from .robust import RobustProblem, make_robust, worst_perturbation
from .synthetic import SyntheticProblem, make_synthetic

# Family name -> its class; the [problem] name key picks one.
PROBLEMS = {cls.name: cls for cls in (SyntheticProblem, AucProblem, RobustProblem)}

__all__ = [
    "AucProblem",
    "EuclideanBall",
    "PROBLEMS",
    "ProblemInstance",
    "RobustProblem",
    "SampleRef",
    "SyntheticProblem",
    "Unconstrained",
    "grad_F",
    "grad_full",
    "grad_stoch",
    "make_auc",
    "make_robust",
    "make_synthetic",
    "project_y",
    "saddle_point",
    "worst_perturbation",
]
