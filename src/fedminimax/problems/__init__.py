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

__all__ = [
    "AucProblem",
    "EuclideanBall",
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
