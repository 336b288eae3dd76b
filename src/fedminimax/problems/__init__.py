from .base import EuclideanBall, ProblemInstance, Unconstrained, grad_F, grad_full, grad_stoch
from .auc import AucProblem
from .robust import RobustProblem, worst_perturbation
from .synthetic import SyntheticProblem

# Family name -> its class; the [problem] name key picks one.
PROBLEMS = {cls.name: cls for cls in (SyntheticProblem, AucProblem, RobustProblem)}

__all__ = [
    "AucProblem",
    "EuclideanBall",
    "PROBLEMS",
    "ProblemInstance",
    "RobustProblem",
    "SyntheticProblem",
    "Unconstrained",
    "grad_F",
    "grad_full",
    "grad_stoch",
    "worst_perturbation",
]
