"""Shipped experiment presets, desk scale.

Epoch convention: one epoch = q local steps, so T = epochs * q.

The synthetic-theorem preset carries step sizes and schedule constants
solved numerically against the synthetic instance's analytic constants
(L_f = tau = 10, mu = 1, K = 10, q = 20, rho = rho_u = 1) so that the
full validator system is satisfied; it exists for validation, not speed.
"""

from __future__ import annotations

from .config import ConfigError, RunConfig, parse_config


PRESET_TEXTS = {
    # 200 epochs of q=20 local steps; grid-searched rates live in the tests.
    "synthetic-s1": """
[problem]
name = synthetic
k = 10
dim = 20
s = 1.0
tau = 10.0

[algorithm]
variant = fgda
gamma = 0.1
lambda = 0.1
q = 20
t = 4000

[output]
csv_dir = out
seeds = 1,2,3
""",
    "synthetic-s10": """
[problem]
name = synthetic
k = 10
dim = 20
s = 10.0
tau = 10.0

[algorithm]
variant = fgda
gamma = 0.1
lambda = 0.1
q = 20
t = 4000

[output]
csv_dir = out
seeds = 1,2,3
""",
    "synthetic-theorem": """
[problem]
name = synthetic
k = 10
dim = 20
s = 1.0
tau = 10.0
seed = 7

[algorithm]
variant = fgda
gamma = 7e-05
lambda = 0.13
eta_n = 1.0
eta_m = 1.0e9
c1 = 451.0
c2 = 4.6
q = 20
t = 200
rho = 1.0
rho_u = 1.0

[output]
csv_dir = out
seeds = 1
""",
    "auc-imbalanced": """
[problem]
name = auc
k = 10
dim = 10
n_per_client = 40
pos_ratio = 0.05

[algorithm]
variant = adafgda_adam
gamma = 0.1
lambda = 0.1
q = 20
t = 2000
rho = 0.3

[output]
csv_dir = out
seeds = 1,2,3
""",
    "robust-q6": """
[problem]
name = robust
k = 10
dim = 10
n_per_client = 40

[algorithm]
variant = fgda
gamma = 0.1
lambda = 0.1
q = 6
t = 1200

[output]
csv_dir = out
seeds = 1,2,3
""",
    "robust-q12": """
[problem]
name = robust
k = 10
dim = 10
n_per_client = 40

[algorithm]
variant = fgda
gamma = 0.1
lambda = 0.1
q = 12
t = 1200

[output]
csv_dir = out
seeds = 1,2,3
""",
}


def preset_names() -> list[str]:
    return sorted(PRESET_TEXTS)


def load_preset(name: str) -> RunConfig:
    if name not in PRESET_TEXTS:
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return parse_config(PRESET_TEXTS[name])
