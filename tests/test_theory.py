import math

import numpy as np
import pytest
from dataclasses import replace

import fedminimax as fm
from fedminimax.algorithms import HyperParams
from fedminimax.config import apply_overrides
from fedminimax.presets import load_preset, preset_names
from fedminimax import theory
from fedminimax.core import index_sum, row_dots
from fedminimax.theory import (
    CONSTRAINT_NAMES,
    ConstantSet,
    _estimate_heterogeneity,
    _estimate_pl_ratio,
    _max_pairwise_distance,
    estimate_constants,
    grad_check,
    pl_slack,
    probe_lipschitz,
    probe_pl,
    validate_theorem1,
    validate_theorem2,
)

from test_problems import _plain_robust_L_f


@pytest.fixture(scope="module")
def synth_constants():
    return ConstantSet(L_f=10.0, mu=1.0, sigma=0.5, delta_x=1.0, delta_y=5.0, rho=1.0, rho_u=1.0)


@pytest.fixture(scope="module")
def passing_hp():
    # solved numerically against L_f=10, mu=1, K=10, q=20, rho=rho_u=1
    return HyperParams(
        variant="fgda", gamma=7e-5, lam=0.13, eta_n=1.0, eta_m=1.0e9,
        c1=451.0, c2=4.6, q=20, T=100, rho=1.0, rho_u=1.0, seed=0,
    )


class TestValidator:
    def test_exactly_ten_named_constraints(self, passing_hp, synth_constants):
        report = validate_theorem1(passing_hp, synth_constants, K=10)
        assert len(report.constraints) == 10
        assert [c.name for c in report.constraints] == list(CONSTRAINT_NAMES)

    def test_passing_configuration(self, passing_hp, synth_constants):
        report = validate_theorem1(passing_hp, synth_constants, K=10)
        assert report.all_satisfied, report.render()

    def test_passing_theorem1_at_unit_floors_passes_theorem2(self, passing_hp, synth_constants):
        assert validate_theorem2(passing_hp, synth_constants, K=10).all_satisfied

    def test_gamma_violation_reported_independently(self, passing_hp, synth_constants):
        report = validate_theorem1(passing_hp, synth_constants, K=10)
        bound = report.by_name("gamma_upper").rhs
        bad = replace(passing_hp, gamma=10.0 * bound)
        rep = validate_theorem1(bad, synth_constants, K=10)
        assert not rep.by_name("gamma_upper").satisfied
        # the other upper bounds are still evaluated on their own terms
        assert rep.by_name("lambda_upper").satisfied
        assert rep.by_name("rho_range").satisfied

    def test_rho_u_boundary_equality(self, passing_hp, synth_constants):
        c = replace(synth_constants, rho_u=135.0 / 64.0)
        rep = validate_theorem1(passing_hp, c, K=10)
        rec = rep.by_name("rho_u_range")
        assert rec.satisfied and rec.lhs == pytest.approx(rec.rhs)

    def test_lambda_bound_violation(self, passing_hp, synth_constants):
        bad = replace(passing_hp, lam=100.0)
        rep = validate_theorem2(bad, synth_constants, K=10)
        assert not rep.by_name("lambda_upper").satisfied

    @pytest.mark.parametrize(
        "name,mutate",
        [
            ("m_min_two", dict(eta_m=1.9, eta_n=0.1)),
            ("m_lower", dict(eta_m=2.0, eta_n=2.0)),
            ("c_square_upper", dict(c1=1e6)),
            ("c1_lower", dict(c1=0.1)),
            ("c2_lower", dict(c2=1.0)),
            ("tau_coupling", dict(gamma=0.13)),
            ("gamma_upper", dict(gamma=0.01)),
            ("lambda_upper", dict(lam=100.0)),
            ("rho_range", dict(rho=2.0)),
            ("rho_u_range", dict(rho_u=3.0, rho=1.0)),
        ],
    )
    def test_each_constraint_individually_falsifiable(self, passing_hp, synth_constants, name, mutate):
        hp = replace(passing_hp, **mutate)
        c = synth_constants
        if "rho_u" in mutate:
            c = replace(c, rho_u=mutate["rho_u"])
        rep = validate_theorem1(hp, c, K=10)
        assert not rep.by_name(name).satisfied, rep.render()

    def test_shrinking_step_sizes_preserves_upper_bounds(self, passing_hp, synth_constants):
        rep = validate_theorem1(passing_hp, synth_constants, K=10)
        assert rep.by_name("gamma_upper").satisfied
        assert rep.by_name("lambda_upper").satisfied
        for c in (0.5, 0.1, 0.01):
            hp = replace(passing_hp, gamma=passing_hp.gamma * c, lam=passing_hp.lam * c)
            rep_c = validate_theorem1(hp, synth_constants, K=10)
            assert rep_c.by_name("gamma_upper").satisfied
            assert rep_c.by_name("lambda_upper").satisfied
            assert rep_c.by_name("tau_coupling").satisfied

    def test_report_rendering(self, passing_hp, synth_constants):
        rep = validate_theorem1(passing_hp, synth_constants, K=10)
        text = rep.render()
        machine = rep.machine_lines()
        for name in CONSTRAINT_NAMES:
            assert name in text
            assert f"{name}=satisfied|" in machine

    def test_momentum_clamp_never_triggers_under_validated_params(self, passing_hp, synth_constants):
        rep = validate_theorem1(passing_hp, synth_constants, K=10)
        assert rep.all_satisfied
        K = 10
        for t in range(0, passing_hp.T + 1):
            eta = fm.eta_schedule(passing_hp.eta_n, K, passing_hp.eta_m, t)
            assert passing_hp.c1 * eta**2 <= 1.0
            assert passing_hp.c2 * eta**2 <= 1.0


class TestBoundConstant:
    def test_finite_and_positive_for_passing_config(self, passing_hp, synth_constants):
        from fedminimax.theory import bound_constant_G

        G = bound_constant_G(passing_hp, synth_constants, K=10,
                             F_init=120.0, f_init=70.0, F_star=0.0)
        assert np.isfinite(G) and G > 0


class TestConstantSet:
    def test_derived_quantities(self):
        c = ConstantSet(L_f=10.0, mu=1.0, sigma=0.0, delta_x=0.0, delta_y=0.0)
        assert c.kappa == 10.0
        assert c.L == 110.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            ConstantSet(L_f=0.5, mu=1.0, sigma=0.0, delta_x=0.0, delta_y=0.0)

    def test_safety_margin_touches_only_estimated_fields(self):
        c = ConstantSet(L_f=10.0, mu=1.0, sigma=2.0, delta_x=1.0, delta_y=1.0,
                        provenance={"L_f": "analytic", "mu": "analytic",
                                    "sigma": "estimated", "delta_x": "estimated",
                                    "delta_y": "estimated"})
        m = c.with_safety_margin(1.1)
        assert m.L_f == 10.0 and m.mu == 1.0
        assert m.sigma == pytest.approx(2.2)
        assert m.delta_x == pytest.approx(1.1)


class TestProbePl:
    def test_synthetic_slack_nonnegative(self, synthetic_small):
        assert probe_pl(synthetic_small, n_points=300, seed=0) >= -1e-9

    def test_auc_slack_nonnegative(self, auc_inst):
        assert probe_pl(auc_inst, n_points=300, seed=0) >= -1e-9

    def test_slack_zero_at_inner_maximizer(self, synthetic_small):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(synthetic_small.d)
        y = synthetic_small.y_star(x)
        assert abs(pl_slack(synthetic_small, x, y)) < 1e-9

    def test_doubled_mu_fails(self, synthetic_small):
        assert probe_pl(synthetic_small, n_points=300, seed=0, mu=2.0) < -1e-9

    def test_unsupported_family_errors(self, robust_inst):
        with pytest.raises(ValueError):
            probe_pl(robust_inst, n_points=10, seed=0)

    @pytest.mark.parametrize("fixture", ["synthetic_small", "auc_inst"])
    def test_points_are_drawn_x_then_y_per_point_bitwise(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        rng = np.random.default_rng(np.random.SeedSequence(3))
        slacks = [pl_slack(inst, 2.0 * rng.standard_normal(inst.d), 2.0 * rng.standard_normal(inst.p))
                  for _ in range(20)]
        assert probe_pl(inst, n_points=20, seed=3) == min(slacks)


class TestProbeLipschitz:
    def test_synthetic_ratios_within_bounds(self, synthetic_small):
        rep = probe_lipschitz(synthetic_small, n_pairs=300, seed=0)
        assert rep.ok
        # the inner maximizer moves at most as fast as the mean coupling
        assert rep.max_ratio_y_star <= synthetic_small.t_bar + 1e-12
        assert rep.max_ratio_y_star <= 0.1
        assert rep.max_ratio_grad_F <= synthetic_small.tau + synthetic_small.t_bar**2 + 1e-9

    def test_degenerate_pair_skipped(self, synthetic_small):
        rep = probe_lipschitz(synthetic_small, n_pairs=1, seed=0)
        assert np.isfinite(rep.max_ratio_y_star)

    def test_unsupported_family_errors(self, robust_inst):
        with pytest.raises(ValueError):
            probe_lipschitz(robust_inst, n_pairs=10, seed=0)


class TestGradCheck:
    def test_synthetic_nearly_exact(self, synthetic_small):
        rng = np.random.default_rng(0)
        for _ in range(5):
            err = grad_check(synthetic_small, 0, rng.standard_normal(synthetic_small.d),
                             rng.standard_normal(synthetic_small.p))
            assert err < 1e-7

    def test_auc_and_robust_within_tolerance(self, auc_inst, robust_inst):
        rng = np.random.default_rng(1)
        for inst in (auc_inst, robust_inst):
            for _ in range(5):
                err = grad_check(inst, int(rng.integers(inst.K)),
                                 rng.standard_normal(inst.d), rng.standard_normal(inst.p))
                assert err < 1e-5

    def test_h_range_enforced(self, synthetic_small):
        with pytest.raises(ValueError):
            grad_check(synthetic_small, 0, np.ones(synthetic_small.d), np.ones(synthetic_small.p), h=1e-2)


class TestEstimateConstants:
    def test_synthetic_mu_exact(self, synthetic_small):
        c = estimate_constants(synthetic_small, n_samples=20, seed=0)
        assert c.mu == 1.0
        assert c.provenance["mu"] == "analytic"
        assert c.L_f == synthetic_small.tau  # couplings below 0.1 never dominate

    def test_auc_mu_from_imbalance(self):
        inst = fm.AucProblem(K=3, dim=5, n_per_client=20, pos_ratio=0.05, seed=2)
        c = estimate_constants(inst, n_samples=10, seed=0)
        assert c.mu == pytest.approx(0.095)

    def test_noiseless_synthetic_sigma_vanishes(self):
        inst = fm.SyntheticProblem(K=3, dim=4, s=1.0, tau=10.0, seed=3, noise_sigma=0.0)
        c = estimate_constants(inst, n_samples=10, seed=0)
        assert c.sigma < 1e-12

    def test_robust_everything_estimated(self, robust_inst):
        c = estimate_constants(robust_inst, n_samples=10, seed=0)
        assert c.provenance["L_f"] == "estimated"
        assert c.provenance["mu"] == "estimated"
        assert c.L_f > 0 and c.mu > 0


# Every shipped preset, plus K = 100 and two splits whose clients hold
# datasets of different sizes: (preset, overrides).
PIN_CONFIGS = {
    **{name: (name, {}) for name in preset_names()},
    "synthetic-s1 k=100": ("synthetic-s1", {"problem.k": "100"}),
    "auc-imbalanced scheme=dirichlet": ("auc-imbalanced", {"problem.scheme": "dirichlet"}),
    "robust-q6 scheme=dirichlet": ("robust-q6", {"problem.scheme": "dirichlet"}),
}

# float.hex of (delta_x, delta_y, sigma, mu, L_f) from estimate_constants as
# `fedmm run` calls it (n_samples=50, the seed's own seed), at seeds 1 and 7,
# computed with the one-probe-at-a-time loops that the stacked probes
# replaced. The robust L_f is None: its closed form is checked against
# eigvalsh below.
CONSTANT_PINS = {
    ("auc-imbalanced", 1): ("0x1.d9118e19c9f26p+3", "0x1.943cb57397fd1p+2", "0x1.39e9506643c7cp+4", "0x1.851eb851eb852p-4", "0x1.f6a333fcf095cp+3"),
    ("auc-imbalanced", 7): ("0x1.661826a9007bap+4", "0x1.d02830634d018p+2", "0x1.57c3b706a9fe4p+4", "0x1.851eb851eb852p-4", "0x1.6b8009e882ba8p+4"),
    ("robust-q12", 1): ("0x1.28411e4378ae8p+1", "0x1.4343d99701097p+1", "0x1.6a5e0e7ec3919p+2", "0x1.fc2f8188d130ep-17", None),
    ("robust-q12", 7): ("0x1.673a93569ee3ap+1", "0x1.783504570cdb3p+1", "0x1.acc3fdc0f12e8p+2", "0x1.e8a708114c7f2p-15", None),
    ("robust-q6", 1): ("0x1.28411e4378ae8p+1", "0x1.4343d99701097p+1", "0x1.6a5e0e7ec3919p+2", "0x1.fc2f8188d130ep-17", None),
    ("robust-q6", 7): ("0x1.673a93569ee3ap+1", "0x1.783504570cdb3p+1", "0x1.acc3fdc0f12e8p+2", "0x1.e8a708114c7f2p-15", None),
    ("synthetic-s1", 1): ("0x1.13877754cdd97p+0", "0x1.176e8c61d77c6p+3", "0x1.43d2e286acce9p-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-s1", 7): ("0x1.43af28ba29753p+0", "0x1.d948ed114f342p+2", "0x1.4791d6ddc7d0ep-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-s10", 1): ("0x1.13877754cdd97p+0", "0x1.5bdba6468d95fp+6", "0x1.43d2e286acce9p-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-s10", 7): ("0x1.43af28ba29753p+0", "0x1.0f4d081078312p+6", "0x1.4791d6ddc7d0ep-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-theorem", 1): ("0x1.1db05dee697c7p+0", "0x1.c108d0eb8f00bp+2", "0x1.4791d6ddc7d0ep-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-theorem", 7): ("0x1.43af28ba29753p+0", "0x1.d948ed114f342p+2", "0x1.4791d6ddc7d0ep-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-s1 k=100", 1): ("0x1.2abe86bd70169p+0", "0x1.4b4ed7faa0f4ap+3", "0x1.4c1cf4d396f47p-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("synthetic-s1 k=100", 7): ("0x1.5b3fe9d87154bp+0", "0x1.47d77d58cd4e0p+3", "0x1.4b0ad48a85cb2p-1", "0x1.0000000000000p+0", "0x1.4000000000000p+3"),
    ("auc-imbalanced scheme=dirichlet", 1): ("0x1.5e6afee584706p+2", "0x1.572367860cd7ep+1", "0x1.7c8a4c1ba9ee6p+3", "0x1.851eb851eb852p-4", "0x1.f6a333fcf095cp+3"),
    ("auc-imbalanced scheme=dirichlet", 7): ("0x1.dcd3115ba736ep+2", "0x1.2cfebfa4ae3f4p+1", "0x1.cd16bf47fa9e3p+3", "0x1.851eb851eb852p-4", "0x1.6b8009e882ba8p+4"),
    ("robust-q6 scheme=dirichlet", 1): ("0x1.22520f972c0e7p+3", "0x1.121c7c599d1ffp+3", "0x1.65f56d1764e20p+2", "0x1.11c3f26cbf921p-17", None),
    ("robust-q6 scheme=dirichlet", 7): ("0x1.2866137070a66p+3", "0x1.275723735c9dfp+3", "0x1.6b59e9ca8a48fp+2", "0x1.ac9ae72786496p-17", None),
}

# float.hex of (delta_x, delta_y) from 1 and 7 heterogeneity probes, neither a
# whole number of probe chunks, at seed 1 with rng default_rng(n_samples).
HETEROGENEITY_PINS = {
    ("auc-imbalanced", 1): ("0x1.0894c74e561b4p+3", "0x1.d86c9041f3d8cp+1"),
    ("auc-imbalanced", 7): ("0x1.8934580f4944dp+2", "0x1.016df1bb8ae9cp+2"),
    ("robust-q12", 1): ("0x1.11cd95db51b5cp-2", "0x1.90ec925be0ee4p-2"),
    ("robust-q12", 7): ("0x1.9308201f19792p+0", "0x1.0796088be758ap+1"),
    ("robust-q6", 1): ("0x1.11cd95db51b5cp-2", "0x1.90ec925be0ee4p-2"),
    ("robust-q6", 7): ("0x1.9308201f19792p+0", "0x1.0796088be758ap+1"),
    ("synthetic-s1", 1): ("0x1.e01d9c20bfffbp-1", "0x1.163b62680a551p+3"),
    ("synthetic-s1", 7): ("0x1.9a13c334ffcf8p-1", "0x1.168d619dfac83p+3"),
    ("synthetic-s10", 1): ("0x1.e01d9c20bfffbp-1", "0x1.5bcd2c5fda3b0p+6"),
    ("synthetic-s10", 7): ("0x1.9a13c334ffcf8p-1", "0x1.5bd76644e7e79p+6"),
    ("synthetic-theorem", 1): ("0x1.f1d1bcacf2541p-1", "0x1.bb7ce6dafccbap+2"),
    ("synthetic-theorem", 7): ("0x1.a932c025b80dcp-1", "0x1.d948ed114f342p+2"),
    ("synthetic-s1 k=100", 1): ("0x1.0448c308d6667p+0", "0x1.49d7d15decd65p+3"),
    ("synthetic-s1 k=100", 7): ("0x1.bca0f919f73f1p-1", "0x1.4a6b2d840d181p+3"),
    ("auc-imbalanced scheme=dirichlet", 1): ("0x1.7a12252b08cf8p+1", "0x1.7141dcdad1458p+0"),
    ("auc-imbalanced scheme=dirichlet", 7): ("0x1.34e9deb351bedp+1", "0x1.7ccdcfd0dfab8p+0"),
    ("robust-q6 scheme=dirichlet", 1): ("0x1.b363c6a6827e8p-1", "0x1.4c534c54f4cc6p+0"),
    ("robust-q6 scheme=dirichlet", 7): ("0x1.6820c71ceaebdp+2", "0x1.d5d6d092cd9c1p+2"),
}


def _pin_problem(label: str, seed: int):
    preset, overrides = PIN_CONFIGS[label]
    cfg = apply_overrides(load_preset(preset), overrides)
    return cfg.build_problem(seed), cfg.hp_for_seed(seed)


class TestConstantPins:
    def test_roster_is_complete(self):
        assert set(CONSTANT_PINS) == {(label, seed) for label in PIN_CONFIGS for seed in (1, 7)}
        assert set(HETEROGENEITY_PINS) == {(label, n) for label in PIN_CONFIGS for n in (1, 7)}

    def test_numpy_batched_normals_equal_sequential_calls(self):
        # The probe points rest on this numpy behaviour: every point drawn
        # up front, x and y side by side in one row per point.
        for seed in range(5):
            for n, a, b in ((1, 3, 3), (7, 20, 20), (50, 12, 1), (10, 10, 80)):
                batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
                Z = batched.standard_normal((n, a + b))
                rows = [np.concatenate([sequential.standard_normal(a), sequential.standard_normal(b)])
                        for _ in range(n)]
                assert np.array_equal(Z, np.array(rows))
                assert batched.bit_generator.state == sequential.bit_generator.state

    @pytest.mark.parametrize("label,seed", sorted(CONSTANT_PINS))
    def test_constants_keep_their_bits(self, label, seed):
        problem, hp = _pin_problem(label, seed)
        c = estimate_constants(problem, n_samples=50, seed=hp.seed, rho=hp.rho, rho_u=hp.rho_u)
        *pinned, L_f = CONSTANT_PINS[(label, seed)]
        assert [v.hex() for v in (c.delta_x, c.delta_y, c.sigma, c.mu)] == pinned
        if L_f is not None:
            assert c.L_f.hex() == L_f
        else:  # the reference draws the heterogeneity probes' points first
            rng = np.random.default_rng(np.random.SeedSequence(hp.seed))
            rng.standard_normal((50, problem.d + problem.p))
            assert c.L_f == pytest.approx(_plain_robust_L_f(problem, 50, rng), rel=1e-13)

    @pytest.mark.parametrize("label,n_samples", sorted(HETEROGENEITY_PINS))
    def test_heterogeneity_probe_keeps_its_bits(self, label, n_samples):
        problem, _ = _pin_problem(label, 1)
        dx, dy = _estimate_heterogeneity(problem, n_samples, np.random.default_rng(n_samples))
        assert (dx.hex(), dy.hex()) == HETEROGENEITY_PINS[(label, n_samples)]


def _reference_max_distance(G):
    """Largest np.linalg.norm over every pair of rows of each (K, m) slice."""
    worst = 0.0
    for S in G:
        for a in range(len(S)):
            for b in range(a + 1, len(S)):
                worst = max(worst, float(np.linalg.norm(S[a] - S[b])))
    return worst


def _stack(kind: str, K: int, m: int) -> np.ndarray:
    rng = np.random.default_rng([K, m, len(kind)])
    G = rng.standard_normal((5, K, m))
    if kind.startswith("offset"):  # a common offset: the Gram form cancels worst here
        return G + float(kind.split()[1])
    if kind == "identical":  # every pair within rounding of the max: all kept
        return np.repeat(G[:, :1], K, axis=1)
    if kind == "one ulp apart":  # as identical, but one entry of one client 1 ulp off
        G = np.repeat(G[:, :1], K, axis=1)
        G[2, K // 2, m - 1] = np.nextafter(G[2, K // 2, m - 1], np.inf)
        return G
    if kind == "near 1e160":  # norms overflow, distances do not
        return 1e160 * (1.0 + 1e-10 * G)
    if kind == "1e154, mixed signs":  # norms finite, the Gram form overflows
        return 0.9e154 / np.sqrt(m) * np.sign(G) * (1.0 + 0.01 * np.abs(G))
    return G


def _near_parallel_stack() -> np.ndarray:
    """Squared norms near 1.7e308: -2 Gram overflows to -inf on the pairs
    (0, 1), which holds the largest distance, and (1, 2), while pair (0, 2)
    keeps a finite S."""
    r, psi = math.sqrt(1.7e308), math.acos(0.614)
    return np.array([[[r, 0.0], [0.6 * r, 0.8 * r], [1e154 * math.cos(psi), 1e154 * math.sin(psi)]]])


class TestPairwiseDistanceScreen:
    @pytest.mark.parametrize("K", [1, 2, 3, 10, 100])
    @pytest.mark.parametrize("m", [1, 12, 20])
    @pytest.mark.parametrize("kind", ["random", "offset 1e6", "offset 1e9"])
    def test_bitwise_the_per_pair_norm(self, kind, K, m):
        G = _stack(kind, K, m)
        assert _max_pairwise_distance(G).hex() == _reference_max_distance(G).hex()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["identical", "one ulp apart", "near 1e160", "1e154, mixed signs"])
    @pytest.mark.parametrize("K,m", [(2, 1), (10, 12), (100, 20)])
    def test_bitwise_the_per_pair_norm_where_the_screen_keeps_many_pairs(self, kind, K, m):
        # identical clients keep all 5 * 4950 pairs at K = 100: 50 chunks of B * K
        G = _stack(kind, K, m)
        assert _max_pairwise_distance(G).hex() == _reference_max_distance(G).hex()

    def test_gram_overflow_to_minus_inf_keeps_the_maximizing_pair(self):
        G = _near_parallel_stack()
        assert _max_pairwise_distance(G).hex() == _reference_max_distance(G).hex()
        assert _max_pairwise_distance(G) == float(np.linalg.norm(G[0, 0] - G[0, 1]))

    def test_delta_x_at_tau_1e200_is_the_per_pair_maximum(self):
        # tau x - t_k y rounds to one row on every client at each probe: the
        # t_k y term is far below an ulp of tau x, so 0.0 is exact
        cfg = apply_overrides(load_preset("synthetic-s1"), {"problem.tau": "1e200"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        c = estimate_constants(problem, n_samples=50, seed=hp.seed)
        Z = 2.0 * np.random.default_rng(np.random.SeedSequence(hp.seed)).standard_normal((50, problem.d + problem.p))
        G = np.array([[problem.grad_full(k, z[:problem.d], z[problem.d:])[0] for k in range(problem.K)]
                      for z in Z])
        assert all(len(np.unique(rows, axis=0)) == 1 for rows in G)
        assert c.delta_x == _reference_max_distance(G) == 0.0
        assert c.delta_y > 0.0

    def test_one_ulp_apart_is_found(self):
        G = _stack("one ulp apart", 100, 20)
        assert 0.0 < _max_pairwise_distance(G) < 1e-15 and _max_pairwise_distance(_stack("identical", 100, 20)) == 0.0

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_probe_gradient_raises(self, poison):
        # the row loop let max() skip a NaN block, understating delta
        inst = fm.SyntheticProblem(K=5, dim=3, seed=2)
        inst.b[3, 1] = poison
        with pytest.raises(ValueError, match="non-finite"):
            _estimate_heterogeneity(inst, 7, np.random.default_rng(7))
        with pytest.raises(ValueError, match="non-finite"):
            estimate_constants(inst, n_samples=7, seed=1)


def _pl_ratio_one_probe_at_a_time(inst, n_samples, rng):
    """theory._estimate_pl_ratio with one probe per call: one global_value
    call at x against its 8 y's, one grad_y_all call of x tiled once
    against the 8 K-row y blocks (the reference)."""
    K, p = inst.K, inst.p
    Z = rng.standard_normal((max(2, n_samples // 5), inst.d + 8 * p))
    best = math.inf
    for x, ys in zip(Z[:, :inst.d], Z[:, inst.d:].reshape(len(Z), 8, p)):
        ys = inst.y_constraint.project(ys)
        vals = inst.global_value(x, ys)
        gaps = vals.max() - vals
        GY = inst.grad_y_all(np.tile(x, (K, 1)), np.repeat(ys, K, axis=0))
        gy = index_sum(GY.reshape(8, K, p), axis=1) / K
        due = gaps > 1e-12
        if due.any():
            best = min(best, float((row_dots(gy[due]) / (2.0 * gaps[due])).min()))
    return max(1e-6, 0.0 if math.isinf(best) else best)


def _heterogeneity_one_probe_at_a_time(inst, n_samples, rng):
    """theory._estimate_heterogeneity with one probe per exact call and
    every pair's np.linalg.norm (the reference)."""
    K = inst.K
    Z = 2.0 * rng.standard_normal((n_samples, inst.d + inst.p))
    dx = dy = 0.0
    for x, y in zip(Z[:, :inst.d], Z[:, inst.d:]):
        GX, GY = inst.grad_full_all(np.tile(x, (K, 1)), np.tile(y, (K, 1)))
        dx = max(dx, _reference_max_distance(GX[None]))
        dy = max(dy, _reference_max_distance(GY[None]))
    return dx, dy


@pytest.fixture(scope="module", params=[(p, s) for p in ("robust-q6", "robust-q12") for s in (1, 7)],
                ids=lambda ps: f"{ps[0]}-seed{ps[1]}")
def robust_preset_problem(request):
    preset, seed = request.param
    return load_preset(preset).build_problem(seed), seed


class TestStackedProbes:
    N_SAMPLES = 50

    @pytest.mark.parametrize("chunk", [1, 3, "all", "default"])
    def test_pl_ratio_equals_the_per_probe_loop_bitwise(self, robust_preset_problem, chunk, monkeypatch):
        inst, seed = robust_preset_problem
        n_probes = max(2, self.N_SAMPLES // 5)
        slopes = 8 * int(inst.sizes.sum())  # (8, K, n) slope elements per probe
        if chunk != "default":
            monkeypatch.setattr(theory, "_ORACLE_ELEMENTS", slopes * (n_probes if chunk == "all" else chunk))
        per_call = theory._ORACLE_ELEMENTS // slopes
        assert chunk == "default" or per_call == (n_probes if chunk == "all" else chunk)
        calls = []
        monkeypatch.setattr(inst, "grad_y_all", lambda X, Y, f=inst.grad_y_all: calls.append(len(X)) or f(X, Y))
        got = _estimate_pl_ratio(inst, self.N_SAMPLES, np.random.default_rng(seed))
        monkeypatch.undo()
        want = _pl_ratio_one_probe_at_a_time(inst, self.N_SAMPLES, np.random.default_rng(seed))
        assert got.hex() == want.hex() and got > 1e-6
        assert calls == [min(per_call, n_probes - i) for i in range(0, n_probes, per_call)]

    @pytest.mark.parametrize("chunk", [1, 3, "all", "default"])
    def test_heterogeneity_equals_the_per_probe_loop_bitwise(self, robust_preset_problem, chunk, monkeypatch):
        inst, seed = robust_preset_problem
        n, K = self.N_SAMPLES, inst.K
        if chunk != "default":
            monkeypatch.setattr(theory, "_PROBE_ROWS", K * (n if chunk == "all" else chunk))
        per_call = theory._PROBE_ROWS // K
        calls = []
        monkeypatch.setattr(inst, "grad_full_all", lambda X, Y, f=inst.grad_full_all: calls.append(len(X)) or f(X, Y))
        got = _estimate_heterogeneity(inst, n, np.random.default_rng(seed))
        monkeypatch.undo()
        want = _heterogeneity_one_probe_at_a_time(inst, n, np.random.default_rng(seed))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert calls == [K * min(per_call, n - i) for i in range(0, n, per_call)]
