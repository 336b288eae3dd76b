import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import fedminimax as fm
from fedminimax.config import apply_overrides
from fedminimax.core import row_dots
from fedminimax import theory
from fedminimax.presets import load_preset
from fedminimax.problems import robust
from fedminimax.problems import PROBLEMS, EuclideanBall, grad_F, grad_full, grad_stoch
from fedminimax.theory import (
    _estimate_robust_L_f,
    _estimate_sigma,
    _robust_curvatures,
    _robust_hessian_norms,
    estimate_constants,
    grad_check,
)

from conftest import EDGE_ENTRIES, edge_rows, fd_grad, numeric_inner_max, same_bits_or_both_nan


class TestSyntheticConstruction:
    def test_centered_offsets_sum_to_zero_exactly(self, synthetic):
        acc = np.zeros(synthetic.d)
        for k in range(synthetic.K):
            acc += synthetic.b[k]
        assert np.all(acc == 0.0)

    def test_larger_s_means_larger_offsets(self):
        a = fm.SyntheticProblem(K=10, dim=20, s=1.0, tau=10.0, seed=42)
        b = fm.SyntheticProblem(K=10, dim=20, s=10.0, tau=10.0, seed=42)
        assert np.array_equal(a.t, b.t)  # same seed, same couplings
        assert np.linalg.norm(b.b) > np.linalg.norm(a.b)

    def test_single_client_has_no_heterogeneity(self):
        inst = fm.SyntheticProblem(K=1, dim=5, s=1.0, tau=10.0, seed=0)
        assert np.all(inst.b[0] == 0.0)

    def test_dims_are_tied(self, synthetic):
        assert synthetic.d == synthetic.p == 20

    @pytest.mark.parametrize("K,n,dim", [(1, 1, 1), (1, 50, 1), (3, 50, 1), (7, 9, 1), (6, 130, 1), (100, 50, 20)])
    @pytest.mark.parametrize("noise_sigma", [0.1, 0.0])
    def test_noise_tables_equal_a_per_client_loop(self, K, n, dim, noise_sigma):
        # The per-client loop the stacked draw replaced: x-table then y-table
        # per client, each centered on its own (mean, then the last item
        # cancels the others in index order), sigma the largest client mean.
        rng = np.random.default_rng(np.random.SeedSequence(5))
        rng.normal(0.0, 1.0, size=(K, dim))
        rng.uniform(0.0, 0.1, size=K)
        tables = np.zeros((2, K, n, dim))
        if noise_sigma > 0:
            for k in range(K):
                for block in tables:
                    rows = rng.normal(0.0, noise_sigma, size=(n, dim))
                    rows = rows - rows.mean(axis=0)
                    if n > 1:
                        rows[-1] = -np.cumsum(rows[:-1], axis=0)[-1]
                    block[k] = rows
        worst = 0.0
        for k in range(K):
            worst = max(worst, float(((tables[0, k] ** 2).sum(axis=1) + (tables[1, k] ** 2).sum(axis=1)).mean()))

        inst = fm.SyntheticProblem(K=K, dim=dim, n_per_client=n, noise_sigma=noise_sigma, seed=5)
        assert _same_bits(np.ascontiguousarray(inst.noise_x), tables[0])
        assert _same_bits(np.ascontiguousarray(inst.noise_y), tables[1])
        assert inst.sigma_bound.hex() == math.sqrt(worst).hex()
        # one draw of every table leaves the generator where the loop left it
        stacked = np.random.default_rng(np.random.SeedSequence(5))
        stacked.normal(0.0, 1.0, size=(K, dim))
        stacked.uniform(0.0, 0.1, size=K)
        if noise_sigma > 0:
            stacked.normal(0.0, noise_sigma, size=(K, 2, n, dim))
        assert stacked.bit_generator.state == rng.bit_generator.state



# Generation parameters away from the defaults where a family allows it,
# so a field missing from describe() would rebuild a different instance.
DESCRIBED_CASES = {
    "synthetic": lambda: fm.SyntheticProblem(K=4, dim=6, s=2.5, tau=7.0, seed=7, n_per_client=25, noise_sigma=0.3),
    "synthetic-uncentered": lambda: fm.SyntheticProblem(K=5, dim=4, s=1.0, tau=10.0, seed=2, center_b=False),
    "auc-by_group": lambda: fm.AucProblem(K=5, dim=6, n_per_client=30, pos_ratio=0.1, seed=3, margin=1.5,
                                        center_spread=0.7, noise_std=0.4, n_test=50),
    "auc-dirichlet": lambda: fm.AucProblem(K=6, dim=6, n_per_client=30, pos_ratio=0.2, seed=2, scheme="dirichlet"),
    "robust-iid": lambda: fm.RobustProblem(K=6, dim=10, n_per_client=30, seed=11, margin=2.0, fragile_total=0.6,
                                         fragile_noise=0.2, n_test=60, ball_radius=0.5),
    "robust-dirichlet": lambda: fm.RobustProblem(K=8, dim=10, n_per_client=30, seed=1, scheme="dirichlet"),
}
GENERATED_ARRAYS = {
    "synthetic": ("b", "t", "noise_x", "noise_y"),
    "auc": ("clients_X", "clients_y", "test_X", "test_y"),
    "robust": ("clients_X", "clients_y", "test_X", "test_y"),
}
FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda v: v == "True"}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDescribe:
    @pytest.mark.parametrize("case", sorted(DESCRIBED_CASES))
    def test_reconstructible_from_described_parameters(self, case):
        inst = DESCRIBED_CASES[case]()
        params = dict(line.split("=", 1) for line in inst.describe().splitlines())
        cls = PROBLEMS[params.pop("problem")]
        rebuilt = cls(**{f.name: FIELD_PARSERS[f.type](params.pop(f.name)) for f in fields(cls)})
        assert not params
        for name in GENERATED_ARRAYS[inst.name]:
            ours, theirs = getattr(rebuilt, name), getattr(inst, name)
            if isinstance(ours, np.ndarray):
                ours, theirs = [ours], [theirs]
            assert len(ours) == len(theirs) and all(map(_same_bits, ours, theirs)), name


class TestSyntheticGradients:
    def test_signs_against_finite_differences(self, synthetic_small):
        inst = synthetic_small
        rng = np.random.default_rng(0)
        for _ in range(5):
            k = int(rng.integers(inst.K))
            x = rng.standard_normal(inst.d)
            y = rng.standard_normal(inst.p)
            GX, GY = grad_full(inst, x, y)
            gx, gy = GX[k], GY[k]
            assert np.allclose(gx, inst.tau * x - inst.t[k] * y)
            assert np.allclose(gy, -y + inst.b[k] - inst.t[k] * x)
            assert np.allclose(gx, fd_grad(lambda z: inst.values(z, y)[k], x), atol=1e-6)
            assert np.allclose(gy, fd_grad(lambda z: inst.values(x, z)[k], y), atol=1e-6)

    def test_zero_noise_oracle_is_exact(self):
        inst = fm.SyntheticProblem(K=3, dim=4, s=1.0, tau=10.0, seed=5, noise_sigma=0.0)
        x, y = np.ones(4), np.ones(4)
        GX, GY = grad_full(inst, x, y)
        for k in range(3):
            sx, sy = grad_stoch(inst, k, x, y, 0)
            assert np.array_equal(sx, GX[k])
            assert np.array_equal(sy, GY[k])

    def test_finite_population_unbiasedness(self, synthetic_small):
        inst = synthetic_small
        rng = np.random.default_rng(1)
        x = rng.standard_normal(inst.d)
        y = rng.standard_normal(inst.p)
        GX, GY = grad_full(inst, x, y)
        for k in range(inst.K):
            gx, gy = GX[k], GY[k]
            accx = np.zeros_like(gx)
            accy = np.zeros_like(gy)
            n = inst.sizes[k]
            for item in range(n):
                sx, sy = grad_stoch(inst, k, x, y, item)
                accx += sx
                accy += sy
            assert np.linalg.norm(accx / n - gx) < 1e-12
            assert np.linalg.norm(accy / n - gy) < 1e-12

    def test_identical_clients_match_global(self):
        inst = fm.SyntheticProblem(K=1, dim=4, s=1.0, tau=10.0, seed=3)
        x, y = np.ones(4), -np.ones(4)
        GX, GY = grad_full(inst, x, y)
        ggx, ggy = inst.global_grad(x, y)
        assert GX.shape == (1, 4) and GY.shape == (1, 4)
        assert np.allclose(GX[0], ggx) and np.allclose(GY[0], ggy)

    def test_in_place_oracles_equal_their_expression_forms_bitwise(self):
        # the same operations in the same order, in place: every bit
        inst = fm.SyntheticProblem(K=5, dim=4, s=1.0, tau=10.0, seed=3, n_per_client=7)
        rng = np.random.default_rng(24)
        for _ in range(150):
            n = int(rng.integers(1, 4))
            X, Y = edge_rows(rng, (n * inst.K, inst.d)), edge_rows(rng, (n * inst.K, inst.p))
            ks, items = rng.integers(inst.K, size=n * inst.K), rng.integers(inst.n_per_client, size=n * inst.K)
            with np.errstate(all="ignore"):
                pairs = ((inst.grad_full_all(X, Y), _expression_grad_full_all(inst, X, Y)),
                         (inst.grad_stoch_rows(ks, items, X, Y), _expression_grad_stoch_rows(inst, ks, items, X, Y)))
            for got, want in pairs:
                assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_index_errors(self, synthetic_small):
        inst = synthetic_small
        x, y = np.ones(inst.d), np.ones(inst.p)
        for k in (inst.K, -1):  # -1 would otherwise read the last client's row
            with pytest.raises(IndexError):
                grad_check(inst, k, x, y)
        with pytest.raises(IndexError):
            grad_stoch(inst, inst.K, x, y, 0)
        with pytest.raises(IndexError):
            grad_stoch(inst, 0, x, y, 10**6)
        with pytest.raises(IndexError):
            grad_stoch(inst, 0, x, y, inst.sizes[0])


def _expression_grad_full_all(inst, X, Y):
    """SyntheticProblem.grad_full_all as one expression per side (the reference)."""
    X3, Y3 = X.reshape(-1, inst.K, inst.d), Y.reshape(-1, inst.K, inst.p)
    t = inst.t[:, None]
    return (inst.tau * X3 - t * Y3).reshape(X.shape), (-Y3 + inst.b - t * X3).reshape(Y.shape)


def _expression_grad_stoch_rows(inst, ks, items, X, Y):
    """SyntheticProblem.grad_stoch_rows as one expression per side (the reference)."""
    t = inst.t.take(ks)[:, None]
    GX = inst.tau * X - t * Y
    GY = -Y + inst.b.take(ks, axis=0) - t * X
    rows = ks * (2 * inst.n_per_client) + items
    GX += inst._noise_rows.take(rows, axis=0)
    GY += inst._noise_rows.take(rows + inst.n_per_client, axis=0)
    return GX, GY


class TestSyntheticSaddle:
    def test_saddle_is_origin(self, synthetic):
        xs, ys = synthetic.saddle()
        assert np.all(xs == 0.0) and np.all(ys == 0.0)

    def test_saddle_by_brute_force(self):
        # Independent check: F(x) computed by numeric inner maximization,
        # then ||grad F|| minimized from scratch.
        inst = fm.SyntheticProblem(K=3, dim=3, s=1.0, tau=10.0, seed=9)

        def gradF_norm_sq(x):
            g = fd_grad(lambda z: numeric_inner_max(inst, z), x, h=1e-5)
            return float(g @ g)

        best = None
        for trial_seed in range(3):
            rng = np.random.default_rng(trial_seed)
            res = minimize(gradF_norm_sq, rng.standard_normal(3), method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 2000})
            if best is None or res.fun < best.fun:
                best = res
        xs, _ = inst.saddle()
        assert np.linalg.norm(best.x - xs) < 1e-3

    def test_uncentered_instance_stationarity(self):
        inst = fm.SyntheticProblem(K=4, dim=5, s=1.0, tau=10.0, seed=2, center_b=False)
        xs, ys = inst.saddle()
        gx, gy = inst.global_grad(xs, ys)
        assert np.linalg.norm(gy) < 1e-10
        assert np.linalg.norm(gx) < 1e-10

    def test_global_gradient_vanishes_at_saddle(self, synthetic):
        xs, ys = synthetic.saddle()
        gx, gy = synthetic.global_grad(xs, ys)
        assert np.linalg.norm(gx) < 1e-12 and np.linalg.norm(gy) < 1e-12

    def test_inner_stationarity_at_y_star(self, synthetic):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(synthetic.d)
        ystar = synthetic.y_star(x)
        _, gy = synthetic.global_grad(x, ystar)
        assert np.linalg.norm(gy) < 1e-12

    def test_no_closed_form_families_return_none(self, auc_inst, robust_inst):
        assert auc_inst.saddle() is None
        assert robust_inst.saddle() is None


class TestGlobalConsistency:
    def test_mean_of_client_gradients_matches_averaged_objective(
        self, synthetic_small, auc_inst, robust_inst
    ):
        rng = np.random.default_rng(17)
        for inst in (synthetic_small, auc_inst, robust_inst):
            x = rng.standard_normal(inst.d)
            y = rng.standard_normal(inst.p)
            gx, gy = inst.global_grad(x, y)
            assert np.allclose(gx, fd_grad(lambda z: inst.global_value(z, y), x), atol=1e-5)
            assert np.allclose(gy, fd_grad(lambda z: inst.global_value(x, z), y), atol=1e-5)


def _auc_preset_instance(seed, scheme):
    """The auc-imbalanced preset's instance at a seed and split, with the
    final point of the workload run at that seed (by_group only)."""
    from test_golden_traces import AUC_WORKLOAD_FINAL  # it imports this module, through test_theory

    cfg = apply_overrides(load_preset("auc-imbalanced"), {"problem.scheme": scheme})
    return cfg.build_problem(seed), AUC_WORKLOAD_FINAL[seed] if scheme == "by_group" else None


AUC_ACCURACY_CASES = {
    **{f"auc-imbalanced seed={seed} {scheme}": (lambda seed=seed, scheme=scheme: _auc_preset_instance(seed, scheme))
       for seed in (1, 7) for scheme in ("by_group", "dirichlet")},
    **{f"dim=1 {scheme}": (lambda scheme=scheme: (fm.AucProblem(K=5, dim=1, n_per_client=33, pos_ratio=0.3, seed=5,
                                                                 scheme=scheme), None))
       for scheme in ("by_group", "iid")},
}


def _robust_preset_instance(preset, seed, scheme):
    """The preset's instance at a seed and split, with the final point of
    the robust-q6 workload run at that seed (robust-q6, iid only)."""
    from test_golden_traces import ROBUST_WORKLOAD_FINAL  # it imports this module, through test_theory

    cfg = apply_overrides(load_preset(preset), {"problem.scheme": scheme})
    final = ROBUST_WORKLOAD_FINAL[seed] if (preset, scheme) == ("robust-q6", "iid") else None
    return cfg.build_problem(seed), final


ROBUST_ACCURACY_CASES = {
    **{f"robust-q6 seed={seed} {scheme}": (lambda seed=seed, scheme=scheme:
                                           _robust_preset_instance("robust-q6", seed, scheme))
       for seed in (1, 7) for scheme in ("iid", "dirichlet")},
    "robust-q12 seed=1 iid": lambda: _robust_preset_instance("robust-q12", 1, "iid"),
    "dim=2 dirichlet": lambda: (fm.RobustProblem(K=5, dim=2, n_per_client=33, seed=5, scheme="dirichlet"), None),
}


class TestAuc:
    def test_mu_values(self):
        inst = fm.AucProblem(K=2, dim=4, n_per_client=20, pos_ratio=0.05, seed=1)
        assert inst.mu == pytest.approx(0.095)
        balanced = fm.AucProblem(K=2, dim=4, n_per_client=20, pos_ratio=0.5, seed=1)
        assert balanced.mu == pytest.approx(0.5)

    def test_pos_ratio_validation(self):
        with pytest.raises(ValueError):
            fm.AucProblem(K=2, dim=4, n_per_client=10, pos_ratio=1.0, seed=0)
        with pytest.raises(ValueError):
            fm.AucProblem(K=2, dim=4, n_per_client=10, pos_ratio=0.0, seed=0)

    def test_pos_ratio_leaves_a_negative_cluster(self):
        # _draw gives round(2K pos_ratio) of its 2K clusters to the positives
        for K, pos_ratio in ((2, 0.9), (2, 0.94), (1, 0.75), (10, 0.98)):
            with pytest.raises(ValueError, match=f"pos_ratio={pos_ratio} "):
                fm.AucProblem(K=K, dim=4, n_per_client=10, pos_ratio=pos_ratio, seed=0)
        for K, pos_ratio in ((2, 0.8), (1, 0.7), (10, 0.97)):
            inst = fm.AucProblem(K=K, dim=4, n_per_client=10, pos_ratio=pos_ratio, seed=0)
            assert (np.concatenate(inst.clients_y) < 0).any()

    def test_held_out_set_needs_both_classes(self):
        for n_test, pos_ratio in ((-1, 0.05), (0, 0.05), (1, 0.05), (1, 0.5), (10, 0.96)):
            with pytest.raises(ValueError, match=f"n_test={n_test} "):
                fm.AucProblem(K=2, dim=4, n_per_client=10, pos_ratio=pos_ratio, n_test=n_test, seed=0)
        for n_test, pos_ratio in ((2, 0.05), (2, 0.7), (10, 0.94)):
            inst = fm.AucProblem(K=10, dim=4, n_per_client=10, pos_ratio=pos_ratio, n_test=n_test, seed=0)
            assert set(inst.test_y.tolist()) == {-1.0, 1.0}

    def test_per_sample_gradient_closed_form(self, auc_inst):
        inst = auc_inst
        # one labeled sample at w=0, a=b=0, alpha=0
        x = np.zeros(inst.d)
        y = np.zeros(1)
        k, item = 0, 0
        xi = inst.clients_X[k][item]
        lab = inst.clients_y[k][item]
        p = inst.pos_ratio
        gx, gy = grad_stoch(inst, k, x, y, item)
        if lab > 0:
            assert np.allclose(gx[: inst.dim], -2 * (1 - p) * xi)
            assert gy[0] == pytest.approx(0.0, abs=1e-15)
        else:
            assert np.allclose(gx[: inst.dim], 2 * p * xi)
            assert gy[0] == pytest.approx(0.0, abs=1e-15)

    def test_stochastic_gradient_against_finite_differences(self, auc_inst):
        inst = auc_inst
        rng = np.random.default_rng(4)
        x = rng.standard_normal(inst.d)
        y = rng.standard_normal(1)
        k, item = 1, 3

        def sample_value(xv, yv):
            return float(_plain_sample_values_auc(inst, k, xv, yv)[item])

        gx, gy = grad_stoch(inst, k, x, y, item)
        fx = fd_grad(lambda z: sample_value(z, y), x)
        fy = fd_grad(lambda z: sample_value(x, z), y)
        assert np.max(np.abs(fx - gx)) / max(1, np.max(np.abs(gx))) < 1e-5
        assert np.max(np.abs(fy - gy)) / max(1, np.max(np.abs(gy))) < 1e-5

    def test_full_gradient_against_finite_differences(self, auc_inst):
        inst = auc_inst
        rng = np.random.default_rng(5)
        for k in (0, 2):
            x = rng.standard_normal(inst.d)
            y = rng.standard_normal(1)
            GX, GY = grad_full(inst, x, y)
            assert np.allclose(GX[k], fd_grad(lambda z: inst.values(z, y)[k], x), atol=1e-5)
            assert np.allclose(GY[k], fd_grad(lambda z: inst.values(x, z)[k], y), atol=1e-5)

    def test_inner_max_closed_form_matches_numeric(self, auc_inst):
        inst = auc_inst
        rng = np.random.default_rng(6)
        for _ in range(4):
            x = rng.standard_normal(inst.d)
            closed = inst.inner_max_value(x)
            numeric = numeric_inner_max(inst, x)
            assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    def test_single_client_inner_max_oracle(self):
        # one client, tiny dataset: the concave quadratic in the scalar
        # maximization variable has its closed-form peak
        inst = fm.AucProblem(K=1, dim=3, n_per_client=8, pos_ratio=0.25, seed=19)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(inst.d)
        alpha_star = inst.y_star(x)
        _, g_at_star = inst.global_grad(x, alpha_star)
        assert abs(g_at_star[0]) < 1e-12
        assert inst.inner_max_value(x) == pytest.approx(numeric_inner_max(inst, x), rel=1e-8, abs=1e-9)
        for off in (-1.0, 0.5, 2.0):
            assert inst.global_value(x, alpha_star + off) < inst.inner_max_value(x)

    def test_unbiasedness(self, auc_inst):
        inst = auc_inst
        rng = np.random.default_rng(7)
        x = rng.standard_normal(inst.d)
        y = rng.standard_normal(1)
        GX, GY = grad_full(inst, x, y)
        for k in range(inst.K):
            gx, gy = GX[k], GY[k]
            n = inst.sizes[k]
            accx, accy = np.zeros_like(gx), np.zeros_like(gy)
            for item in range(n):
                sx, sy = grad_stoch(inst, k, x, y, item)
                accx += sx
                accy += sy
            assert np.linalg.norm(accx / n - gx) < 1e-10
            assert np.linalg.norm(accy / n - gy) < 1e-10

    @pytest.mark.parametrize("case", sorted(AUC_ACCURACY_CASES))
    def test_exact_oracle_is_accurate_against_a_long_double_per_item_reference(self, case):
        # at a run's final point, that of the auc-imbalanced workload config
        inst, final = AUC_ACCURACY_CASES[case]()
        assert _oracle_error(inst, _accuracy_points(inst, final, np.random.default_rng(89))) < 1e-13

    @pytest.mark.parametrize("case", sorted(AUC_ACCURACY_CASES))
    def test_y_star_is_accurate_against_a_long_double_per_item_reference(self, case):
        # eight random points of each of four scales stacked in one call, and
        # a run's final point at four scales in another; a point's error is
        # divided by max(1, |alpha_ref|, |x|), the largest entry of x
        inst, final = AUC_ACCURACY_CASES[case]()
        rng = np.random.default_rng(97)
        points = [scale * rng.standard_normal((8, inst.d)) for scale in (1e-3, 1.0, 1e3, 1e6)]
        if final is not None:
            x = np.array([float.fromhex(v) for v in final[0]])
            points.append(np.stack([c * x for c in (1.0, 1e-3, 1e3, 1e6)]))
        worst = 0.0
        for X in points:
            for x, alpha in zip(X, inst.y_star(X)):
                ref = _long_double_y_star_auc(inst, x)
                worst = max(worst, float(abs(alpha[0] - ref) / max(1.0, float(abs(ref)), np.abs(x).max())))
        assert worst < 1e-13


class TestRobust:
    def test_held_out_size_is_at_least_zero(self):
        with pytest.raises(ValueError, match="n_test >= 0"):
            fm.RobustProblem(K=2, dim=4, n_per_client=10, n_test=-1, seed=0)
        assert fm.RobustProblem(K=2, dim=4, n_per_client=10, n_test=0, seed=0).test_y.shape == (0,)

    def test_zero_perturbation_reduces_to_plain_logistic(self, robust_inst):
        inst = robust_inst
        rng = np.random.default_rng(8)
        w = rng.standard_normal(inst.d)
        z0 = np.zeros(inst.p)
        gx = grad_full(inst, w, z0)[0][0]
        X, lab = inst.clients_X[0], inst.clients_y[0]
        zz = X @ w
        s = -lab / (1 + np.exp(lab * zz))
        assert np.allclose(gx, (s[:, None] * X).mean(axis=0))

    def test_perturbation_gradient_is_collinear_with_w(self, robust_inst):
        inst = robust_inst
        rng = np.random.default_rng(9)
        w = rng.standard_normal(inst.d)
        rho = rng.standard_normal(inst.p) * 0.1
        gy = grad_full(inst, w, rho)[1][0]
        cross = gy - (gy @ w) / (w @ w) * w
        assert np.linalg.norm(cross) < 1e-12

    def test_gradients_against_finite_differences(self, robust_inst):
        inst = robust_inst
        rng = np.random.default_rng(10)
        for k in (0, 3):
            w = rng.standard_normal(inst.d)
            rho = inst.y_constraint.project(rng.standard_normal(inst.p))
            GX, GY = grad_full(inst, w, rho)
            assert np.allclose(GX[k], fd_grad(lambda z: inst.values(z, rho)[k], w), atol=1e-6)
            assert np.allclose(GY[k], fd_grad(lambda z: inst.values(w, z)[k], rho), atol=1e-6)

    def test_boundary_point_is_projection_fixed_point(self, robust_inst):
        y = np.zeros(robust_inst.p)
        y[0] = 1.0
        assert np.array_equal(robust_inst.y_constraint.project(y), y)

    @pytest.mark.parametrize("case", sorted(ROBUST_ACCURACY_CASES))
    def test_exact_oracle_is_accurate_against_a_long_double_per_item_reference(self, case):
        # at a run's final point, that of the robust-q6 workload config
        inst, final = ROBUST_ACCURACY_CASES[case]()
        assert _oracle_error(inst, _accuracy_points(inst, final, np.random.default_rng(83))) < 1e-13


class TestProjection:
    def test_unconstrained_identity(self, synthetic_small):
        y = np.array([5.0, -3.0, 2.0, 0.0, 1.0, 9.0])
        assert synthetic_small.y_constraint.project(y) is y

    def test_ball_scaling(self):
        ball = EuclideanBall(1.0)
        out = ball.project(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_interior_point_unchanged(self):
        ball = EuclideanBall(1.0)
        y = np.array([0.3, 0.4])
        assert ball.project(y) is y


class TestGradF:
    def test_requires_closed_form(self, robust_inst):
        with pytest.raises(ValueError):
            grad_F(robust_inst, np.zeros(robust_inst.d))

    def test_matches_value_function_finite_differences(self, synthetic_small):
        inst = synthetic_small
        rng = np.random.default_rng(11)
        x = rng.standard_normal(inst.d)
        g = grad_F(inst, x)
        fd = fd_grad(lambda z: numeric_inner_max(inst, z), x, h=1e-5)
        assert np.allclose(g, fd, atol=1e-4)

    def test_heterogeneity_grows_with_s(self):
        a = fm.SyntheticProblem(K=8, dim=10, s=1.0, tau=10.0, seed=21)
        b = fm.SyntheticProblem(K=8, dim=10, s=10.0, tau=10.0, seed=21)
        rng = np.random.default_rng(0)
        pts = [(rng.standard_normal(10), rng.standard_normal(10)) for _ in range(20)]

        def max_gap(inst):
            worst_x = worst_y = 0.0
            for x, y in pts:
                GX, GY = grad_full(inst, x, y)
                for i in range(inst.K):
                    for j in range(i + 1, inst.K):
                        worst_x = max(worst_x, float(np.linalg.norm(GX[i] - GX[j])))
                        worst_y = max(worst_y, float(np.linalg.norm(GY[i] - GY[j])))
            return worst_x, worst_y

        ax, ay = max_gap(a)
        bx, by = max_gap(b)
        assert np.isfinite(ax) and np.isfinite(bx)
        # the x-side couplings are shared between the two instances; the
        # offset-driven y-side gap is the s-sensitive one
        assert by > ay


def _plain_grad_synthetic(inst, k, x, y):
    """Client k's exact gradient written as a plain one-client formula."""
    return inst.tau * x - inst.t[k] * y, -y + inst.b[k] - inst.t[k] * x


def _plain_grad_robust(inst, k, x, y):
    """Client k's exact gradient written as a plain one-client formula: the
    x-gradient mean_i s_i (x_i + y) as (s @ X) / n + m y, m the mean slope."""
    X, lab = inst.clients_X[k], inst.clients_y[k]
    z = X @ x + float(x @ y)
    s = -lab * expit(-lab * z)
    m = float(s.mean())
    return s @ X / len(X) + m * y, m * x


def _long_double_grad_robust(inst, k, x, y):
    """Client k's exact gradient in np.longdouble, item by item: the mean of
    the per-item gradients s_i (x_i + y) and s_i x."""
    ld = np.longdouble
    X, lab = inst.clients_X[k].astype(ld), inst.clients_y[k].astype(ld)
    x, y = x.astype(ld), y.astype(ld)
    z = np.array([sum((xi * x).tolist(), ld(0)) for xi in X]) + sum((x * y).tolist(), ld(0))
    with np.errstate(over="ignore"):
        s = -lab / (1 + np.exp(lab * z))
    return np.concatenate([(s[:, None] * (X + y)).sum(axis=0), s.sum() * x]) / len(X)


def _plain_grad_auc(inst, k, x, y):
    """Client k's exact gradient written as a plain one-client formula: its
    Hessian times (x, y) plus its gradient at 0 (the module docstring's H_k
    and g_k), from its class moments weighted by c+ and c-."""
    dim, pr, X, pos = inst.dim, inst.pos_ratio, inst.clients_X[k], inst.clients_y[k] > 0
    c_pos, c_neg = np.where(pos, 2 * (1 - pr) / len(X), 0.0), np.where(pos, 0.0, 2 * pr / len(X))
    s_pos, s_neg = c_pos @ X, c_neg @ X
    u = s_neg - s_pos
    H = np.zeros((dim + 3, dim + 3))
    H[:dim, :dim] = X.T @ ((c_pos + c_neg)[:, None] * X)
    H[:dim, dim] = H[dim, :dim] = -s_pos
    H[:dim, dim + 1] = H[dim + 1, :dim] = -s_neg
    H[:dim, -1] = H[-1, :dim] = u
    H[dim, dim], H[dim + 1, dim + 1], H[-1, -1] = c_pos.sum(), c_neg.sum(), -2 * pr * (1 - pr)
    g = H @ np.concatenate([x, y]) + np.concatenate([u, np.zeros(3)])
    return g[:-1], g[-1:]


def _long_double_grad_auc(inst, k, x, y):
    """Client k's exact gradient in np.longdouble, item by item: the per-item
    gradients of the module docstring's objective, then their mean."""
    ld = np.longdouble
    X, pos, pr = inst.clients_X[k].astype(ld), inst.clients_y[k] > 0, ld(inst.pos_ratio)
    w, a, b, alpha = x[: inst.dim].astype(ld), ld(x[inst.dim]), ld(x[inst.dim + 1]), ld(y[0])
    h = np.array([sum((xi * w).tolist(), ld(0)) for xi in X])
    coef = np.where(pos, 2 * (1 - pr) * (h - a) - 2 * (1 + alpha) * (1 - pr),
                    2 * pr * (h - b) + 2 * (1 + alpha) * pr)
    terms = np.column_stack([coef[:, None] * X, np.where(pos, -2 * (1 - pr) * (h - a), 0),
                             np.where(pos, 0, -2 * pr * (h - b)),
                             np.where(pos, -2 * (1 - pr) * h, 2 * pr * h) - 2 * pr * (1 - pr) * alpha])
    return terms.sum(axis=0) / len(X)


def _long_double_y_star_auc(inst, x):
    """The inner maximizer alpha*(w) in np.longdouble, item by item: the mean
    over clients of each client's mean per-item alpha term, over 2p(1-p)."""
    ld = np.longdouble
    pr, w, total = ld(inst.pos_ratio), x[: inst.dim].astype(ld), ld(0)
    for X, labs in zip(inst.clients_X, inst.clients_y):
        h = np.array([sum((xi * w).tolist(), ld(0)) for xi in X.astype(ld)])
        total += np.where(labs > 0, -2 * (1 - pr) * h, 2 * pr * h).sum() / len(X)
    return total / inst.K / (2 * pr * (1 - pr))


def _accuracy_points(inst, final, rng):
    """Stacked (X, Y) client rows for _oracle_error: random points of four
    scales, each client its own point, and the run's final point (float.hex
    pairs, or None) at four scales, tiled; each y projected onto the
    family's constraint."""
    project = inst.y_constraint.project
    points = [(scale * rng.standard_normal((5 * inst.K, inst.d)),
               project(scale * rng.standard_normal((5 * inst.K, inst.p)))) for scale in (1e-3, 1.0, 1e3, 1e6)]
    if final is not None:
        x, y = (np.array([float.fromhex(v) for v in half]) for half in final)
        points += [(np.tile(c * x, (inst.K, 1)), np.tile(project(c * y), (inst.K, 1))) for c in (1.0, 1e-3, 1e3, 1e6)]
    return points


def _oracle_error(inst, points):
    """The largest error of grad_full_all's client rows at the stacked
    points against the family's long-double per-item gradient, each row's
    divided by max(1, |g_ref|, |x|, |y|) (largest entries)."""
    reference = {"auc": _long_double_grad_auc, "robust": _long_double_grad_robust}[inst.name]
    worst = 0.0
    for X, Y in points:
        GX, GY = inst.grad_full_all(X, Y)
        for i, (x, y) in enumerate(zip(X, Y)):
            ref = reference(inst, i % inst.K, x, y)
            err = np.abs(np.concatenate([GX[i], GY[i]]).astype(np.longdouble) - ref).max()
            worst = max(worst, float(err / max(1.0, float(np.abs(ref).max()), np.abs(x).max(), np.abs(y).max())))
    return worst


def _plain_value_synthetic(inst, k, x, y):
    """Client k's objective written as a plain one-client formula."""
    return float(0.5 * inst.tau * x @ x - (0.5 * y @ y - inst.b[k] @ y + inst.t[k] * (y @ x)))


def _plain_value_robust(inst, k, x, y):
    """Client k's objective written as a plain one-client formula."""
    z = inst.clients_X[k] @ x + float(x @ y)
    return float(np.logaddexp(0.0, -inst.clients_y[k] * z).mean())


def _plain_sample_values_auc(inst, k, x, y):
    """Per-item objectives of client k written as a plain formula."""
    w, a, b, alpha = x[: inst.dim], float(x[inst.dim]), float(x[inst.dim + 1]), float(y[0])
    h = inst.clients_X[k] @ w
    pr = inst.pos_ratio
    vals = np.where(
        inst.clients_y[k] > 0,
        (1 - pr) * (h - a) ** 2 - 2 * (1 + alpha) * (1 - pr) * h,
        pr * (h - b) ** 2 + 2 * (1 + alpha) * pr * h,
    )
    return vals - pr * (1 - pr) * alpha**2


def _plain_value_auc(inst, k, x, y):
    """Client k's objective written as a plain one-client formula."""
    return float(_plain_sample_values_auc(inst, k, x, y).mean())


def _plain_auc_L_f(inst):
    """Max spectral norm of the per-item Hessians, one item at a time."""
    pr = inst.pos_ratio
    worst = 0.0
    nv = inst.d + inst.p
    for k in range(inst.K):
        for xi, lab in zip(inst.clients_X[k], inst.clients_y[k]):
            H = np.zeros((nv, nv))
            u = np.zeros(nv)
            u[: inst.dim] = xi
            if lab > 0:
                u[inst.dim] = -1.0
                H += 2 * (1 - pr) * np.outer(u, u)
                H[: inst.dim, -1] += -2 * (1 - pr) * xi
                H[-1, : inst.dim] += -2 * (1 - pr) * xi
            else:
                u[inst.dim + 1] = -1.0
                H += 2 * pr * np.outer(u, u)
                H[: inst.dim, -1] += 2 * pr * xi
                H[-1, : inst.dim] += 2 * pr * xi
            H[-1, -1] += -2 * pr * (1 - pr)
            worst = max(worst, float(np.abs(np.linalg.eigvalsh(H)).max()))
    return worst


def _plain_robust_hessian(xi, lab, w, rho_v):
    """Hessian of one item's loss(w.(xi+rho)) in (w, rho)."""
    d = len(w)
    z = float((xi + rho_v) @ w)
    ez = 1.0 / (1.0 + math.exp(lab * z))
    lpp = ez * (1.0 - ez)
    lp = -lab * ez
    u = np.concatenate([xi + rho_v, w])
    H = lpp * np.outer(u, u)
    H[:d, d:] += lp * np.eye(d)
    H[d:, :d] += lp * np.eye(d)
    return H


def _plain_robust_L_f(inst, n_samples, rng):
    """Sampled max spectral norm of the per-item Hessians, one item at a time."""
    worst = 0.0
    for _ in range(max(1, n_samples // 10)):
        w = rng.standard_normal(inst.d)
        rho_v = inst.y_constraint.project(rng.standard_normal(inst.p))
        for k in range(inst.K):
            for xi, lab in zip(inst.clients_X[k], inst.clients_y[k]):
                H = _plain_robust_hessian(xi, lab, w, rho_v)
                worst = max(worst, float(np.abs(np.linalg.eigvalsh(H)).max()))
    return worst


def _plain_stoch_synthetic(inst, k, x, y, item):
    """One sampled gradient of client k written as a plain formula."""
    gx = inst.tau * x - inst.t[k] * y
    gy = -y + inst.b[k] - inst.t[k] * x
    return gx + inst.noise_x[k, item], gy + inst.noise_y[k, item]


def _plain_stoch_robust(inst, k, x, y, item):
    """One sampled gradient of client k written as a plain formula."""
    xi, lab = inst.clients_X[k][item], inst.clients_y[k][item]
    z = float(xi @ x + x @ y)
    s = -lab * expit(-lab * z)
    return s * (xi + y), s * x


def _plain_stoch_auc(inst, k, x, y, item):
    """One sampled gradient of client k written as a plain formula."""
    w, a, b = x[: inst.dim], float(x[inst.dim]), float(x[inst.dim + 1])
    alpha = float(y[0])
    xi = inst.clients_X[k][item]
    pr = inst.pos_ratio
    h = float(xi @ w)
    if inst.clients_y[k][item] > 0:
        gw = (2 * (1 - pr) * (h - a) - 2 * (1 + alpha) * (1 - pr)) * xi
        ga = -2 * (1 - pr) * (h - a)
        gb = 0.0
        galpha = -2 * (1 - pr) * h - 2 * pr * (1 - pr) * alpha
    else:
        gw = (2 * pr * (h - b) + 2 * (1 + alpha) * pr) * xi
        ga = 0.0
        gb = -2 * pr * (h - b)
        galpha = 2 * pr * h - 2 * pr * (1 - pr) * alpha
    return np.concatenate([gw, [ga, gb]]), np.array([galpha])


def _where_item_terms(inst, Xs, labs, X, Y):
    """Per-item AUC gradient terms (R, 1), the w coefficient and the a, b
    and alpha terms, from both branches of every item, then np.where on
    its label."""
    dim, pr = inst.dim, inst.pos_ratio
    h = np.matmul(Xs, X[..., :dim, None])[..., 0]
    pos = labs > 0
    ha, hb, c = h - X[..., dim:dim + 1], h - X[..., dim + 1:], 2 * (1 + Y)
    return (
        np.where(pos, 2 * (1 - pr) * ha - c * (1 - pr), 2 * pr * hb + c * pr),
        np.where(pos, -2 * (1 - pr) * ha, 0.0),
        np.where(pos, 0.0, -2 * pr * hb),
        np.where(pos, -2 * (1 - pr) * h, 2 * pr * h),
    )


def _where_grad_rows(inst, x_items, labels, X, Y):
    """The reference for AucProblem._grad_rows: the branch terms, on labels (R, 1)."""
    pr = inst.pos_ratio
    coef, ga, gb, gh = _where_item_terms(inst, x_items[:, None, :], labels, X, Y)
    return np.concatenate([coef * x_items, ga, gb], axis=1) + 0.0, (gh + 0.0) - 2 * pr * (1 - pr) * Y


def _where_value_block(inst, Xs, labs, x, y):
    """The reference for AucProblem._value_block: both branches of every
    item, then np.where on its label in labs (B, n)."""
    dim, pr = inst.dim, inst.pos_ratio
    a, b, alpha = x[..., dim, None, None], x[..., dim + 1, None, None], y[..., 0, None, None]
    alpha_sq = np.array([v**2 for v in alpha.ravel().tolist()]).reshape(alpha.shape)
    h = np.matmul(Xs, x[..., None, :dim, None])[..., 0]
    vals = np.where(
        labs > 0,
        (1 - pr) * (h - a) ** 2 - 2 * (1 + alpha) * (1 - pr) * h,
        pr * (h - b) ** 2 + 2 * (1 + alpha) * pr * h,
    )
    return (vals - pr * (1 - pr) * alpha_sq).mean(axis=-1)


def _auc_edge_points(inst, rng, n, sides, alpha_big=True):
    """n points X (n, d), Y (n, 1) at a random scale, about 15% of the
    entries of each side named in sides ("x", "y") set to edge entries."""
    X = 10.0 ** rng.integers(-3, 7) * rng.standard_normal((n, inst.d))
    Y = 10.0 ** rng.integers(-3, 4) * rng.standard_normal((n, 1))
    for side, A in (("x", X), ("y", Y)):
        if side in sides:
            # without alpha_big, alpha takes no +-1e300, whose square as a
            # Python float raises OverflowError (both forms)
            entries = EDGE_ENTRIES if side == "x" or alpha_big else EDGE_ENTRIES[:6]
            hit = rng.random(A.shape) < 0.15
            A[hit] = rng.choice(entries, size=int(hit.sum()))
    return X, Y


def _auc_with_zero_items(inst, every):
    """inst with every item, or only its first (client 0's first, which
    starts the pool), at x_i = 0."""
    for A in (*inst.clients_X, inst._pool_X) if every else (inst.clients_X[0][:1], inst._pool_X[:1]):
        A[:] = 0.0
    return inst


STACKED_CASES = {
    "synthetic": lambda: fm.SyntheticProblem(K=7, dim=5, s=1.0, tau=10.0, seed=4),
    # the benchmark's shape, and a one-column coefficient table
    "synthetic-k100": lambda: fm.SyntheticProblem(K=100, dim=20, s=1.0, tau=10.0, seed=1),
    "synthetic-dim=1": lambda: fm.SyntheticProblem(K=6, dim=1, s=1.0, tau=10.0, n_per_client=9, seed=2),
    "auc-iid": lambda: fm.AucProblem(K=12, dim=8, n_per_client=30, pos_ratio=0.1, seed=3, scheme="iid"),
    "auc-by_group": lambda: fm.AucProblem(K=11, dim=8, n_per_client=40, pos_ratio=0.05, seed=1),
    "auc-dirichlet": lambda: fm.AucProblem(K=10, dim=6, n_per_client=30, pos_ratio=0.2, seed=2, scheme="dirichlet"),
    "robust-iid": lambda: fm.RobustProblem(K=6, dim=10, n_per_client=30, seed=11),
    "robust-by_group": lambda: fm.RobustProblem(K=2, dim=6, n_per_client=25, seed=5, scheme="by_group"),
    "robust-dirichlet": lambda: fm.RobustProblem(K=8, dim=10, n_per_client=30, seed=1, scheme="dirichlet"),
}
RAGGED_CASES = ("auc-by_group", "auc-dirichlet", "robust-by_group", "robust-dirichlet")
AUC_KERNEL_CASES = {
    **{case: STACKED_CASES[case] for case in ("auc-iid", "auc-by_group", "auc-dirichlet")},
    "auc-dim=1": lambda: fm.AucProblem(K=5, dim=1, n_per_client=33, pos_ratio=0.3, seed=5),
}
PLAIN_GRAD = {"synthetic": _plain_grad_synthetic, "auc": _plain_grad_auc, "robust": _plain_grad_robust}
PLAIN_VALUE = {"synthetic": _plain_value_synthetic, "auc": _plain_value_auc, "robust": _plain_value_robust}
PLAIN_STOCH = {"synthetic": _plain_stoch_synthetic, "auc": _plain_stoch_auc, "robust": _plain_stoch_robust}


class TestStackedOracle:
    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_sizes_count_each_clients_items(self, case):
        # iid, by_group and dirichlet splits: one label per item
        inst = STACKED_CASES[case]()
        counts = [inst.n_per_client] * inst.K if inst.name == "synthetic" else [len(labs) for labs in inst.clients_y]
        assert inst.sizes.shape == (inst.K,) and inst.sizes.tolist() == counts
        assert inst.sizes.sum() == inst.K * inst.n_per_client

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_rows_equal_per_client_oracle_bitwise(self, case):
        inst = STACKED_CASES[case]()
        sizes = set(inst.sizes.tolist())
        assert (len(sizes) > 1) == (case in RAGGED_CASES)
        rng = np.random.default_rng(17)
        for _ in range(10):
            X = 2.0 * rng.standard_normal((inst.K, inst.d))
            Y = 2.0 * rng.standard_normal((inst.K, inst.p))
            GX, GY = inst.grad_full_all(X, Y)
            assert GX.shape == X.shape and GY.shape == Y.shape
            for k in range(inst.K):
                px, py = PLAIN_GRAD[inst.name](inst, k, X[k], Y[k])
                assert np.array_equal(GX[k], px) and np.array_equal(GY[k], py)

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_values_equal_plain_per_client_objectives_bitwise(self, case):
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = 2.0 * rng.standard_normal(inst.d)
            y = 2.0 * rng.standard_normal(inst.p)
            vals = inst.values(x, y)
            assert vals.shape == (inst.K,)
            acc = 0.0
            for k in range(inst.K):
                ref = PLAIN_VALUE[inst.name](inst, k, x, y)
                assert vals[k] == ref
                acc += ref
            assert inst.global_value(x, y) == acc / inst.K

    def test_auc_values_keep_the_scalar_alpha_square_bits(self):
        # alpha**2 on a Python float is libm pow; an array's **2 is x*x,
        # which differs on a few inputs in ten thousand
        inst = fm.AucProblem(K=2, dim=3, n_per_client=4, pos_ratio=0.25, seed=8)
        rng = np.random.default_rng(47)
        x = rng.standard_normal(inst.d)
        alphas = 2.0 * rng.standard_normal(5000)
        stacked = inst.values(np.tile(x, (len(alphas), 1)), alphas[:, None])[:, 0]
        for alpha, value in zip(alphas, stacked):
            y = np.array([alpha])
            assert inst.values(x, y)[0] == value == _plain_value_auc(inst, 0, x, y)

    def test_auc_values_at_an_overflowing_alpha_square_are_minus_inf(self):
        # Python's float power raises OverflowError past sqrt(max float); the
        # objective takes +inf for the square there, and libm's bits below
        inst = fm.AucProblem(K=2, dim=3, n_per_client=4, pos_ratio=0.25, seed=8)
        x = np.zeros(inst.d)
        edge = math.sqrt(np.finfo(float).max)
        for alpha in (1e300, -1e300, np.nextafter(edge, math.inf) * 2, -edge * 4):
            with np.errstate(over="ignore"):  # as algorithms.run silences it
                assert (inst.values(x, np.array([alpha])) == -math.inf).all()
        for alpha in (np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0)):
            y = np.array([alpha])
            want = [_plain_value_auc(inst, k, x, y) for k in range(inst.K)]
            assert inst.values(x, y).tolist() == want and all(map(math.isfinite, want))

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_values_and_y_star_at_stacked_points_equal_one_call_per_point_bitwise(self, case):
        # the recorder evaluates a chunk's S points in one call each
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(71)
        for scale in (1e-3, 1.0, 1e3):
            for S in (1, 2, 7):
                X = scale * rng.standard_normal((S, inst.d))
                Y = scale * rng.standard_normal((S, inst.p))
                V, G = inst.values(X, Y), inst.global_value(X, Y)
                assert V.shape == (S, inst.K) and G.shape == (S,)
                for s in range(S):
                    assert _same_bits(V[s], inst.values(X[s], Y[s]))
                    g = inst.global_value(X[s], Y[s])
                    assert type(g) is float and G[s] == g
                if inst.has_closed_form_inner_max:
                    Y_star = inst.y_star(X)
                    assert Y_star.shape == (S, inst.p)
                    for s in range(S):
                        assert _same_bits(Y_star[s], inst.y_star(X[s]))

    @pytest.mark.parametrize("items", ["as drawn", "first zero", "every zero", "all equal", "one scaled 1e100"])
    @pytest.mark.parametrize("case", sorted(AUC_KERNEL_CASES) + ["auc-imbalanced"])
    def test_auc_lipschitz_screen_equals_eigvalsh_of_every_block_bitwise(self, case, items):
        # eigvalsh on the screened blocks only, against every item's block
        inst = AUC_KERNEL_CASES[case]() if case in AUC_KERNEL_CASES else load_preset(case).build_problem(7)
        if items.endswith("zero"):
            _auc_with_zero_items(inst, every=items == "every zero")
        elif items == "all equal":  # every block ties: all are kept
            inst._pool_X[:] = inst._pool_X[0]
        elif items == "one scaled 1e100":
            inst._pool_X[3] *= 1e100
        _, c, _, _, s, _ = inst._pool_table
        r_sq = row_dots(inst._pool_X)
        r = np.sqrt(r_sq)
        blocks = np.zeros((len(r), 3, 3))
        blocks[:, 0, 0], blocks[:, 1, 0], blocks[:, 1, 1] = c * r_sq, -c * r, c
        blocks[:, 2, 0], blocks[:, 2, 2] = s * r, -inst.mu
        assert inst.lipschitz_L_f.hex() == float(np.abs(np.linalg.eigvalsh(blocks)).max()).hex()

    @pytest.mark.parametrize("zeros", ["none", "first", "every"])
    @pytest.mark.parametrize("case", sorted(AUC_KERNEL_CASES))
    def test_auc_lipschitz_is_within_1e_13_of_the_per_item_hessian_loop(self, case, zeros):
        # the 3 x 3 blocks' eigvalsh is not the (d+1)-square Hessians': equal
        # within a few ulp; with x_i = 0 an item's block is diag(0, c, -mu)
        inst = AUC_KERNEL_CASES[case]()
        if zeros != "none":
            _auc_with_zero_items(inst, every=zeros == "every")
        assert inst.lipschitz_L_f == pytest.approx(_plain_auc_L_f(inst), rel=1e-13)

    @pytest.mark.parametrize("case", sorted(AUC_KERNEL_CASES))
    def test_auc_row_kernel_equals_its_where_form_bitwise(self, case):
        # edge entries in x, in y or in both, a tenth of the items at
        # x_i = 0 (0 * inf is NaN), 60 rows (a SIMD tail): every bit while
        # the non-finite entries are on one side; on both, two NaN terms can
        # meet, and which passes is numpy's (same_bits_or_both_nan)
        inst = AUC_KERNEL_CASES[case]()
        rng = np.random.default_rng(101)
        pool_y = np.concatenate(inst.clients_y)
        for sides in ("", "x", "y", "xy"):
            same = same_bits_or_both_nan if sides == "xy" else _same_bits
            for _ in range(20):
                ks = rng.integers(inst.K, size=60)
                items = rng.integers(inst.sizes[ks])
                rows = np.cumsum(inst.sizes)[ks] - inst.sizes[ks] + items
                x_items = np.stack([inst.clients_X[k][i] for k, i in zip(ks, items)])
                X, Y = _auc_edge_points(inst, rng, 60, sides)
                with np.errstate(all="ignore"):
                    got = inst.grad_stoch_rows(ks, items, X, Y)
                    want = _where_grad_rows(inst, x_items, pool_y[rows][:, None], X, Y)
                    assert all(same(g, w) for g, w in zip(got, want))
                    x_items[rng.random(60) < 0.1] = 0.0
                    got = inst._grad_rows(x_items, inst._pool_table[:, rows], X, Y)
                    want = _where_grad_rows(inst, x_items, pool_y[rows][:, None], X, Y)
                    assert all(same(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("case", sorted(AUC_KERNEL_CASES))
    def test_auc_objective_kernel_equals_its_where_form_bitwise(self, case):
        # every size block at S = 0, 1 and 25 stacked points (25: the
        # recorder's chunk), at one unstacked point and at x (S, 1, d)
        # against y (S, 2, 1), then with one item at x_i = 0; edge entries
        # as in the row kernel's test
        inst = AUC_KERNEL_CASES[case]()
        rng = np.random.default_rng(103)
        for sides in ("", "x", "y", "xy"):
            same = same_bits_or_both_nan if sides == "xy" else _same_bits
            for S in (0, 1, 25):
                x, y = _auc_edge_points(inst, rng, S, sides, alpha_big=False)
                points = [(x, y), (x[:, None], np.stack([y, -y], axis=1))] + ([(x[0], y[0])] if S else [])
                for xs, ys in points:
                    with np.errstate(all="ignore"):
                        vals = inst.values(xs, ys)
                        for ks, Xs, table in inst._blocks:
                            labs = np.stack([inst.clients_y[k] for k in ks])
                            assert same(vals[..., ks], _where_value_block(inst, Xs, labs, xs, ys))
                            Xs = Xs.copy()
                            Xs[0, 0] = 0.0
                            assert same(inst._value_block(Xs, table, xs, ys), _where_value_block(inst, Xs, labs, xs, ys))

    @pytest.mark.parametrize("case", sorted(c for c in STACKED_CASES if c.startswith("robust")))
    def test_robust_lipschitz_estimate_matches_per_item_hessian_loop(self, case):
        # The closed form is not eigvalsh's arithmetic: equal within a few ulp.
        inst = STACKED_CASES[case]()
        for seed in range(5):
            got = _estimate_robust_L_f(inst, 30, np.random.default_rng(seed))
            assert got == pytest.approx(_plain_robust_L_f(inst, 30, np.random.default_rng(seed)), rel=1e-13)

    @pytest.mark.parametrize("probes_a_pass", [1, 2, "default"])
    @pytest.mark.parametrize("case", sorted(c for c in STACKED_CASES if c.startswith("robust"))
                             + ["robust-q6", "robust-q12"])
    def test_robust_lipschitz_estimate_equals_the_per_probe_loop_bitwise(self, case, probes_a_pass, monkeypatch):
        # one _robust_hessian_norms call per probe point (the reference)
        # against stacked passes: 2 over 5 probes makes passes of 2, 2 and 1
        inst = STACKED_CASES[case]() if case in STACKED_CASES else load_preset(case).build_problem(7)
        X, lab = np.concatenate(inst.clients_X), np.concatenate(inst.clients_y)
        if probes_a_pass != "default":
            monkeypatch.setattr(theory, "_PROBE_ITEMS", probes_a_pass * len(X))
        for seed in range(3):
            got = _estimate_robust_L_f(inst, 50, np.random.default_rng(seed))
            Z = np.random.default_rng(seed).standard_normal((5, inst.d + inst.p))
            W, R = Z[:, :inst.d], inst.y_constraint.project(Z[:, inst.d:])
            want = max(float(_robust_hessian_norms(X + rho_v, lab, w).max()) for w, rho_v in zip(W, R))
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("case", sorted(c for c in STACKED_CASES if c.startswith("robust")))
    def test_robust_hessian_norms_equal_per_item_largest_eigenvalue(self, case):
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(53)
        for _ in range(3):
            w = rng.standard_normal(inst.d)
            rho_v = inst.y_constraint.project(rng.standard_normal(inst.p))
            for k in range(inst.K):
                norms = _robust_hessian_norms(inst.clients_X[k] + rho_v, inst.clients_y[k], w)
                for got, xi, lab in zip(norms, inst.clients_X[k], inst.clients_y[k]):
                    ref = float(np.abs(np.linalg.eigvalsh(_plain_robust_hessian(xi, lab, w, rho_v))).max())
                    assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("case", sorted(c for c in STACKED_CASES if c.startswith("robust")))
    def test_robust_curvatures_come_from_libm_exp_bitwise(self, case):
        # catches np.exp in place of math.exp, which differs on a few inputs
        # in a hundred
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(59)
        for _ in range(3):
            w = rng.standard_normal(inst.d)
            rho_v = inst.y_constraint.project(rng.standard_normal(inst.p))
            for k in range(inst.K):
                lp, lpp = _robust_curvatures(inst.clients_X[k] + rho_v, inst.clients_y[k], w)
                for i, (xi, lab) in enumerate(zip(inst.clients_X[k], inst.clients_y[k])):
                    ez = 1.0 / (1.0 + math.exp(lab * float((xi + rho_v) @ w)))
                    assert (lp[i], lpp[i]) == (-lab * ez, ez * (1.0 - ez))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_robust_hessian_norms_at_d1_and_where_u_is_parallel_to_Ju(self, d):
        # d = 1: span{u, Ju} is the whole space. a = x + rho = +-w: u and Ju
        # are parallel and the span is a line; a = w = 0: H = l'J.
        rng = np.random.default_rng(61 + d)
        pairs = [(2.0 * rng.standard_normal(d), rng.standard_normal(d)) for _ in range(30)]
        for _ in range(15):
            w = rng.uniform(0.05, 3.0) * rng.standard_normal(d)
            pairs += [(w.copy(), w), (-w, w)]
        pairs.append((np.zeros(d), np.zeros(d)))
        for a, w in pairs:
            for lab in (1.0, -1.0):
                got = float(_robust_hessian_norms(a[None], np.array([lab]), w)[0])
                ref = float(np.abs(np.linalg.eigvalsh(_plain_robust_hessian(a, lab, w, np.zeros(d)))).max())
                assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_stochastic_rows_equal_plain_per_sample_formulas_bitwise(self, case):
        # one row per client (the run's layout), then rows of arbitrary
        # clients in any order and with repeats (the sigma estimate's layout)
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(29)
        for _ in range(10):
            ks = np.concatenate([np.arange(inst.K), rng.integers(inst.K, size=2 * inst.K)])
            items = np.array([rng.integers(inst.sizes[k]) for k in ks])
            X = 2.0 * rng.standard_normal((len(ks), inst.d))
            Y = 2.0 * rng.standard_normal((len(ks), inst.p))
            GX, GY = inst.grad_stoch_rows(ks, items, X, Y)
            assert GX.shape == X.shape and GY.shape == Y.shape
            for i, (k, item) in enumerate(zip(ks, items)):
                px, py = PLAIN_STOCH[inst.name](inst, k, X[i], Y[i], item)
                assert np.array_equal(GX[i], px) and np.array_equal(GY[i], py)
                sx, sy = grad_stoch(inst, k, X[i], Y[i], item)
                assert np.array_equal(sx, px) and np.array_equal(sy, py)

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_concatenated_rows_equal_two_calls_bitwise(self, case):
        # a local step evaluates its sample at the new and the old point in
        # one call on 2K rows; no kernel may let one row affect another
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(31)
        ks = np.arange(inst.K)
        for _ in range(10):
            items = np.array([rng.integers(inst.sizes[k]) for k in ks])
            X = 2.0 * rng.standard_normal((2 * inst.K, inst.d))
            Y = 2.0 * rng.standard_normal((2 * inst.K, inst.p))
            GX, GY = inst.grad_stoch_rows(np.tile(ks, 2), np.tile(items, 2), X, Y)
            for half in (slice(None, inst.K), slice(inst.K, None)):
                gx, gy = inst.grad_stoch_rows(ks, items, X[half], Y[half])
                assert np.array_equal(GX[half], gx) and np.array_equal(GY[half], gy)

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_exact_oracle_on_stacked_k_row_blocks_equals_one_call_per_block_bitwise(self, case):
        # the recorder evaluates a chunk's client points and (x_bar, y*)
        # tiled in one call on a few K-row blocks each, the constants' probes
        # on 5K and 8K rows; row i belongs to client i mod K. A dataset family
        # broadcasts its data over however many blocks a call brings.
        inst = STACKED_CASES[case]()
        K = inst.K
        rng = np.random.default_rng(43)
        for n in (2, 2, 2, 3, 5, 8, 2):
            X = 2.0 * rng.standard_normal((n * K, inst.d))
            Y = 2.0 * rng.standard_normal((n * K, inst.p))
            X[K:2 * K], Y[K:2 * K] = X[K], Y[K]  # one shared point, as the recorder tiles it
            GX, GY = inst.grad_full_all(X, Y)
            assert GX.shape == X.shape and GY.shape == Y.shape
            for b in range(n):
                rows = slice(b * K, (b + 1) * K)
                gx, gy = inst.grad_full_all(X[rows], Y[rows])
                assert np.array_equal(GX[rows], gx) and np.array_equal(GY[rows], gy)

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_stacked_row_equals_grad_full_at_that_rows_point_bitwise(self, case):
        # grad_full tiles one point over the K clients; row i of a call on
        # n blocks of distinct points is row i mod K of grad_full there
        inst = STACKED_CASES[case]()
        K = inst.K
        rng = np.random.default_rng(61)
        for n in (2, 5):
            X = 2.0 * rng.standard_normal((n * K, inst.d))
            Y = inst.y_constraint.project(2.0 * rng.standard_normal((n * K, inst.p)))
            GX, GY = inst.grad_full_all(X, Y)
            for i in range(n * K):
                gx, gy = grad_full(inst, X[i], Y[i])
                assert gx.shape == (K, inst.d) and gy.shape == (K, inst.p)
                assert _same_bits(GX[i], gx[i % K]) and _same_bits(GY[i], gy[i % K])

    @pytest.mark.parametrize("case", sorted(c for c in STACKED_CASES if c.startswith("robust")))
    def test_exact_oracle_in_pieces_equals_one_unsplit_call_bitwise(self, case, monkeypatch):
        # grad_full_all bounds its kernel's temporaries by taking the point
        # blocks of each size block in pieces; on ragged splits each size
        # block cuts its own pieces
        inst = STACKED_CASES[case]()
        K = inst.K
        rng = np.random.default_rng(53)
        X = 2.0 * rng.standard_normal((9 * K, inst.d))
        Y = 2.0 * rng.standard_normal((9 * K, inst.p))
        calls = []
        real_kernel = inst._grad_block
        monkeypatch.setattr(inst, "_grad_block", lambda *args: calls.append(len(args[2])) or real_kernel(*args))
        monkeypatch.setattr(robust, "_ORACLE_ELEMENTS", 10**12)
        GX, GY = inst.grad_full_all(X, Y)
        assert calls == [9] * len(inst._blocks)
        # one point block a piece, then four a piece of the largest size
        # block (4, 4, 1) and more of any smaller one; the budget counts
        # (blocks, K_b, n_b) slopes
        largest = max(labs.size for _, _, labs in inst._blocks)
        for budget in (1, 4 * largest):
            calls.clear()
            monkeypatch.setattr(robust, "_ORACLE_ELEMENTS", budget)
            gx, gy = inst.grad_full_all(X, Y)
            if budget == 1:
                assert calls == [1] * 9 * len(inst._blocks)
            else:
                assert 4 in calls and len(calls) > len(inst._blocks)
            assert np.array_equal(gx, GX) and np.array_equal(gy, GY)

    def test_shared_x_block_gives_the_tiled_values_bitwise(self):
        # values broadcasts x against y over their leading axes: one x unstacked against 8 y's
        for case in ("robust-iid", "robust-dirichlet"):
            inst = STACKED_CASES[case]()
            rng = np.random.default_rng(59)
            for _ in range(5):
                x = 2.0 * rng.standard_normal(inst.d)
                ys = inst.y_constraint.project(2.0 * rng.standard_normal((8, inst.p)))
                assert np.array_equal(inst.global_value(x, ys), inst.global_value(np.tile(x, (8, 1)), ys))

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_sigma_estimate_equals_per_item_loop_bitwise(self, case):
        inst = STACKED_CASES[case]()
        n_samples, seed = 30, 37
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_samples // 10):
            x = 2.0 * rng.standard_normal(inst.d)
            y = 2.0 * rng.standard_normal(inst.p)
            for k in range(inst.K):
                gx, gy = PLAIN_GRAD[inst.name](inst, k, x, y)
                acc = 0.0
                for item in range(inst.sizes[k]):
                    sx, sy = PLAIN_STOCH[inst.name](inst, k, x, y, item)
                    acc += float((sx - gx) @ (sx - gx) + (sy - gy) @ (sy - gy))
                worst = max(worst, acc / inst.sizes[k])
        assert _estimate_sigma(inst, n_samples, np.random.default_rng(seed)) == math.sqrt(worst)

    @pytest.mark.parametrize("probes_a_pass", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_sigma_estimate_in_several_passes_equals_per_item_loop_bitwise(self, case, probes_a_pass, monkeypatch):
        # 0: a budget below one probe's rows still makes one probe a pass;
        # 2 over 5 probes: passes of 2, 2 and 1
        inst = STACKED_CASES[case]()
        n_samples, seed, n_rows = 50, 41, int(inst.sizes.sum())
        monkeypatch.setattr(theory, "_PROBE_ITEMS", max(1, probes_a_pass * n_rows))
        stoch, full = [], []
        monkeypatch.setattr(inst, "grad_stoch_rows",
                            lambda ks, items, X, Y, f=inst.grad_stoch_rows: stoch.append(len(ks)) or f(ks, items, X, Y))
        monkeypatch.setattr(theory, "grad_full", lambda i, x, y: full.append(1) or grad_full(i, x, y))
        got = _estimate_sigma(inst, n_samples, np.random.default_rng(seed))
        per_pass = max(1, probes_a_pass)
        assert stoch == [n_rows * min(per_pass, 5 - i) for i in range(0, 5, per_pass)] and len(full) == 5
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_samples // 10):
            x = 2.0 * rng.standard_normal(inst.d)
            y = 2.0 * rng.standard_normal(inst.p)
            for k in range(inst.K):
                gx, gy = PLAIN_GRAD[inst.name](inst, k, x, y)
                acc = 0.0
                for item in range(inst.sizes[k]):
                    sx, sy = PLAIN_STOCH[inst.name](inst, k, x, y, item)
                    acc += float((sx - gx) @ (sx - gx) + (sy - gy) @ (sy - gy))
                worst = max(worst, acc / inst.sizes[k])
        assert got == math.sqrt(worst)

    def test_ball_projection_of_rows_equals_per_row_projection_bitwise(self):
        ball = EuclideanBall(1.5)
        rng = np.random.default_rng(31)
        for p in (1, 2, 10):
            Y = rng.standard_normal((200, p)) * rng.uniform(0.0, 3.0, size=(200, 1))
            Y[0] = 0.0
            P = ball.project(Y)
            for y, py in zip(Y, P):
                assert np.array_equal(py, ball.project(y))
                norm = float(np.linalg.norm(y))
                assert np.array_equal(py, y if norm <= ball.radius else y * (ball.radius / norm))

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_global_grad_equals_fixed_order_client_loop_bitwise(self, case):
        inst = STACKED_CASES[case]()
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = 2.0 * rng.standard_normal(inst.d)
            y = 2.0 * rng.standard_normal(inst.p)
            acc_x, acc_y = np.zeros(inst.d), np.zeros(inst.p)
            for k in range(inst.K):
                gx, gy = PLAIN_GRAD[inst.name](inst, k, x, y)
                acc_x += gx
                acc_y += gy
            gx, gy = inst.global_grad(x, y)
            assert np.array_equal(gx, acc_x / inst.K) and np.array_equal(gy, acc_y / inst.K)

    def test_estimate_constants_equals_pairwise_double_loop_bitwise(self):
        inst = fm.SyntheticProblem(K=100, dim=20, s=1.0, tau=10.0, seed=1)
        n_samples, seed = 4, 9
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        dx = dy = 0.0
        for _ in range(n_samples):
            x = 2.0 * rng.standard_normal(inst.d)
            y = 2.0 * rng.standard_normal(inst.p)
            gs = [_plain_grad_synthetic(inst, k, x, y) for k in range(inst.K)]
            for a in range(inst.K):
                for b in range(a + 1, inst.K):
                    dx = max(dx, float(np.linalg.norm(gs[a][0] - gs[b][0])))
                    dy = max(dy, float(np.linalg.norm(gs[a][1] - gs[b][1])))
        c = estimate_constants(inst, n_samples=n_samples, seed=seed)
        assert (c.delta_x, c.delta_y) == (dx, dy)
        assert (c.L_f, c.mu, c.sigma) == (inst.lipschitz_L_f, inst.mu, inst.sigma_bound)
