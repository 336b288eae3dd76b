"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria covered, in order:
 1. synthetic convergence at both heterogeneity levels, grid-searched rates
 2. exact reduction equivalences between variants (CSV-cell equality)
 3. complexity-ledger exactness over 50 random (T, q, K)
 4. zero consensus at every sync record, every variant
 5. assumption probes (gradient growth, Lipschitz, finite differences,
    oracle unbiasedness)
 6. constraint validator: shipped preset passes, each constraint
    individually falsifiable by name
 7. adaptive-matrix entry floor over one million randomized updates
 8. AUC experiment ordering (imbalanced, linear scorer)
 9. robust training beats a plain baseline under attack; sync-period
    communication accounting
10. variance-reduced estimator error beats the momentum-free estimator
"""

import numpy as np
import pytest
from dataclasses import replace

import fedminimax as fm
from fedminimax.algorithms import HyperParams, init_round
from fedminimax.estimators import MODE_ADABELIEF, MODE_ADAM, AdaptiveAccumulator
from fedminimax.metrics import emit_csv, robust_accuracy
from fedminimax.presets import load_preset
from fedminimax.problems import SampleRef, grad_full, grad_stoch, saddle_point
from fedminimax.theory import (
    estimate_constants,
    grad_check,
    probe_lipschitz,
    probe_pl,
    validate_theorem1,
    validate_theorem2,
)

GRID = (0.01, 0.05, 0.1)


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _initial_distance(problem, hp):
    clients, _, _ = init_round(problem, hp)
    xs, ys = saddle_point(problem)
    dx = clients.X[0] - xs
    dy = clients.Y[0] - ys
    return float(dx @ dx + dy @ dy)


def _sync_distances(trace):
    return [r.dist_x_sq + r.dist_y_sq for r in trace.sync_records()]


def _monotone_after_burn_in(dists, factor=1.5, burn_frac=0.1):
    start = max(1, int(np.ceil(burn_frac * len(dists))))
    return all(dists[i + 1] <= factor * dists[i] for i in range(start - 1, len(dists) - 1))


@pytest.fixture(scope="module")
def synthetic_grid_runs():
    """Grid-searched runs behind criterion 1, reused by criterion 4."""
    runs = {}
    for s in (1.0, 10.0):
        preset = "synthetic-s1" if s == 1.0 else "synthetic-s10"
        cfg = load_preset(preset)
        problem = cfg.build_problem(1)
        for variant, rho in (("fgda", 0.01), ("adafgda_adam", 0.3)):
            for g in GRID:
                hp = replace(cfg.hp_for_seed(1), variant=variant, gamma=g, lam=g, rho=rho)
                runs[(s, variant, g)] = (problem, hp, fm.run(problem, hp))
    return runs


def test_criterion_1_synthetic_convergence(synthetic_grid_runs):
    ok_all = True
    details = []
    for s in (1.0, 10.0):
        for variant in ("fgda", "adafgda_adam"):
            passed = []
            for g in GRID:
                problem, hp, trace = synthetic_grid_runs[(s, variant, g)]
                init_d = _initial_distance(problem, hp)
                dists = _sync_distances(trace)
                reached = dists[-1] <= 1e-4 * init_d
                mono = _monotone_after_burn_in(dists)
                fast = trace.wall_time_s < 60.0
                if reached and mono and fast:
                    passed.append((dists[-1] / init_d, g))
            ok = len(passed) > 0
            ok_all &= ok
            best = min(passed)[0] if passed else float("nan")
            details.append(f"s={s} {variant}: best final/initial={best:.2e}")
    report(1, ok_all, "; ".join(details))


def test_criterion_2_reduction_equivalences(tmp_path):
    inst = fm.make_synthetic(K=5, dim=8, s=1.0, tau=10.0, seed=4)

    def csv_text(hp, name):
        trace = fm.run(inst, hp)
        path = tmp_path / f"{name}.csv"
        emit_csv(trace, path)
        return path.read_text()

    base = HyperParams(T=120, q=10, seed=2, gamma=0.02, lam=0.02)
    a1 = csv_text(replace(base, variant="fgda", rho=1.0), "fgda_unitrho")
    a2 = csv_text(replace(base, variant="adafgda_adam", rho=1.0, varrho=1.0), "adam_zeroacc")
    eq_a = a1 == a2

    b1 = csv_text(replace(base, variant="fgda", eta_const=1.0, alpha_const=1.0, beta_const=1.0), "fgda_unit")
    b2 = csv_text(replace(base, variant="local_sgda"), "local")
    eq_b = b1 == b2

    c1 = csv_text(replace(base, variant="momentum_local_sgda", beta_m=0.0), "mom0")
    eq_c = c1 == b2

    report(2, eq_a and eq_b and eq_c,
           f"zeroed-adaptive==plain: {eq_a}; unit-constants==local: {eq_b}; zero-momentum==local: {eq_c}")


def test_criterion_3_ledger_exactness():
    rng = np.random.default_rng(123)
    worst = None
    for _ in range(50):
        T = int(rng.integers(1, 60))
        q = int(rng.integers(1, 12))
        K = int(rng.integers(1, 6))
        inst = fm.make_synthetic(K=K, dim=3, s=1.0, tau=10.0, seed=int(rng.integers(10**6)),
                                 n_per_client=max(12, q + 1))
        hp = HyperParams(T=T, q=q, seed=int(rng.integers(10**6)), gamma=0.01, lam=0.01)
        last = fm.run(inst, hp).final()
        exact_sfo = 2 * q + 2 * (T - T // q)
        assert last.sfo == exact_sfo == fm.expected_sfo(T, q)
        assert last.comm == T // q == fm.expected_comm_rounds(T, q)
        assert last.sfo <= 2 * q + 2 * T  # coarse upper accounting
        worst = (T, q, K)
    report(3, True, f"50 random (T,q,K) configs match both formulas exactly (last={worst})")


def test_criterion_4_sync_consensus(synthetic_grid_runs):
    checked = 0
    for (_, _, _), (_, _, trace) in synthetic_grid_runs.items():
        for r in trace.sync_records():
            assert r.consensus_x == 0.0
            assert r.consensus_y == 0.0
            checked += 1
    rob = fm.make_robust(K=4, dim=6, n_per_client=20, seed=5)
    for variant in fm.VARIANTS:
        hp = HyperParams(T=40, q=8, seed=3, variant=variant, gamma=0.02, lam=0.02,
                         rho=0.3 if variant.startswith("adafgda") else 0.01)
        for r in fm.run(rob, hp).sync_records():
            assert r.consensus_x == 0.0
            assert r.consensus_y == 0.0
            checked += 1
    report(4, True, f"consensus exactly zero on {checked} sync records across variants")


def test_criterion_5_assumption_probes():
    synth = fm.make_synthetic(K=10, dim=20, s=1.0, tau=10.0, seed=42)
    auc = fm.make_auc(K=6, dim=8, n_per_client=30, pos_ratio=0.05, seed=11)
    rob = fm.make_robust(K=6, dim=10, n_per_client=30, seed=11)

    slack_s = probe_pl(synth, n_points=1000, seed=0)
    slack_a = probe_pl(auc, n_points=1000, seed=0)
    pl_ok = slack_s >= -1e-9 and slack_a >= -1e-9

    lip = probe_lipschitz(synth, n_pairs=1000, seed=0)
    lip_ok = lip.ok

    rng = np.random.default_rng(7)
    fd_ok = True
    for inst in (synth, auc, rob):
        for _ in range(100):
            err = grad_check(inst, int(rng.integers(inst.K)),
                             rng.standard_normal(inst.d), rng.standard_normal(inst.p))
            fd_ok &= err < 1e-5

    unb_ok = True
    for inst in (synth, auc, rob):
        x = rng.standard_normal(inst.d)
        y = rng.standard_normal(inst.p)
        for k in range(inst.K):
            gx, gy = grad_full(inst, k, x, y)
            n = inst.dataset_size(k)
            accx, accy = np.zeros_like(gx), np.zeros_like(gy)
            for item in range(n):
                sx, sy = grad_stoch(inst, k, x, y, SampleRef(k, item))
                accx += sx
                accy += sy
            unb_ok &= float(np.linalg.norm(accx / n - gx)) < 1e-10
            unb_ok &= float(np.linalg.norm(accy / n - gy)) < 1e-10

    report(5, pl_ok and lip_ok and fd_ok and unb_ok,
           f"pl slack >= {min(slack_s, slack_a):.1e}; lipschitz ratios "
           f"{lip.max_ratio_y_star:.3g}<=kappa, {lip.max_ratio_grad_F:.3g}<=L; "
           f"fd<1e-5: {fd_ok}; unbiased<1e-10: {unb_ok}")


def test_criterion_6_validator():
    cfg = load_preset("synthetic-theorem")
    problem = cfg.build_problem(1)
    hp = cfg.hp_for_seed(1)
    c = estimate_constants(problem, n_samples=30, seed=1, rho=hp.rho, rho_u=hp.rho_u)
    rep1 = validate_theorem1(hp, c, problem.K)
    rep2 = validate_theorem2(hp, c, problem.K)
    preset_ok = rep1.all_satisfied and rep2.all_satisfied and len(rep1.constraints) == 10

    falsifiers = {
        "m_min_two": replace(hp, eta_m=1.9, eta_n=0.1),
        "m_lower": replace(hp, eta_m=2.0, eta_n=2.0),
        "c_square_upper": replace(hp, c1=1e6),
        "c1_lower": replace(hp, c1=0.1),
        "c2_lower": replace(hp, c2=1.0),
        "tau_coupling": replace(hp, gamma=hp.lam),
        "gamma_upper": replace(hp, gamma=0.01),
        "lambda_upper": replace(hp, lam=100.0),
        "rho_range": replace(hp, rho=2.0),
        "rho_u_range": replace(hp, rho_u=3.0),
    }
    targeted_ok = True
    for name, bad_hp in falsifiers.items():
        cc = replace(c, rho_u=bad_hp.rho_u)
        rec = validate_theorem1(bad_hp, cc, problem.K).by_name(name)
        targeted_ok &= not rec.satisfied

    report(6, preset_ok and targeted_ok,
           f"shipped preset satisfies all 10 constraints: {preset_ok}; "
           f"each constraint individually falsified by name: {targeted_ok}")


def test_criterion_7_matrix_floor_million_calls():
    rng = np.random.default_rng(99)
    rho = 0.01
    total = 0
    violations = 0
    for mode in (MODE_ADAM, MODE_ADABELIEF):
        acc = AdaptiveAccumulator(mode=mode, rho=rho, varrho=0.9)
        scales = 10.0 ** rng.integers(-12, 12, size=500_000)
        w_all = rng.standard_normal((500_000, 3)) * scales[:, None]
        w_all[::17] = 0.0
        w_all[::29] *= -1.0
        for i in range(500_000):
            A, B = acc.generate(w_all[i], w_all[i, :2])
            if A.min_entry() < rho or B.min_entry() < rho:
                violations += 1
            total += 1
    report(7, violations == 0, f"{total} randomized updates, {violations} floor violations")


def test_criterion_8_auc_experiment():
    cfg = load_preset("auc-imbalanced")
    seed_pass = []
    details = []
    for seed in (1, 2, 3):
        problem = cfg.build_problem(seed)
        hp_ada = cfg.hp_for_seed(seed)
        hp_fgda = replace(hp_ada, variant="fgda", rho=0.01)
        hp_local = replace(hp_ada, variant="local_sgda", rho=0.01)
        finals = {}
        reach = {}
        for tag, hp in (("ada", hp_ada), ("fgda", hp_fgda), ("local", hp_local)):
            trace = fm.run(problem, hp)
            aucs = [r.auc for r in trace.records if r.auc is not None]
            finals[tag] = aucs[-1]
            reach[tag] = max(aucs) >= 0.9
        ok = reach["ada"] and reach["fgda"] and finals["local"] <= finals["ada"] + 0.02
        seed_pass.append(ok)
        details.append(f"seed{seed}: ada={finals['ada']:.3f} fgda={finals['fgda']:.3f} local={finals['local']:.3f}")
    report(8, sum(seed_pass) >= 2, f"{sum(seed_pass)}/3 seeds pass; " + "; ".join(details))


def test_criterion_9_robust_experiment():
    comm = {}
    acc_ok = True
    details = []
    for q in (6, 12):
        cfg = load_preset(f"robust-q{q}")
        problem = cfg.build_problem(1)
        hp = cfg.hp_for_seed(1)
        robust_trace = fm.run(problem, hp, heavy_cadence=0)
        erm_trace = fm.run(problem, replace(hp, lam=0.0, y_init_scale=0.0), heavy_cadence=0)
        acc_robust = robust_accuracy(problem, robust_trace.final_x)
        acc_erm = robust_accuracy(problem, erm_trace.final_x)
        acc_ok &= acc_robust > acc_erm
        comm[q] = robust_trace.final().comm
        details.append(f"q={q}: worst-case acc robust={acc_robust:.3f} > plain={acc_erm:.3f}")
    comm_ok = abs(comm[6] - 2 * comm[12]) <= 1
    report(9, acc_ok and comm_ok,
           "; ".join(details) + f"; comm q=6:{comm[6]} vs 2x q=12:{2 * comm[12]}")


def test_criterion_10_estimator_quality():
    wins = 0
    details = []
    for seed in (1, 2, 3):
        inst = fm.make_synthetic(K=10, dim=20, s=1.0, tau=10.0, seed=seed, noise_sigma=0.1)
        base = HyperParams(T=1000, q=20, seed=seed, variant="fgda", gamma=0.05, lam=0.05)
        scheduled = fm.run(inst, base)
        plain = fm.run(inst, replace(base, alpha_const=1.0, beta_const=1.0))
        ms = float(np.mean([r.est_err_y**2 for r in scheduled.records]))
        mp = float(np.mean([r.est_err_y**2 for r in plain.records]))
        wins += ms < mp
        details.append(f"seed{seed}: {ms:.2e} vs {mp:.2e}")
    report(10, wins == 3, f"{wins}/3 seeds lower time-averaged error; " + "; ".join(details))
