import numpy as np
import pytest
from dataclasses import replace

import fedminimax as fm
from fedminimax.algorithms import (
    VARIANT_ADAFGDA_ADABELIEF,
    VARIANT_ADAFGDA_ADAM,
    VARIANT_FGDA,
    VARIANT_LOCAL_SGDA,
    VARIANT_MOMENTUM_LOCAL_SGDA,
    HyperParams,
    eta_schedule,
    init_round,
    local_step,
    sync_step,
)
from fedminimax.core import vec_mean
from fedminimax.problems import grad_full


def record_cells(trace):
    return [
        (r.t, r.is_sync, r.dist_x_sq, r.dist_y_sq, r.grad_norm_F, r.est_err_x,
         r.est_err_y, r.consensus_x, r.objective, r.auc, r.sfo, r.comm)
        for r in trace.records
    ]


class TestEtaSchedule:
    def test_arithmetic(self):
        assert eta_schedule(1.0, 1, 8.0, 0) == pytest.approx(0.5)
        assert eta_schedule(1.0, 8, 27.0, 0) == pytest.approx(2.0 / 3.0)

    def test_monotone_and_bounded(self):
        n, K = 0.7, 10
        m = K * n**3  # smallest m keeping the weight at or below one
        last = np.inf
        for t in range(0, 10**6, 997):
            e = eta_schedule(n, K, m, t)
            assert e <= 1.0 + 1e-12
            assert e <= last
            last = e

    def test_vanishes_in_the_limit(self):
        assert eta_schedule(1.0, 4, 2.0, 10**12) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            eta_schedule(0.0, 1, 2.0, 0)
        with pytest.raises(ValueError):
            eta_schedule(1.0, 1, 2.0, -1)


class TestHyperParams:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            HyperParams(variant="nope")

    def test_range_validation(self):
        with pytest.raises(ValueError):
            HyperParams(varrho=0.0)
        with pytest.raises(ValueError):
            HyperParams(q=0)
        with pytest.raises(ValueError):
            HyperParams(alpha_const=1.5)

    def test_zero_step_sizes_allowed(self):
        HyperParams(gamma=0.0, lam=0.0)

    def test_unit_varrho_allowed_for_frozen_accumulators(self):
        HyperParams(varrho=1.0)


class TestInitRound:
    def test_initial_sfo_is_2q(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        _, _, counters = init_round(synthetic_small, hp)
        assert counters.sfo_per_client == 2 * hp.q

    def test_zero_noise_single_sample_init_is_exact(self):
        inst = fm.make_synthetic(K=3, dim=4, s=1.0, tau=10.0, seed=1, noise_sigma=0.0)
        hp = HyperParams(T=5, q=1, seed=0)
        clients, _, _ = init_round(inst, hp)
        for k in range(inst.K):
            gx, gy = grad_full(inst, k, clients.X[k], clients.Y[k])
            assert np.allclose(clients.W[k], gx)
            assert np.allclose(clients.V[k], gy)

    def test_all_clients_share_start(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, _ = init_round(synthetic_small, hp)
        for k in range(synthetic_small.K):
            assert np.array_equal(clients.X[k], server.x_bar)
            assert np.array_equal(clients.Y[k], server.y_bar)

    def test_q_larger_than_dataset_rejected(self):
        inst = fm.make_synthetic(K=2, dim=3, s=1.0, tau=10.0, seed=1, n_per_client=4)
        with pytest.raises(ValueError):
            init_round(inst, HyperParams(T=10, q=5, seed=0))

    def test_identity_matrices_for_plain_variant(self, synthetic_small):
        _, server, _ = init_round(synthetic_small, HyperParams(T=10, q=5, seed=0, variant=VARIANT_FGDA))
        assert np.all(server.A.diag == 1.0)
        assert np.all(server.B.diag == 1.0)

    def test_adaptive_initial_matrices_respect_floor(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0, variant=VARIANT_ADAFGDA_ADAM, rho=0.2)
        _, server, _ = init_round(synthetic_small, hp)
        assert server.A.min_entry() >= 0.2
        assert server.B.min_entry() >= 0.2


class TestLocalStep:
    def test_rejects_sync_index(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, _ = init_round(synthetic_small, hp)
        with pytest.raises(ValueError):
            local_step(synthetic_small, hp, 5, clients, server.A, server.B)

    def test_zero_step_sizes_only_refresh_estimators(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0, gamma=0.0, lam=0.0)
        clients, server, _ = init_round(synthetic_small, hp)
        before = clients
        after = local_step(synthetic_small, hp, 1, before, server.A, server.B)
        assert np.array_equal(after.X, before.X)
        assert np.array_equal(after.Y, before.Y)

    def test_unit_constants_give_one_sgda_step(self):
        inst = fm.make_synthetic(K=2, dim=3, s=1.0, tau=10.0, seed=1, noise_sigma=0.0)
        hp = HyperParams(T=10, q=5, seed=0, eta_const=1.0, alpha_const=1.0, beta_const=1.0,
                         gamma=0.01, lam=0.01)
        clients, server, _ = init_round(inst, hp)
        x0, y0, w0, v0 = clients.X[0].copy(), clients.Y[0].copy(), clients.W[0].copy(), clients.V[0].copy()
        after = local_step(inst, hp, 1, clients, server.A, server.B)
        assert np.allclose(after.Y[0], y0 + hp.lam * v0)
        assert np.allclose(after.X[0], x0 - hp.gamma * w0)
        gx, gy = grad_full(inst, 0, after.X[0], after.Y[0])
        assert np.array_equal(after.V[0], gy)  # noiseless: estimate equals the fresh gradient
        assert np.array_equal(after.W[0], gx)

    def test_deterministic_replay(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=3)
        c1, s1, _ = init_round(synthetic_small, hp)
        c2, s2, _ = init_round(synthetic_small, hp)
        a1 = local_step(synthetic_small, hp, 1, c1, s1.A, s1.B)
        a2 = local_step(synthetic_small, hp, 1, c2, s2.A, s2.B)
        for attr in ("X", "Y", "W", "V"):
            assert np.array_equal(getattr(a1, attr), getattr(a2, attr))


class TestSyncStep:
    def test_rejects_non_sync_index(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        with pytest.raises(ValueError):
            sync_step(synthetic_small, hp, 3, clients, server, counters)

    def test_broadcast_postcondition(self, synthetic_small):
        hp = HyperParams(T=10, q=2, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        clients = local_step(synthetic_small, hp, 1, clients, server.A, server.B)
        sync_step(synthetic_small, hp, 2, clients, server, counters)
        for k in range(synthetic_small.K):
            assert np.array_equal(clients.X[k], server.x_bar)
            assert np.array_equal(clients.Y[k], server.y_bar)
            assert np.array_equal(clients.W[k], clients.W[0])
            assert np.array_equal(clients.V[k], clients.V[0])
        assert counters.comm_rounds == 1
        # sampling ledger belongs to the run loop; sync itself draws nothing
        assert counters.sfo_per_client == 2 * hp.q

    def test_single_client_sync_is_plain_descent_ascent(self):
        inst = fm.make_synthetic(K=1, dim=3, s=1.0, tau=10.0, seed=2, noise_sigma=0.0)
        hp = HyperParams(T=10, q=1, seed=0, eta_const=1.0, gamma=0.05, lam=0.05)
        clients, server, counters = init_round(inst, hp)
        x0, y0 = clients.X[0].copy(), clients.Y[0].copy()
        w0, v0 = clients.W[0].copy(), clients.V[0].copy()
        sync_step(inst, hp, 1, clients, server, counters)
        assert np.allclose(server.x_bar, x0 - hp.gamma * w0)
        assert np.allclose(server.y_bar, y0 + hp.lam * v0)


@pytest.fixture(scope="module")
def tiny_traces(synthetic_small):
    traces = {}
    for variant in (VARIANT_FGDA, VARIANT_ADAFGDA_ADAM, VARIANT_ADAFGDA_ADABELIEF,
                    VARIANT_LOCAL_SGDA, VARIANT_MOMENTUM_LOCAL_SGDA):
        hp = HyperParams(T=60, q=10, seed=5, variant=variant, gamma=0.02, lam=0.02)
        traces[variant] = fm.run(synthetic_small, hp)
    return traces


class TestRunInvariants:

    def test_records_cover_every_step_without_gaps(self, tiny_traces):
        for trace in tiny_traces.values():
            assert [r.t for r in trace.records] == list(range(1, 61))

    def test_sync_flags_match_period(self, tiny_traces):
        for trace in tiny_traces.values():
            for r in trace.records:
                assert r.is_sync == (r.t % 10 == 0)

    def test_counters_nondecreasing(self, tiny_traces):
        for trace in tiny_traces.values():
            sfo = [r.sfo for r in trace.records]
            comm = [r.comm for r in trace.records]
            assert sfo == sorted(sfo)
            assert comm == sorted(comm)

    def test_consensus_zero_at_sync_records(self, tiny_traces):
        for trace in tiny_traces.values():
            for r in trace.records:
                if r.is_sync:
                    assert r.consensus_x == 0.0
                    assert r.consensus_y == 0.0

    def test_ledger_formulas(self, tiny_traces):
        for trace in tiny_traces.values():
            last = trace.final()
            assert last.sfo == fm.expected_sfo(60, 10)
            assert last.comm == fm.expected_comm_rounds(60, 10)

    def test_plain_variant_keeps_identity_matrices_at_every_sync(self, synthetic_small):
        hp = HyperParams(T=30, q=5, seed=4, variant=VARIANT_FGDA)
        clients, server, counters = init_round(synthetic_small, hp)
        for t in range(1, 31):
            if t % hp.q == 0:
                sync_step(synthetic_small, hp, t, clients, server, counters)
                assert np.all(server.A.diag == 1.0)
                assert np.all(server.B.diag == 1.0)
            else:
                clients = local_step(synthetic_small, hp, t, clients, server.A, server.B)

    def test_matrix_freeze_between_syncs(self, synthetic_small):
        hp = HyperParams(T=12, q=4, seed=5, variant=VARIANT_ADAFGDA_ADAM)
        clients, server, counters = init_round(synthetic_small, hp)
        seen = []
        for t in range(1, 13):
            if t % hp.q == 0:
                sync_step(synthetic_small, hp, t, clients, server, counters)
            else:
                clients = local_step(synthetic_small, hp, t, clients, server.A, server.B)
            seen.append((t, server.A.diag.copy()))
        # A changes only at t = 4, 8, 12
        for (t, diag), (t2, diag2) in zip(seen, seen[1:]):
            if t2 % hp.q != 0:
                assert np.array_equal(diag, diag2)

    def test_recorded_distances_match_manual_replay(self, synthetic_small):
        # replay the loop by hand and recompute the averaged iterate at each
        # step; the trace must be measuring exactly that quantity
        hp = HyperParams(T=14, q=5, seed=6)
        trace = fm.run(synthetic_small, hp)
        xs, ys = fm.saddle_point(synthetic_small)
        clients, server, counters = init_round(synthetic_small, hp)
        for t in range(1, hp.T + 1):
            if t % hp.q == 0:
                sync_step(synthetic_small, hp, t, clients, server, counters)
                x_bar, y_bar = server.x_bar, server.y_bar
            else:
                clients = local_step(synthetic_small, hp, t, clients, server.A, server.B)
                x_bar = vec_mean(clients.X)
                y_bar = vec_mean(clients.Y)
            rec = trace.records[t - 1]
            assert rec.dist_x_sq == float((x_bar - xs) @ (x_bar - xs))
            assert rec.dist_y_sq == float((y_bar - ys) @ (y_bar - ys))
            if t % hp.q == 0:
                for k in range(synthetic_small.K):
                    assert np.array_equal(clients.X[k], x_bar)

    def test_bitwise_determinism(self, synthetic_small):
        hp = HyperParams(T=40, q=8, seed=9, variant=VARIANT_ADAFGDA_ADAM)
        t1 = fm.run(synthetic_small, hp)
        t2 = fm.run(synthetic_small, hp)
        assert record_cells(t1) == record_cells(t2)

    def test_sampled_index_in_range_and_iterate_captured(self, synthetic_small):
        hp = HyperParams(T=40, q=8, seed=9)
        tr = fm.run(synthetic_small, hp)
        assert 1 <= tr.final_sampled_index <= 40
        assert tr.sampled_x is not None and tr.sampled_x.shape == (synthetic_small.d,)
        assert tr.final_x is not None


class TestIndependentReference:
    def test_full_trajectory_matches_straight_line_reimplementation(self):
        # Plain-numpy re-derivation of the whole loop (identity
        # preconditioners), sharing only the problem oracles and the
        # client-stream seeding contract with the engine.
        inst = fm.make_synthetic(K=4, dim=5, s=1.0, tau=10.0, seed=13, n_per_client=30)
        K, T, q = inst.K, 37, 6
        gamma = lam = 0.03
        n_par, m_par, c1, c2, seed = 1.0, 10.0, 1.0, 1.0, 21

        children = np.random.SeedSequence(seed).spawn(K + 1)
        rngs = [np.random.default_rng(c) for c in children[:K]]
        x = [np.ones(inst.d) for _ in range(K)]
        y = [np.ones(inst.p) for _ in range(K)]
        w, v = [], []
        for k in range(K):
            items = rngs[k].choice(inst.dataset_size(k), size=q, replace=False)
            gx_acc, gy_acc = np.zeros(inst.d), np.zeros(inst.p)
            for it in items:
                a, b = inst.grad_stoch(k, x[k], y[k], int(it))
                gx_acc += a
                gy_acc += b
            w.append(gx_acc / q)
            v.append(gy_acc / q)

        ref_dist = []
        for t in range(1, T + 1):
            eta = n_par * K ** (1.0 / 3.0) / (m_par + t) ** (1.0 / 3.0)
            alpha = min(1.0, c1 * eta * eta)
            beta = min(1.0, c2 * eta * eta)
            if t % q == 0:
                wb = np.mean(np.stack(w), axis=0)
                vb = np.mean(np.stack(v), axis=0)
                xb = np.mean(np.stack(x), axis=0)
                yb = np.mean(np.stack(y), axis=0)
                yb = yb + eta * (lam * vb)
                xb = xb - eta * (gamma * wb)
                x = [xb.copy() for _ in range(K)]
                y = [yb.copy() for _ in range(K)]
                w = [wb.copy() for _ in range(K)]
                v = [vb.copy() for _ in range(K)]
                ref_dist.append(float(xb @ xb + yb @ yb))
            else:
                for k in range(K):
                    y_new = y[k] + eta * (lam * v[k])
                    x_new = x[k] - eta * (gamma * w[k])
                    it = int(rngs[k].integers(inst.dataset_size(k)))
                    gxn, gyn = inst.grad_stoch(k, x_new, y_new, it)
                    gxo, gyo = inst.grad_stoch(k, x[k], y[k], it)
                    v[k] = gyn + (1.0 - alpha) * (v[k] - gyo)
                    w[k] = gxn + (1.0 - beta) * (w[k] - gxo)
                    x[k], y[k] = x_new, y_new
                xb = np.mean(np.stack(x), axis=0)
                yb = np.mean(np.stack(y), axis=0)
                ref_dist.append(float(xb @ xb + yb @ yb))

        hp = HyperParams(T=T, q=q, seed=seed, variant=VARIANT_FGDA, gamma=gamma, lam=lam,
                         eta_n=n_par, eta_m=m_par, c1=c1, c2=c2)
        trace = fm.run(inst, hp)
        got = [r.dist_x_sq + r.dist_y_sq for r in trace.records]
        assert np.allclose(got, ref_dist, rtol=1e-10, atol=1e-14)


    def test_adaptive_trajectory_matches_straight_line_reimplementation(self):
        # Same idea for the squared-gradient preconditioner mode: the
        # accumulator seeds from the averaged initial estimates, updates
        # only at sync indices, and the diagonals stay frozen in between.
        inst = fm.make_synthetic(K=3, dim=4, s=1.0, tau=10.0, seed=29, n_per_client=30)
        K, T, q = inst.K, 25, 5
        gamma = lam = 0.05
        n_par, m_par, c1, c2, seed = 1.0, 10.0, 1.0, 1.0, 8
        rho, varrho = 0.2, 0.9

        children = np.random.SeedSequence(seed).spawn(K + 1)
        rngs = [np.random.default_rng(c) for c in children[:K]]
        x = [np.ones(inst.d) for _ in range(K)]
        y = [np.ones(inst.p) for _ in range(K)]
        w, v = [], []
        for k in range(K):
            items = rngs[k].choice(inst.dataset_size(k), size=q, replace=False)
            gx_acc, gy_acc = np.zeros(inst.d), np.zeros(inst.p)
            for it in items:
                a, b = inst.grad_stoch(k, x[k], y[k], int(it))
                gx_acc += a
                gy_acc += b
            w.append(gx_acc / q)
            v.append(gy_acc / q)
        a_acc = (1.0 - varrho) * np.mean(np.stack(w), axis=0) ** 2
        b_acc = (1.0 - varrho) * np.mean(np.stack(v), axis=0) ** 2
        A = np.sqrt(a_acc) + rho
        B = np.sqrt(b_acc) + rho

        ref_dist = []
        for t in range(1, T + 1):
            eta = n_par * K ** (1.0 / 3.0) / (m_par + t) ** (1.0 / 3.0)
            alpha = min(1.0, c1 * eta * eta)
            beta = min(1.0, c2 * eta * eta)
            if t % q == 0:
                wb = np.mean(np.stack(w), axis=0)
                vb = np.mean(np.stack(v), axis=0)
                xb = np.mean(np.stack(x), axis=0)
                yb = np.mean(np.stack(y), axis=0)
                a_acc = varrho * a_acc + (1.0 - varrho) * wb**2
                b_acc = varrho * b_acc + (1.0 - varrho) * vb**2
                A = np.sqrt(a_acc) + rho
                B = np.sqrt(b_acc) + rho
                yb = yb + eta * (lam * (vb / B))
                xb = xb - eta * (gamma * (wb / A))
                x = [xb.copy() for _ in range(K)]
                y = [yb.copy() for _ in range(K)]
                w = [wb.copy() for _ in range(K)]
                v = [vb.copy() for _ in range(K)]
            else:
                for k in range(K):
                    y_new = y[k] + eta * (lam * (v[k] / B))
                    x_new = x[k] - eta * (gamma * (w[k] / A))
                    it = int(rngs[k].integers(inst.dataset_size(k)))
                    gxn, gyn = inst.grad_stoch(k, x_new, y_new, it)
                    gxo, gyo = inst.grad_stoch(k, x[k], y[k], it)
                    v[k] = gyn + (1.0 - alpha) * (v[k] - gyo)
                    w[k] = gxn + (1.0 - beta) * (w[k] - gxo)
                    x[k], y[k] = x_new, y_new
                xb = np.mean(np.stack(x), axis=0)
                yb = np.mean(np.stack(y), axis=0)
            ref_dist.append(float(xb @ xb + yb @ yb))

        hp = HyperParams(T=T, q=q, seed=seed, variant=VARIANT_ADAFGDA_ADAM, gamma=gamma,
                         lam=lam, eta_n=n_par, eta_m=m_par, c1=c1, c2=c2, rho=rho, varrho=varrho)
        trace = fm.run(inst, hp)
        got = [r.dist_x_sq + r.dist_y_sq for r in trace.records]
        assert np.allclose(got, ref_dist, rtol=1e-10, atol=1e-14)


class TestReductions:
    def test_zeroed_adaptive_with_unit_floor_equals_plain(self, synthetic_small):
        hp_f = HyperParams(T=50, q=10, seed=2, variant=VARIANT_FGDA, rho=1.0)
        hp_a = replace(hp_f, variant=VARIANT_ADAFGDA_ADAM, varrho=1.0)
        assert record_cells(fm.run(synthetic_small, hp_f)) == record_cells(fm.run(synthetic_small, hp_a))

    def test_unit_constant_plain_equals_local_sgda(self, synthetic_small):
        hp_f = HyperParams(T=50, q=10, seed=2, variant=VARIANT_FGDA, gamma=0.01, lam=0.01,
                           eta_const=1.0, alpha_const=1.0, beta_const=1.0)
        hp_l = HyperParams(T=50, q=10, seed=2, variant=VARIANT_LOCAL_SGDA, gamma=0.01, lam=0.01)
        assert record_cells(fm.run(synthetic_small, hp_f)) == record_cells(fm.run(synthetic_small, hp_l))

    def test_zero_momentum_baseline_equals_local_sgda(self, synthetic_small):
        hp_m = HyperParams(T=50, q=10, seed=2, variant=VARIANT_MOMENTUM_LOCAL_SGDA, beta_m=0.0,
                           gamma=0.01, lam=0.01)
        hp_l = HyperParams(T=50, q=10, seed=2, variant=VARIANT_LOCAL_SGDA, gamma=0.01, lam=0.01)
        assert record_cells(fm.run(synthetic_small, hp_m)) == record_cells(fm.run(synthetic_small, hp_l))

    def test_tied_accumulator_decay_tracks_momentum(self, synthetic_small):
        hp = HyperParams(T=30, q=5, seed=2, variant=VARIANT_ADAFGDA_ADAM,
                         tie_varrho_to_momentum=True, c2=0.5)
        eta5 = hp.eta(synthetic_small.K, 5)
        assert hp.sync_varrho(eta5) == pytest.approx(1.0 - 0.5 * eta5**2)
        tr_tied = fm.run(synthetic_small, hp)
        tr_fixed = fm.run(synthetic_small, replace(hp, tie_varrho_to_momentum=False))
        assert record_cells(tr_tied) != record_cells(tr_fixed)

    def test_momentum_baseline_converges_on_synthetic(self):
        inst = fm.make_synthetic(K=10, dim=20, s=1.0, tau=10.0, seed=1)
        hp = HyperParams(T=1500, q=20, seed=1, variant=VARIANT_MOMENTUM_LOCAL_SGDA,
                         beta_m=0.5, gamma=0.02, lam=0.02)
        tr = fm.run(inst, hp)
        first = tr.records[0]
        last = tr.final()
        assert last.dist_x_sq + last.dist_y_sq < first.dist_x_sq + first.dist_y_sq
