import warnings
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fedminimax as fm
from fedminimax import algorithms, metrics
from fedminimax.config import apply_overrides
from fedminimax.presets import load_preset, preset_names
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
from fedminimax.core import precondition, vec_mean
from fedminimax.estimators import MODE_ADABELIEF, MODE_ADAM, MODE_IDENTITY, AdaptiveAccumulator, storm_update
from fedminimax.problems import EuclideanBall, Unconstrained, grad_full, grad_stoch

from conftest import edge_rows, same_bits_or_both_nan


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

    def test_validation(self, synthetic_small):
        # checked at the boundaries, not per call: n where the hyperparameters
        # are built, t where a local step reads the run's schedule
        with pytest.raises(ValueError):
            HyperParams(eta_n=0.0)
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        with pytest.raises(ValueError):
            local_step(synthetic_small, hp, -1, clients, server, counters)


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

    @pytest.mark.parametrize("variant", algorithms.VARIANTS)
    def test_schedule_is_eta_and_momentum_at_every_step(self, variant):
        hp = HyperParams(T=30, q=7, variant=variant, c1=3.0, c2=0.5, tie_varrho_to_momentum=True)
        sched = hp.schedule(10)
        assert len(sched.eta) == len(sched.alpha) == len(sched.beta) == hp.T + 1
        for t in range(hp.T + 1):
            assert sched.eta[t] == hp.eta(10, t)
            assert (sched.alpha[t], sched.beta[t]) == hp.momentum(sched.eta[t])

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("variant", algorithms.VARIANTS)
    def test_schedule_varrho_is_the_sync_decay_at_every_step(self, variant, tied):
        # the per-sync rule the schedule replaces: 1 - beta of the momentum
        # at eta_t where the decay is tied to it and beta < 1, else None
        def sync_varrho(hp, eta_t):
            if not hp.tie_varrho_to_momentum:
                return None
            _, beta = hp.momentum(eta_t)
            return 1.0 - beta if beta < 1.0 else None

        for extra in ({"c2": 0.5}, {"c2": 3.0}, {"beta_const": 0.25}, {"beta_const": 1.0}):
            hp = HyperParams(T=40, q=7, variant=variant, tie_varrho_to_momentum=tied, **extra)
            sched = hp.schedule(10)
            assert len(sched.varrho) == hp.T + 1
            assert sched.varrho == [sync_varrho(hp, eta) for eta in sched.eta], extra
            if not tied:
                assert sched.varrho == [None] * (hp.T + 1)

    def test_schedule_rejects_values_that_underflow_to_zero(self):
        with pytest.raises(ValueError, match="eta_t"):
            HyperParams(eta_n=1e-300, eta_m=1e300).schedule(1)
        with pytest.raises(ValueError, match="momentum"):
            HyperParams(c1=1e-300, eta_const=1e-100).schedule(1)


class TestInitRound:
    def test_initial_sfo_is_2q(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        _, _, counters = init_round(synthetic_small, hp)
        assert counters.sfo_per_client == 2 * hp.q

    def test_zero_noise_single_sample_init_is_exact(self):
        inst = fm.SyntheticProblem(K=3, dim=4, s=1.0, tau=10.0, seed=1, noise_sigma=0.0)
        hp = HyperParams(T=5, q=1, seed=0)
        clients, _, _ = init_round(inst, hp)
        GX, GY = inst.grad_full_all(clients.X, clients.Y)  # row k: client k at its own point
        assert np.allclose(clients.W, GX)
        assert np.allclose(clients.V, GY)

    def test_all_clients_share_start(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, _, _ = init_round(synthetic_small, hp)
        for k in range(synthetic_small.K):
            assert np.array_equal(clients.X[k], clients.X[0])
            assert np.array_equal(clients.Y[k], clients.Y[0])

    def test_q_larger_than_dataset_rejected(self):
        inst = fm.SyntheticProblem(K=2, dim=3, s=1.0, tau=10.0, seed=1, n_per_client=4)
        with pytest.raises(ValueError):
            init_round(inst, HyperParams(T=10, q=5, seed=0))

    def test_identity_matrices_for_plain_variant(self, synthetic_small):
        _, server, _ = init_round(synthetic_small, HyperParams(T=10, q=5, seed=0, variant=VARIANT_FGDA))
        assert np.all(server.A == 1.0)
        assert np.all(server.B == 1.0)

    def test_adaptive_initial_matrices_respect_floor(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0, variant=VARIANT_ADAFGDA_ADAM, rho=0.2)
        _, server, _ = init_round(synthetic_small, hp)
        assert server.A.min() >= 0.2
        assert server.B.min() >= 0.2


def _expression_step(problem, hp, eta_t, clients, server):
    """algorithms._step as one expression per proposal and per
    interpolation, dividing by the matrices in every mode (the reference)."""
    X, Y = clients.X, clients.Y
    Y_hat = Y + hp.lam * precondition(server.B, clients.V)
    Y[:] = problem.y_constraint.project(Y + eta_t * (Y_hat - Y))
    X_hat = X - hp.gamma * precondition(server.A, clients.W)
    X[:] = X + eta_t * (X_hat - X)


def _expression_storm(g_new, g_old, est, momentum):
    """estimators.storm_update as one expression (the reference)."""
    return g_new + (1.0 - momentum) * (est - g_old)


class _ProjectionLog:
    """A y-constraint that logs whether each projection moved its input."""

    def __init__(self, constraint):
        self.constraint, self.moved = constraint, []

    def project(self, y):
        out = self.constraint.project(y)
        self.moved.append(out is not y)
        return out


class TestInPlaceArithmetic:
    # In place, each side's sums and products may take their operands in
    # the other order, which can pass the other of two NaNs
    # (same_bits_or_both_nan); nothing else may differ.
    @pytest.mark.parametrize("mode", [MODE_IDENTITY, MODE_ADAM, MODE_ADABELIEF])
    @pytest.mark.parametrize("ball", ["none", "active", "inactive"])
    def test_step_equals_its_expression_form_bitwise(self, mode, ball):
        rng = np.random.default_rng(24)
        K, d, p = 7, 5, 3
        constraint = Unconstrained() if ball == "none" else EuclideanBall(1e-6 if ball == "active" else 1e6)
        for _ in range(40):
            server = AdaptiveAccumulator(mode=mode, rho=float(rng.uniform(1e-3, 1.0)))
            for _ in range(2):  # adabelief's second generation has a reference
                server.generate(rng.standard_normal(d), rng.standard_normal(p))
            hp = HyperParams(gamma=float(rng.choice([0.0, rng.uniform(0, 2)])), lam=float(rng.uniform(0, 2)))
            eta_t = float(rng.uniform(1e-3, 1.0))
            if ball == "inactive":  # y rows that stay inside the ball
                Y, V = rng.uniform(-1, 1, (K, p)), rng.uniform(-1, 1, (K, p))
            else:
                Y, V = edge_rows(rng, (K, p)), edge_rows(rng, (K, p))
            start = SimpleNamespace(X=edge_rows(rng, (K, d)), Y=Y, W=edge_rows(rng, (K, d)), V=V)
            got, want = deepcopy(start), deepcopy(start)
            logs = []
            with np.errstate(all="ignore"):
                for fn, clients in ((algorithms._step, got), (_expression_step, want)):
                    problem = SimpleNamespace(y_constraint=_ProjectionLog(constraint))
                    fn(problem, hp, eta_t, clients, server)
                    logs.append(problem.y_constraint.moved)
            assert logs == [[ball == "active"]] * 2
            assert same_bits_or_both_nan(got.X, want.X) and same_bits_or_both_nan(got.Y, want.Y)
            assert got.W.tobytes() == start.W.tobytes() and got.V.tobytes() == start.V.tobytes()

    @pytest.mark.parametrize("variant", [VARIANT_FGDA, VARIANT_MOMENTUM_LOCAL_SGDA])
    def test_estimate_refresh_equals_its_expression_form_bitwise(self, monkeypatch, variant):
        # the STORM refresh (estimators.storm_update) and the heavy-ball one
        # of local_step, on the estimates and gradients the step is given
        problem = fm.SyntheticProblem(K=6, dim=4, s=1.0, tau=10.0, seed=3)
        hp = HyperParams(T=40, q=10, seed=1, variant=variant)
        clients, server, counters = init_round(problem, hp)
        K, rng = problem.K, np.random.default_rng(24)
        for t in [t for t in range(1, hp.T + 1) if t % hp.q] * 4:
            W, V = edge_rows(rng, (K, problem.d)), edge_rows(rng, (K, problem.p))
            GX, GY = edge_rows(rng, (2 * K, problem.d)), edge_rows(rng, (2 * K, problem.p))
            clients.W[:], clients.V[:] = W, V
            monkeypatch.setattr(problem, "grad_stoch_rows", lambda ks, *_: (GX[:len(ks)].copy(), GY[:len(ks)].copy()))
            with np.errstate(all="ignore"):
                local_step(problem, hp, t, clients, server, counters)
                if variant == VARIANT_MOMENTUM_LOCAL_SGDA:
                    want_W, want_V = hp.beta_m * W + GX[:K], hp.beta_m * V + GY[:K]
                else:
                    want_W = _expression_storm(GX[:K], GX[K:], W, clients.sched.beta[t])
                    want_V = _expression_storm(GY[:K], GY[K:], V, clients.sched.alpha[t])
            assert same_bits_or_both_nan(clients.W, want_W) and same_bits_or_both_nan(clients.V, want_V)

    def test_storm_update_refreshes_in_place_as_its_expression_form_bitwise(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 12)))
            g_new, g_old, est = (edge_rows(rng, shape) for _ in range(3))
            momentum = float(rng.choice([1.0, 1e-300, rng.uniform()]))
            with np.errstate(all="ignore"):
                want = _expression_storm(g_new, g_old, est, momentum)
                got = storm_update(g_new, g_old, est, momentum)
            assert got is est and same_bits_or_both_nan(got, want)


class TestLocalStep:
    def test_rejects_sync_index(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        with pytest.raises(ValueError):
            local_step(synthetic_small, hp, 5, clients, server, counters)

    def test_zero_step_sizes_only_refresh_estimators(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0, gamma=0.0, lam=0.0)
        after, server, counters = init_round(synthetic_small, hp)
        before = replace(after, X=after.X.copy(), Y=after.Y.copy())
        local_step(synthetic_small, hp, 1, after, server, counters)
        assert np.array_equal(after.X, before.X)
        assert np.array_equal(after.Y, before.Y)

    def test_unit_constants_give_one_sgda_step(self):
        inst = fm.SyntheticProblem(K=2, dim=3, s=1.0, tau=10.0, seed=1, noise_sigma=0.0)
        hp = HyperParams(T=10, q=5, seed=0, eta_const=1.0, alpha_const=1.0, beta_const=1.0,
                         gamma=0.01, lam=0.01)
        clients, server, counters = init_round(inst, hp)
        x0, y0, w0, v0 = clients.X[0].copy(), clients.Y[0].copy(), clients.W[0].copy(), clients.V[0].copy()
        local_step(inst, hp, 1, clients, server, counters)
        after = clients
        assert np.allclose(after.Y[0], y0 + hp.lam * v0)
        assert np.allclose(after.X[0], x0 - hp.gamma * w0)
        GX, GY = grad_full(inst, after.X[0], after.Y[0])
        gx, gy = GX[0], GY[0]
        assert np.array_equal(after.V[0], gy)  # noiseless: estimate equals the fresh gradient
        assert np.array_equal(after.W[0], gx)

    @pytest.mark.parametrize("variant", [VARIANT_ADAFGDA_ADAM, VARIANT_MOMENTUM_LOCAL_SGDA])
    def test_in_place_steps_leave_the_chunk_copies_of_earlier_steps(self, variant):
        # the recorder keeps copies of every step's rows until it records
        # them; the next steps update the same client arrays in place
        inst = fm.AucProblem(K=4, dim=5, n_per_client=20, pos_ratio=0.2, seed=3)
        hp = HyperParams(T=12, q=5, seed=1, variant=variant, gamma=0.05, lam=0.05)
        clients, server, counters = init_round(inst, hp)
        arrays = [clients.X, clients.Y, clients.W, clients.V]
        recorder = metrics.TraceRecorder(inst, hp.q, hp.T)
        assert recorder.capacity >= hp.T  # nothing recorded yet
        kept = []
        for t in range(1, hp.T + 1):
            (sync_step if t % hp.q == 0 else local_step)(inst, hp, t, clients, server, counters)
            recorder.add(t, clients, counters)
            kept.append([M.copy() for M in (clients.X, clients.Y, clients.W, clients.V)])
        assert all(M is A for M, A in zip([clients.X, clients.Y, clients.W, clients.V], arrays))
        K, d, p = inst.K, inst.d, inst.p
        for i, (X, Y, W, V) in enumerate(kept):
            assert np.array_equal(recorder.X[i * K:(i + 1) * K], X)
            assert np.array_equal(recorder.Y[i * K:(i + 1) * K], Y)
            assert np.array_equal(recorder.M[i, :, :d], W) and np.array_equal(recorder.M[i, :, d:d + p], V)
        assert not np.array_equal(kept[0][0], clients.X)

    def test_deterministic_replay(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=3)
        c1, s1, n1 = init_round(synthetic_small, hp)
        c2, s2, n2 = init_round(synthetic_small, hp)
        local_step(synthetic_small, hp, 1, c1, s1, n1)
        local_step(synthetic_small, hp, 1, c2, s2, n2)
        for attr in ("X", "Y", "W", "V"):
            assert np.array_equal(getattr(c1, attr), getattr(c2, attr))


class TestSyncStep:
    def test_rejects_non_sync_index(self, synthetic_small):
        hp = HyperParams(T=10, q=5, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        with pytest.raises(ValueError):
            sync_step(synthetic_small, hp, 3, clients, server, counters)

    def test_broadcast_postcondition(self, synthetic_small):
        hp = HyperParams(T=10, q=2, seed=0)
        clients, server, counters = init_round(synthetic_small, hp)
        local_step(synthetic_small, hp, 1, clients, server, counters)
        sync_step(synthetic_small, hp, 2, clients, server, counters)
        for k in range(synthetic_small.K):
            assert np.array_equal(clients.X[k], clients.X[0])
            assert np.array_equal(clients.Y[k], clients.Y[0])
            assert np.array_equal(clients.W[k], clients.W[0])
            assert np.array_equal(clients.V[k], clients.V[0])
        assert counters.comm_rounds == 1
        # the local step books its sample; sync itself evaluates nothing
        assert counters.sfo_per_client == 2 * hp.q + 2

    def test_single_client_sync_is_plain_descent_ascent(self):
        inst = fm.SyntheticProblem(K=1, dim=3, s=1.0, tau=10.0, seed=2, noise_sigma=0.0)
        hp = HyperParams(T=10, q=1, seed=0, eta_const=1.0, gamma=0.05, lam=0.05)
        clients, server, counters = init_round(inst, hp)
        x0, y0 = clients.X[0].copy(), clients.Y[0].copy()
        w0, v0 = clients.W[0].copy(), clients.V[0].copy()
        sync_step(inst, hp, 1, clients, server, counters)
        assert np.allclose(clients.X[0], x0 - hp.gamma * w0)
        assert np.allclose(clients.Y[0], y0 + hp.lam * v0)


def _vector_sync(hp, t, clients, acc):
    """A sync step in the vector form: the server averages the rows,
    regenerates the matrices from acc and steps from the averages; returns
    (x, y, w, v, A, B), the rows every client gets, but with y not yet
    projected."""
    v_bar = vec_mean(clients.V)
    w_bar = vec_mean(clients.W)
    y_bar = vec_mean(clients.Y)
    x_bar = vec_mean(clients.X)
    eta_t = clients.sched.eta[t]
    A, B = acc.generate(w_bar, v_bar, varrho=clients.sched.varrho[t])
    y_hat = y_bar + hp.lam * precondition(B, v_bar)
    y_next = y_bar + eta_t * (y_hat - y_bar)
    x_hat = x_bar - hp.gamma * precondition(A, w_bar)
    x_next = x_bar + eta_t * (x_hat - x_bar)
    return x_next, y_next, w_bar, v_bar, A, B


SYNC_CASES = [
    *[(p, v, {}) for p in preset_names() for v in algorithms.VARIANTS],
    ("robust-q6", VARIANT_FGDA, {"algorithm.y_init_scale": "5"}),
    ("robust-q6", VARIANT_ADAFGDA_ADAM, {"algorithm.y_init_scale": "5"}),
]


class TestSyncRows:
    @pytest.mark.parametrize("preset,variant,overrides", SYNC_CASES)
    def test_sync_rows_equal_the_vector_form_bitwise(self, preset, variant, overrides):
        # sync_step writes the averages into every row and steps there; each
        # row must hold the bits of the step taken once on the averages
        cfg = apply_overrides(load_preset(preset), {"algorithm.variant": variant, **overrides})
        cfg = apply_overrides(cfg, {"algorithm.t": str(3 * cfg.algorithm.q)})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        clients, server, counters = init_round(problem, hp)
        projected = 0
        for t in range(1, hp.T + 1):
            if t % hp.q:
                local_step(problem, hp, t, clients, server, counters)
                continue
            acc = deepcopy(server)
            x, y_free, w, v, A, B = _vector_sync(hp, t, clients, acc)
            y = problem.y_constraint.project(y_free)
            projected += not np.array_equal(y, y_free)
            sync_step(problem, hp, t, clients, server, counters)
            for k in range(problem.K):
                for got, want in ((clients.X, x), (clients.Y, y), (clients.W, w), (clients.V, v)):
                    assert got[k].tobytes() == want.tobytes(), (t, k)
            assert server.A.tobytes() == A.tobytes() and server.B.tobytes() == B.tobytes()
            assert acc.m is None or acc.m.tobytes() == server.m.tobytes()
        if overrides:
            assert projected == 3  # the ball projection moved y at every sync


ITEM_TABLE_CASES = {
    "iid": lambda: fm.AucProblem(K=12, dim=8, n_per_client=30, pos_ratio=0.1, seed=3, scheme="iid"),
    "by_group": lambda: fm.AucProblem(K=11, dim=8, n_per_client=40, pos_ratio=0.05, seed=1),
    "dirichlet": lambda: fm.RobustProblem(K=8, dim=10, n_per_client=30, seed=1, scheme="dirichlet"),
}


class TestItemTable:
    @pytest.mark.parametrize("case", sorted(ITEM_TABLE_CASES))
    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_columns_equal_per_step_sequential_draws(self, case, q, chunk, monkeypatch):
        # The client-stream contract: after the q init items, client k's
        # local step t samples one rng.integers(n_k) call, read from
        # items[k, t // q, t % q - 1]. T = 13 leaves a partial last round for
        # q = 2 and q = 5; chunk = 3 draws the table in several calls per
        # client (one round per call at q = 5).
        if chunk is not None:
            monkeypatch.setattr(algorithms, "_ITEM_CHUNK", chunk)
        inst = ITEM_TABLE_CASES[case]()
        hp = HyperParams(T=13, q=q, seed=4, variant=VARIANT_FGDA, gamma=0.01, lam=0.01)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(hp.seed).spawn(inst.K)]
        for rng, n_k in zip(rngs, inst.sizes):
            rng.choice(n_k, size=q, replace=False)

        clients, server, counters = init_round(inst, hp)
        table = clients.items.copy()
        assert table.shape == (inst.K, -(-hp.T // q), q - 1)
        checked = 0
        for t in range(1, hp.T + 1):
            if t % q == 0:
                sync_step(inst, hp, t, clients, server, counters)
                assert np.array_equal(clients.items, table)  # a sync draws nothing
                continue
            expected = [int(rng.integers(n_k)) for rng, n_k in zip(rngs, inst.sizes)]
            assert clients.items[:, t // q, t % q - 1].tolist() == expected
            local_step(inst, hp, t, clients, server, counters)
            checked += 1
        assert checked == hp.T - hp.T // q

    def test_table_of_several_full_size_chunks_equals_one_flat_draw(self):
        # 65,538 rounds of one item: two chunks of at most 2**16 items each
        q, rounds, sizes = 2, 2**16 + 2, np.array([7, 2**31 + 5])
        assert rounds * (q - 1) > algorithms._ITEM_CHUNK
        seeds = np.random.SeedSequence(9).spawn(len(sizes))
        table = algorithms._draw_items([np.random.default_rng(c) for c in seeds], sizes, q, rounds)
        assert table.shape == (len(sizes), rounds, q - 1)
        for row, c, n_k in zip(table, seeds, sizes):
            flat = np.random.default_rng(c).integers(n_k, size=rounds * (q - 1))
            assert np.array_equal(row.ravel(), flat)

    @pytest.mark.parametrize("n", [1, 7, 40, 57, 100, 2**31 + 5])
    def test_numpy_batched_integers_equal_sequential_calls(self, n):
        # The item table rests on this numpy behaviour; a numpy release that
        # changes it fails here by name rather than by a moved digest.
        for m in (1, 19, 3800):
            batched = np.random.default_rng(n + m)
            sequential = np.random.default_rng(n + m)
            values = batched.integers(n, size=m)
            assert values.tolist() == [int(sequential.integers(n)) for _ in range(m)]
            assert batched.bit_generator.state == sequential.bit_generator.state
        # a (rounds, q - 1) table against one call per round and one per item
        for rounds, width in ((1, 1), (13, 4), (7, 19), (3, 0)):
            batched, per_round, per_item = (np.random.default_rng(n + rounds * width) for _ in range(3))
            table = batched.integers(n, size=(rounds, width))
            assert table.shape == (rounds, width)
            assert table.tolist() == [per_round.integers(n, size=width).tolist() for _ in range(rounds)]
            assert table.ravel().tolist() == [int(per_item.integers(n)) for _ in range(rounds * width)]
            assert batched.bit_generator.state == per_round.bit_generator.state == per_item.bit_generator.state


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
        # consensus_y is kept for this invariant alone, on sync records only
        for trace in tiny_traces.values():
            for r in trace.records:
                if r.is_sync:
                    assert r.consensus_x == 0.0
                    assert r.consensus_y == 0.0
                else:
                    assert r.consensus_y is None

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
                assert np.all(server.A == 1.0)
                assert np.all(server.B == 1.0)
            else:
                local_step(synthetic_small, hp, t, clients, server, counters)

    def test_matrix_freeze_between_syncs(self, synthetic_small):
        hp = HyperParams(T=12, q=4, seed=5, variant=VARIANT_ADAFGDA_ADAM)
        clients, server, counters = init_round(synthetic_small, hp)
        seen = []
        for t in range(1, 13):
            if t % hp.q == 0:
                sync_step(synthetic_small, hp, t, clients, server, counters)
            else:
                local_step(synthetic_small, hp, t, clients, server, counters)
            seen.append((t, server.A.copy()))
        # A changes only at t = 4, 8, 12
        for (t, diag), (t2, diag2) in zip(seen, seen[1:]):
            if t2 % hp.q != 0:
                assert np.array_equal(diag, diag2)

    def test_recorded_distances_match_manual_replay(self, synthetic_small):
        # replay the loop by hand and recompute the averaged iterate at each
        # step; the trace must be measuring exactly that quantity
        hp = HyperParams(T=14, q=5, seed=6)
        trace = fm.run(synthetic_small, hp)
        xs, ys = synthetic_small.saddle()
        clients, server, counters = init_round(synthetic_small, hp)
        for t in range(1, hp.T + 1):
            if t % hp.q == 0:
                sync_step(synthetic_small, hp, t, clients, server, counters)
                x_bar, y_bar = clients.X[0], clients.Y[0]
            else:
                local_step(synthetic_small, hp, t, clients, server, counters)
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


class TestFiniteness:
    def _nan_x_gradient_at_step(self, monkeypatch, problem, hp, s):
        # init_round makes q stacked oracle calls, each fgda local step one
        # on 2K rows (new points, then old points); poison the new-point
        # x-gradients of step s
        real = problem.grad_stoch_rows
        target = hp.q + (s - 1)
        calls = [0]

        def stub(ks, items, X, Y):
            GX, GY = real(ks, items, X, Y)
            if calls[0] == target:
                GX[:problem.K] = np.nan
            calls[0] += 1
            return GX, GY

        monkeypatch.setattr(problem, "grad_stoch_rows", stub)

    def test_non_finite_estimate_is_caught_at_its_own_step(self, synthetic_small, monkeypatch):
        hp = HyperParams(T=20, q=5, seed=3, variant=VARIANT_FGDA)
        s = 3
        self._nan_x_gradient_at_step(monkeypatch, synthetic_small, hp, s)
        clients, server, counters = init_round(synthetic_small, hp)
        for t in range(1, s + 1):
            local_step(synthetic_small, hp, t, clients, server, counters)
        # at step s only the x-side estimate is non-finite; the iterates follow at s + 1
        assert np.isfinite(clients.X).all() and np.isfinite(clients.Y).all()
        assert np.isfinite(clients.V).all() and not np.isfinite(clients.W).any()

        monkeypatch.undo()
        self._nan_x_gradient_at_step(monkeypatch, synthetic_small, hp, s)
        with pytest.raises(FloatingPointError, match=rf"^non-finite iterate or estimate at t={s}$"):
            fm.run(synthetic_small, hp)


def _poison_w_after_step(monkeypatch, s):
    """Put a NaN into one entry of W right after step s, local or sync."""
    for name in ("local_step", "sync_step"):
        real = getattr(algorithms, name)

        def step(problem, hp, t, clients, *rest, real=real):
            real(problem, hp, t, clients, *rest)
            if t == s:
                clients.W[1, 0] = np.nan

        monkeypatch.setattr(algorithms, name, step)


def _finiteness_case(case):
    """A run and the steps in each of its recorder's chunks."""
    if case == "auc-imbalanced":  # K = 10, a sync every 20 steps; chunks 1-25, 26-50, 51-60
        cfg = apply_overrides(load_preset("auc-imbalanced"), {"algorithm.t": "60"})
        return cfg.build_problem(1), cfg.hp_for_seed(1), 25
    if case == "synthetic-k100":  # chunks 1-3, 4-6, 7-8 (a sync at 4)
        problem = fm.SyntheticProblem(K=100, dim=20, s=1.0, tau=10.0, seed=1)
        return problem, HyperParams(T=8, q=4, seed=1), 3
    problem = fm.SyntheticProblem(K=2, dim=3, s=1.0, tau=10.0, seed=1)  # chunks 1-125, 126-200
    return problem, HyperParams(T=200, q=10, seed=2, variant=VARIANT_ADAFGDA_ADABELIEF, gamma=0.02, lam=0.02), 125


class TestChunkFiniteness:
    # The recorder checks a chunk's steps before measuring any of them.
    @pytest.mark.parametrize("case,s", [*(("auc-imbalanced", s) for s in (7, 20, 21, 25, 26, 60)),
                                        *(("synthetic-k2", s) for s in (1, 110, 125, 126, 199)),
                                        *(("synthetic-k100", s) for s in (3, 4))])
    def test_non_finite_w_raises_at_its_own_step_without_warnings(self, monkeypatch, case, s):
        problem, hp, per_chunk = _finiteness_case(case)
        assert metrics.TraceRecorder(problem, hp.q, hp.T).capacity == per_chunk
        _poison_w_after_step(monkeypatch, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=rf"^non-finite iterate or estimate at t={s}$"):
                fm.run(problem, hp)


class TestIndependentReference:
    def test_full_trajectory_matches_straight_line_reimplementation(self):
        # Plain-numpy re-derivation of the whole loop (identity
        # preconditioners), sharing only the problem oracles and the
        # client-stream seeding contract with the engine.
        inst = fm.SyntheticProblem(K=4, dim=5, s=1.0, tau=10.0, seed=13, n_per_client=30)
        K, T, q = inst.K, 37, 6
        gamma = lam = 0.03
        n_par, m_par, c1, c2, seed = 1.0, 10.0, 1.0, 1.0, 21

        children = np.random.SeedSequence(seed).spawn(K + 1)
        rngs = [np.random.default_rng(c) for c in children[:K]]
        x = [np.ones(inst.d) for _ in range(K)]
        y = [np.ones(inst.p) for _ in range(K)]
        w, v = [], []
        for k in range(K):
            items = rngs[k].choice(inst.sizes[k], size=q, replace=False)
            gx_acc, gy_acc = np.zeros(inst.d), np.zeros(inst.p)
            for it in items:
                a, b = grad_stoch(inst, k, x[k], y[k], int(it))
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
                    it = int(rngs[k].integers(inst.sizes[k]))
                    gxn, gyn = grad_stoch(inst, k, x_new, y_new, it)
                    gxo, gyo = grad_stoch(inst, k, x[k], y[k], it)
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
        inst = fm.SyntheticProblem(K=3, dim=4, s=1.0, tau=10.0, seed=29, n_per_client=30)
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
            items = rngs[k].choice(inst.sizes[k], size=q, replace=False)
            gx_acc, gy_acc = np.zeros(inst.d), np.zeros(inst.p)
            for it in items:
                a, b = grad_stoch(inst, k, x[k], y[k], int(it))
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
                    it = int(rngs[k].integers(inst.sizes[k]))
                    gxn, gyn = grad_stoch(inst, k, x_new, y_new, it)
                    gxo, gyo = grad_stoch(inst, k, x[k], y[k], it)
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
        assert hp.schedule(synthetic_small.K).varrho[5] == pytest.approx(1.0 - 0.5 * eta5**2)
        tr_tied = fm.run(synthetic_small, hp)
        tr_fixed = fm.run(synthetic_small, replace(hp, tie_varrho_to_momentum=False))
        assert record_cells(tr_tied) != record_cells(tr_fixed)

    def test_momentum_baseline_converges_on_synthetic(self):
        inst = fm.SyntheticProblem(K=10, dim=20, s=1.0, tau=10.0, seed=1)
        hp = HyperParams(T=1500, q=20, seed=1, variant=VARIANT_MOMENTUM_LOCAL_SGDA,
                         beta_m=0.5, gamma=0.02, lam=0.02)
        tr = fm.run(inst, hp)
        first = tr.records[0]
        last = tr.final()
        assert last.dist_x_sq + last.dist_y_sq < first.dist_x_sq + first.dist_y_sq
