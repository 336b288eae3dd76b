import numpy as np
import pytest

import fedminimax as fm
from fedminimax.metrics import (
    CSV_COLUMNS,
    ascend_y,
    auc_score,
    emit_csv,
    grad_norm_F,
    read_trace_csv,
    render_summary,
    robust_accuracy,
)

from conftest import fd_grad, numeric_inner_max


class TestGradNormF:
    def test_zero_at_saddle(self, synthetic_small):
        xs, _ = fm.saddle_point(synthetic_small)
        assert grad_norm_F(synthetic_small, xs) == pytest.approx(0.0, abs=1e-12)

    def test_unit_vector_closed_form(self, synthetic_small):
        inst = synthetic_small
        e1 = np.zeros(inst.d)
        e1[0] = 1.0
        expected = inst.tau + inst.t_bar**2
        assert grad_norm_F(inst, e1) == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_value_function_finite_differences(self, synthetic_small):
        inst = synthetic_small
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(inst.d)
            fd = fd_grad(lambda z: numeric_inner_max(inst, z), x, h=1e-5)
            rel = abs(np.linalg.norm(fd) - grad_norm_F(inst, x)) / max(1.0, np.linalg.norm(fd))
            assert rel < 1e-6

    def test_auc_uses_closed_inner_max(self, auc_inst):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(auc_inst.d)
        assert auc_inst.has_closed_form_inner_max
        assert grad_norm_F(auc_inst, x) > 0

    def test_robust_short_ascent_close_to_long_ascent(self, robust_inst):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(robust_inst.d)
        approx = grad_norm_F(robust_inst, w, ascent_steps=200)
        reference = grad_norm_F(robust_inst, w, ascent_steps=10_000)
        assert not robust_inst.has_closed_form_inner_max
        assert approx == pytest.approx(reference, rel=0.01)

    def test_ascent_never_leaves_the_ball(self, robust_inst):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(robust_inst.d)
        y = ascend_y(robust_inst, w, n_steps=50)
        assert np.linalg.norm(y) <= robust_inst.y_constraint.radius + 1e-12


class TestAucScore:
    def test_perfect_ranking(self, auc_inst):
        assert auc_score(auc_inst, 100.0 * auc_inst.w_true) > 0.99

    def test_exactly_one_when_all_positives_rank_higher(self):
        inst = fm.make_auc(K=2, dim=2, n_per_client=10, pos_ratio=0.3, seed=3, n_test=20)
        # hand-built held-out set: every positive strictly above every negative
        inst.test_y = np.array([1.0] * 6 + [-1.0] * 14)
        inst.test_X = np.zeros((20, 2))
        inst.test_X[:6, 0] = np.arange(2.0, 8.0)
        inst.test_X[6:, 0] = -np.arange(1.0, 15.0)
        assert auc_score(inst, np.array([1.0, 0.0])) == 1.0

    def test_equals_pairwise_count_with_ties_bitwise(self):
        # every (positive, negative) pair: 1 when the positive scores
        # higher, one half on a tie; a NaN score gives NaN
        inst = fm.make_auc(K=2, dim=1, n_per_client=10, pos_ratio=0.3, seed=3, n_test=40)
        rng = np.random.default_rng(2)
        pos = inst.test_y > 0
        for _ in range(50):
            scores = rng.integers(-3, 4, size=40).astype(float)
            scores[rng.integers(40, size=2)] = rng.choice([np.inf, -np.inf])
            inst.test_X = scores[:, None]
            count = 0.0
            for p in scores[pos]:
                for n in scores[~pos]:
                    count += 1.0 if p > n else 0.5 if p == n else 0.0
            assert auc_score(inst, np.array([1.0])) == count / (pos.sum() * (~pos).sum())
        scores[0] = np.nan
        inst.test_X = scores[:, None]
        assert np.isnan(auc_score(inst, np.array([1.0])))

    def test_zero_scorer_is_half(self, auc_inst):
        assert auc_score(auc_inst, np.zeros(auc_inst.dim)) == pytest.approx(0.5)

    def test_random_scorer_near_half_on_balanced_data(self):
        inst = fm.make_auc(K=2, dim=8, n_per_client=60, pos_ratio=0.5, seed=5,
                           margin=0.0, center_spread=0.0, n_test=10_000)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(inst.dim)
        assert auc_score(inst, w) == pytest.approx(0.5, abs=0.02)

    def test_permutation_invariance(self, auc_inst):
        w = np.arange(1.0, auc_inst.dim + 1)
        base = auc_score(auc_inst, w)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(auc_inst.test_y))
        shuffled = fm.make_auc(K=auc_inst.K, dim=auc_inst.dim, n_per_client=auc_inst.n_per_client,
                               pos_ratio=auc_inst.pos_ratio, seed=auc_inst.seed)
        shuffled.test_X = auc_inst.test_X[perm]
        shuffled.test_y = auc_inst.test_y[perm]
        assert auc_score(shuffled, w) == pytest.approx(base, abs=1e-15)

    def test_full_variable_accepted(self, auc_inst):
        xv = np.concatenate([auc_inst.w_true, [0.0, 0.0]])
        assert auc_score(auc_inst, xv) == auc_score(auc_inst, auc_inst.w_true)

    def test_rejects_other_families(self, synthetic_small):
        with pytest.raises(TypeError):
            auc_score(synthetic_small, np.zeros(3))


class TestRobustAccuracy:
    def test_true_direction_survives_attack(self, robust_inst):
        w = np.zeros(robust_inst.d)
        w[: robust_inst.n_robust] = 1.0
        acc = robust_accuracy(robust_inst, w)
        assert acc > 0.6


@pytest.fixture(scope="module")
def trace(synthetic_small):
    hp = fm.HyperParams(T=3, q=2, seed=0)
    return fm.run(synthetic_small, hp)


class TestCsv:

    def test_structure(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 data rows
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_round_trip_exact(self, synthetic_small, tmp_path):
        hp = fm.HyperParams(T=30, q=5, seed=1, variant="adafgda_adam")
        trace = fm.run(synthetic_small, hp)
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        back = read_trace_csv(path)
        assert len(back) == len(trace.records)
        for a, b in zip(trace.records, back):
            for col in CSV_COLUMNS:
                assert getattr(a, col) == getattr(b, col), col

    def test_round_trip_with_unavailable_fields(self, auc_inst, tmp_path):
        hp = fm.HyperParams(T=10, q=5, seed=1)
        trace = fm.run(auc_inst, hp)
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        back = read_trace_csv(path)
        assert all(r.dist_x_sq is None for r in back)  # no closed-form saddle
        non_sync = [r for r in back if not r.is_sync]
        assert all(r.auc is None for r in non_sync)
        sync = [r for r in back if r.is_sync]
        assert all(r.auc is not None for r in sync)

    def test_config_hash_comment_ignored_on_read(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(trace, path, config_hash="abcd1234")
        text = path.read_text()
        assert "# config_sha256=abcd1234" in text
        assert len(read_trace_csv(path)) == 3

    def test_sync_rows_have_zero_consensus(self, synthetic_small, tmp_path):
        hp = fm.HyperParams(T=20, q=4, seed=2)
        trace = fm.run(synthetic_small, hp)
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        for r in read_trace_csv(path):
            if r.is_sync:
                assert r.consensus_x == 0.0

    def test_seventeen_digit_rendering(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        cell = path.read_text().strip().split("\n")[1].split(",")[8]  # objective
        assert float(cell) == trace.records[0].objective

    def test_unwritable_path_raises(self, trace, tmp_path):
        with pytest.raises(OSError):
            emit_csv(trace, tmp_path / "missing_dir" / "t.csv")


class TestSummary:
    def test_summary_mentions_counters(self, synthetic_small):
        hp = fm.HyperParams(T=10, q=5, seed=0)
        trace = fm.run(synthetic_small, hp)
        text = render_summary(trace)
        assert f"sfo_per_client={trace.final().sfo}" in text
        assert f"comm_rounds={trace.final().comm}" in text
        assert "wall_time_s=" in text
