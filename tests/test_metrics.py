import gc
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import expit

import fedminimax as fm
from fedminimax import algorithms, metrics
from fedminimax.config import apply_overrides
from fedminimax.core import row_dots, vec_mean
from fedminimax.metrics import (
    CSV_COLUMNS,
    TraceRecord,
    TraceTable,
    ascend_y,
    auc_score,
    emit_csv,
    grad_norm_F,
    read_trace_csv,
    render_summary,
    robust_accuracy,
)
from fedminimax.presets import load_preset, preset_names
from fedminimax.problems import worst_perturbation

from conftest import fd_grad, numeric_inner_max


def _ascent_reference(inst, x, n_steps=200, step_size=0.5):
    """The projected exact-gradient ascent on y that metrics.ascend_y ran
    before the two-endpoint rule."""
    y = np.zeros(inst.p)
    X = np.tile(x, (inst.K, 1))
    for _ in range(n_steps):
        _, GY = inst.grad_full_all(X, np.tile(y, (inst.K, 1)))
        y = inst.y_constraint.project(y + step_size * vec_mean(GY))
    return y


def _batched_ascent_reference(inst, P, n_steps=200, step_size=0.5):
    """_ascent_reference at every row of P at once, for the robust family
    (its y-gradient is mean(s) * x); equal to it up to rounding."""
    Y = np.zeros_like(P)
    for _ in range(n_steps):
        c = row_dots(P, Y)
        g = np.zeros(len(P))
        for Xk, lab in zip(inst.clients_X, inst.clients_y):
            z = Xk @ P.T + c
            g += (-lab[:, None] * expit(-lab[:, None] * z)).mean(axis=0)
        Y = inst.y_constraint.project(Y + step_size * (g / inst.K)[:, None] * P)
    return Y


def _robust_accuracy_reference(inst, w, n_steps=200, step_size=0.5):
    """The held-out accuracy robust_accuracy reported before the two-endpoint
    rule, from projected ascent of the held-out loss; also returns the rho."""
    X, lab = inst.test_X, inst.test_y
    rho = np.zeros(inst.p)
    for _ in range(n_steps):
        z = X @ w + float(w @ rho)
        s = -lab * expit(-lab * z)
        g = float(s.mean()) * w
        rho = inst.y_constraint.project(rho + step_size * g)
    z = X @ w + float(w @ rho)
    return float((np.sign(z) == lab).mean()), rho


def _held_out_loss(inst, w, rho):
    return float(np.logaddexp(0.0, -inst.test_y * (inst.test_X @ w + float(w @ rho))).mean())


@pytest.fixture(scope="module", params=["iid", "dirichlet"])
def robust_q6(request):
    cfg = apply_overrides(load_preset("robust-q6"), {"problem.scheme": request.param})
    return cfg.build_problem(1)


class TestGradNormF:
    def test_zero_at_saddle(self, synthetic_small):
        xs, _ = synthetic_small.saddle()
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

    def test_robust_endpoint_at_least_as_exact_as_a_long_ascent(self, robust_inst):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(robust_inst.d)
        y = ascend_y(robust_inst, w)
        reference = _ascent_reference(robust_inst, w, n_steps=10_000)
        assert not robust_inst.has_closed_form_inner_max
        assert robust_inst.global_value(w, y) >= robust_inst.global_value(w, reference) - 1e-12
        gx_ref, _ = robust_inst.global_grad(w, reference)
        assert grad_norm_F(robust_inst, w) == pytest.approx(np.linalg.norm(gx_ref), rel=0.01)

    def test_robust_endpoint_lies_on_the_sphere(self, robust_inst):
        rng = np.random.default_rng(3)
        r = robust_inst.y_constraint.radius
        for _ in range(20):
            w = rng.standard_normal(robust_inst.d) * 10.0 ** rng.integers(-3, 4)
            y = ascend_y(robust_inst, w)
            assert np.linalg.norm(y) == pytest.approx(r, rel=1e-14)
            assert abs(abs(float(y @ w)) - r * np.linalg.norm(w)) <= 1e-12 * r * np.linalg.norm(w)


class TestRobustEndpointRule:
    def test_batched_reference_equals_the_ascent(self, robust_q6):
        P = np.random.default_rng(5).standard_normal((3, robust_q6.d))
        Y = _batched_ascent_reference(robust_q6, P)
        for x, y in zip(P, Y):
            assert np.allclose(y, _ascent_reference(robust_q6, x), rtol=0.0, atol=1e-9)

    def test_endpoint_value_at_least_the_ascent_value(self, robust_q6):
        rng = np.random.default_rng(6)
        P = rng.standard_normal((200, robust_q6.d)) * rng.uniform(0.1, 3.0, (200, 1))
        Y = _batched_ascent_reference(robust_q6, P)
        wins = 0
        for x, y_ascent in zip(P, Y):
            closed = robust_q6.global_value(x, ascend_y(robust_q6, x))
            ascent = robust_q6.global_value(x, y_ascent)
            assert closed >= ascent - 1e-12 * max(1.0, abs(ascent))
            wins += closed > ascent + 1e-9
        # the ascent stops at the worse endpoint somewhere in the sweep
        assert wins >= 1

    def test_zero_x_gives_zero_perturbation(self, robust_q6):
        y = ascend_y(robust_q6, np.zeros(robust_q6.d))
        assert y.shape == (robust_q6.p,) and not y.any()
        gx, _ = robust_q6.global_grad(np.zeros(robust_q6.d), np.zeros(robust_q6.p))
        assert grad_norm_F(robust_q6, np.zeros(robust_q6.d)) == float(np.linalg.norm(gx))

    def test_stacked_rows_equal_the_per_row_rule_bitwise(self, robust_q6):
        inst, p = robust_q6, robust_q6.p
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, inst.d)) * 10.0 ** rng.integers(-3, 3, (200, 1))
        X[2] = 0.0
        X[3] = -0.0  # signed zeros are x = 0 too
        X[4, 1] = np.nan
        X[5] = 1e-30 * rng.standard_normal(inst.d)  # both endpoints' values round to log 2
        plus = X[5] * (inst.y_constraint.radius / np.linalg.norm(X[5]))
        assert inst.global_value(X[5], plus) == inst.global_value(X[5], -plus)  # an exact tie
        with np.errstate(invalid="ignore"):  # logaddexp of the NaN row
            per_row = np.array([
                worst_perturbation(x, inst.y_constraint.radius, lambda y, x=x: inst.global_value(x, y)) for x in X
            ])
            stacked = {S: ascend_y(inst, X[:S]) for S in (0, 1, 3, len(X))}
            single = [ascend_y(inst, x) for x in X]
        assert np.isnan(per_row[4]).all() and not per_row[2].any() and not np.signbit(per_row[3]).any()
        signs = np.sign(row_dots(np.nan_to_num(per_row), X))
        assert {-1.0, 1.0} <= set(signs.tolist())  # both endpoints are chosen somewhere
        for S, got in stacked.items():
            assert got.shape == (S, p) and np.array_equal(got.view(np.int64), per_row[:S].view(np.int64))
        for got, want in zip(single, per_row):  # the 1-D call, unchanged
            assert got.shape == (p,) and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_recorder_calls_ascend_y_once_per_chunk_with_heavy_steps(self, monkeypatch):
        cfg = apply_overrides(load_preset("robust-q6"), {"algorithm.t": "120"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        rows = []
        original = metrics.ascend_y
        monkeypatch.setattr(metrics, "ascend_y", lambda inst, x: rows.append(len(x)) or original(inst, x))
        trace = fm.run(problem, hp)
        heavy = sum(r.grad_norm_F is not None for r in trace.records)
        steps = metrics.TraceRecorder(problem, hp.q, hp.T).capacity
        chunks = [range(a, min(a + steps, hp.T + 1)) for a in range(0, hp.T + 1, steps)]
        assert len(rows) == sum(any(t % hp.q == 0 for t in c) for c in chunks) and sum(rows) == heavy

    def test_tie_goes_to_the_plus_endpoint(self):
        w = np.array([3.0, -4.0])
        rho = worst_perturbation(w, 2.0, lambda rho: float(w @ rho) ** 2)
        assert np.array_equal(rho, w * (2.0 / 5.0))
        assert np.array_equal(worst_perturbation(w, 2.0, lambda rho: -float(w @ rho)), -w * (2.0 / 5.0))

    def test_robust_accuracy_takes_the_worse_held_out_loss(self, robust_q6):
        rng = np.random.default_rng(7)
        r = robust_q6.y_constraint.radius
        for _ in range(50):
            w = rng.standard_normal(robust_q6.d) * rng.uniform(0.1, 3.0)
            acc_ref, rho_ref = _robust_accuracy_reference(robust_q6, w)
            plus = w * (r / np.linalg.norm(w))
            worst = max((plus, -plus), key=lambda rho: _held_out_loss(robust_q6, w, rho))
            assert _held_out_loss(robust_q6, w, worst) >= _held_out_loss(robust_q6, w, rho_ref) - 1e-12
            z = robust_q6.test_X @ w + float(w @ worst)
            acc = robust_accuracy(robust_q6, w)
            assert acc == float((np.sign(z) == robust_q6.test_y).mean())
            if np.allclose(worst, rho_ref, atol=1e-9):
                assert acc == acc_ref


class TestAucScore:
    def test_perfect_ranking(self, auc_inst):
        assert auc_score(auc_inst, 100.0 * auc_inst.w_true) > 0.99

    def test_exactly_one_when_all_positives_rank_higher(self):
        inst = fm.AucProblem(K=2, dim=2, n_per_client=10, pos_ratio=0.3, seed=3, n_test=20)
        # hand-built held-out set: every positive strictly above every negative
        inst.test_y = np.array([1.0] * 6 + [-1.0] * 14)
        inst.test_X = np.zeros((20, 2))
        inst.test_X[:6, 0] = np.arange(2.0, 8.0)
        inst.test_X[6:, 0] = -np.arange(1.0, 15.0)
        assert auc_score(inst, np.array([1.0, 0.0])) == 1.0

    def test_equals_pairwise_count_with_ties_bitwise(self):
        # every (positive, negative) pair: 1 when the positive scores
        # higher, one half on a tie; a NaN score gives NaN
        inst = fm.AucProblem(K=2, dim=1, n_per_client=10, pos_ratio=0.3, seed=3, n_test=40)
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
        inst = fm.AucProblem(K=2, dim=8, n_per_client=60, pos_ratio=0.5, seed=5,
                           margin=0.0, center_spread=0.0, n_test=10_000)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(inst.dim)
        assert auc_score(inst, w) == pytest.approx(0.5, abs=0.02)

    def test_permutation_invariance(self, auc_inst):
        w = np.arange(1.0, auc_inst.dim + 1)
        base = auc_score(auc_inst, w)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(auc_inst.test_y))
        shuffled = fm.AucProblem(K=auc_inst.K, dim=auc_inst.dim, n_per_client=auc_inst.n_per_client,
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

    @pytest.mark.parametrize("text", ["", "\n\n", "# config_sha256=abcd1234\n"], ids=["empty", "blank", "comment-only"])
    def test_headerless_file_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no CSV header"):
            read_trace_csv(path)

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

    @pytest.mark.parametrize(
        "edit", [lambda row: row + ",0", lambda row: row.rsplit(",", 1)[0]], ids=["extra_cell", "short_row"]
    )
    def test_row_of_wrong_width_names_its_line(self, trace, tmp_path, edit):
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        lines = path.read_text().split("\n")
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="line 3"):
            read_trace_csv(path)

    def test_empty_cell_in_a_required_column_is_rejected(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        lines = path.read_text().split("\n")
        cells = lines[1].split(",")
        cells[CSV_COLUMNS.index("est_err_x")] = ""
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError):
            read_trace_csv(path)

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


def _recorded_run(monkeypatch, preset: str, overrides: dict):
    """Run a preset and return its trace together with what the recorder
    saw, one (t, x_bar) per step in the order it measured them, and the
    recorder itself, whose column buffers hold what it computed. x_bar is
    the step's row 0 at a sync (every row holds the average there) and the
    mean of its kept client rows at a local step."""
    cfg = apply_overrides(load_preset(preset), overrides)
    problem = cfg.build_problem(1)
    seen, recorders = [], []
    real_record = metrics.TraceRecorder.record

    def record(self):
        K = problem.K
        seen.extend((t, self.X[i * K].copy() if t % self.q == 0 else vec_mean(self.X[i * K:(i + 1) * K]))
                    for i, (t, *_) in enumerate(self.steps))
        recorders.append(self)
        real_record(self)

    monkeypatch.setattr(metrics.TraceRecorder, "record", record)
    trace = algorithms.run(problem, cfg.hp_for_seed(1), heavy_cadence=cfg.output.heavy_cadence)
    assert len({id(r) for r in recorders}) == 1
    return problem, trace, seen, recorders[0]


def _same_cell(a, b) -> bool:
    """Equal type and equal bits (repr tells -0.0 from 0.0 and keeps NaN)."""
    return type(a) is type(b) and repr(a) == repr(b)


class TestRecordedGradNormF:
    @pytest.mark.parametrize("preset", preset_names())
    def test_recorded_value_equals_the_public_definition_bitwise(self, monkeypatch, preset):
        # the recorder folds grad_norm_F into its one oracle call per chunk;
        # the bits must stay those of metrics.grad_norm_F at x_bar
        q = load_preset(preset).algorithm.q
        problem, trace, seen, _ = _recorded_run(monkeypatch, preset, {"algorithm.t": str(5 * q + 1)})
        assert [t for t, _ in seen] == [rec.t for rec in trace.records] == list(range(1, 5 * q + 2))
        checked = 0
        for (t, x_bar), rec in zip(seen, trace.records):
            if problem.has_closed_form_inner_max or t % q == 0:
                assert rec.grad_norm_F == grad_norm_F(problem, x_bar), t
                checked += 1
            else:
                assert rec.grad_norm_F is None
        assert checked == (len(seen) if problem.has_closed_form_inner_max else 5)


def _one_step_chunks(monkeypatch):
    """Record after every step, so each record call measures one step."""
    real_add = metrics.TraceRecorder.add
    monkeypatch.setattr(metrics.TraceRecorder, "add", lambda self, *args: real_add(self, *args) or self.record())


def _chunk_case(preset: str, variant: str, overrides: dict | None = None):
    """A preset's problem, seed-1 hyperparameters at T = 2q + 3, and heavy cadence."""
    cfg = apply_overrides(load_preset(preset), {"algorithm.variant": variant, **(overrides or {})})
    cfg = apply_overrides(cfg, {"algorithm.t": str(2 * cfg.algorithm.q + 3)})
    return cfg.build_problem(1), cfg.hp_for_seed(1), cfg.output.heavy_cadence


CHUNK_CASES = [
    *[(p, v, None) for p in preset_names() for v in algorithms.VARIANTS],
    *[(p, "fgda", {"algorithm.q": "1"}) for p in ("synthetic-s1", "auc-imbalanced", "robust-q6")],
    ("synthetic-s1", "adafgda_adam", {"problem.k": "100"}),
    ("robust-q6", "fgda", {"problem.k": "100", "problem.n_per_client": "8"}),
]


class TestChunkedRecorder:
    @pytest.mark.parametrize("preset,variant,overrides", CHUNK_CASES)
    def test_chunked_trace_equals_a_one_step_chunk_trace(self, monkeypatch, preset, variant, overrides):
        # T = 2q + 3: the last chunk ends mid-round; q = 1 syncs at every step
        problem, hp, cadence = _chunk_case(preset, variant, overrides)
        chunked = algorithms.run(problem, hp, heavy_cadence=cadence).records
        with monkeypatch.context() as m:
            _one_step_chunks(m)
            stepwise = algorithms.run(problem, hp, heavy_cadence=cadence).records
        assert len(chunked) == len(stepwise) == hp.T
        assert [repr(r) for r in chunked] == [repr(r) for r in stepwise]

    @pytest.mark.parametrize("rows", [1, 7, 30, 1000])
    def test_any_chunk_budget_gives_the_same_trace(self, monkeypatch, rows):
        problem, hp, cadence = _chunk_case("robust-q6", "fgda")
        reference = [repr(r) for r in algorithms.run(problem, hp, heavy_cadence=cadence).records]
        monkeypatch.setattr(metrics, "_RECORD_ROWS", rows)
        assert [repr(r) for r in algorithms.run(problem, hp, heavy_cadence=cadence).records] == reference

    def test_record_measures_full_chunks_then_the_rest(self, monkeypatch):
        # auc-imbalanced has K = 10: 25 steps per chunk, a T = 43 run ends on 18
        sizes = []
        real_record = metrics.TraceRecorder.record
        monkeypatch.setattr(metrics.TraceRecorder, "record",
                            lambda self: sizes.append(len(self.steps)) or real_record(self))
        problem, hp, cadence = _chunk_case("auc-imbalanced", "adafgda_adam")
        algorithms.run(problem, hp, heavy_cadence=cadence)
        assert sizes == [25, 18]

    def test_heavy_cadence_zero_records_no_robust_grad_norm_F(self):
        problem, hp, _ = _chunk_case("robust-q6", "fgda")
        records = algorithms.run(problem, hp, heavy_cadence=0).records
        assert all(r.grad_norm_F is None for r in records)


class TestTraceTable:
    @pytest.mark.parametrize("preset,variant", [(p, v) for p in preset_names() for v in algorithms.VARIANTS])
    def test_packed_rows_equal_the_records_built(self, monkeypatch, preset, variant):
        # the records the recorder built are the cells of its column buffers
        q = load_preset(preset).algorithm.q
        _, trace, seen, recorder = _recorded_run(monkeypatch, preset,
                                                 {"algorithm.variant": variant, "algorithm.t": str(2 * q + 1)})
        assert isinstance(trace.records, TraceTable) and len(trace.records) == len(seen) == 2 * q + 1
        for i, packed in enumerate(trace.records):
            for f in fields(TraceRecord):
                has = recorder.has.get(f.name)
                built = None if has is not None and not has[i] else recorder.columns[f.name][i].item()
                assert _same_cell(getattr(packed, f.name), built), (packed.t, f.name)

    def test_special_floats_read_back_the_same(self):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]
        built = [
            TraceRecord(t=i, is_sync=i % 2 == 0, dist_x_sq=v, dist_y_sq=None if i % 3 else -v,
                        grad_norm_F=None, est_err_x=v, est_err_y=-v, consensus_x=v, objective=v,
                        auc=v if i % 2 else None, sfo=2**52 + i, comm=i, consensus_y=v)
            for i, v in enumerate(specials)
        ]
        table = TraceTable.pack(built)
        assert len(table) == len(built)
        for got, want in zip(table, built):
            for f in fields(TraceRecord):
                assert _same_cell(getattr(got, f.name), getattr(want, f.name)), f.name
        empty = TraceTable.pack([])
        assert len(empty) == 0 and list(empty) == [] and empty[:] == []
        assert all(empty.column(j) == [] for j in range(len(fields(TraceRecord))))

    def test_packs_ints_narrow_and_leaves_out_fields_no_record_has(self):
        built = [TraceRecord(t=t, is_sync=t % 3 == 0, dist_x_sq=None, dist_y_sq=None,
                             grad_norm_F=None if t % 3 else float(t), est_err_x=0.5, est_err_y=0.25,
                             consensus_x=1.0, objective=-1.0, auc=None, sfo=2 * t, comm=t // 3)
                 for t in range(1, 300)]
        table = TraceTable.pack(built)
        names = [f.name for f in fields(TraceRecord)]
        assert table.ints.dtype == np.uint16
        # stored: the four required floats of every record, and grad_norm_F
        # of the records that have it (auc and consensus_y are unset); the
        # six flag rows take a bit per record
        assert table.floats.shape == (4 * len(built) + sum(r.grad_norm_F is not None for r in built),)
        assert table.flags.shape == (6, math.ceil(len(built) / 8))
        assert table.column(names.index("auc")) == [None] * len(built)
        assert table.column(names.index("grad_norm_F")) == [r.grad_norm_F for r in built]
        assert list(table) == built

    def test_indices_and_slices(self):
        built = [TraceRecord(t=t, is_sync=False, dist_x_sq=None, dist_y_sq=None, grad_norm_F=float(t),
                             est_err_x=0.5, est_err_y=0.25, consensus_x=1.0, objective=-1.0, auc=None,
                             sfo=2 * t, comm=0) for t in range(1, 8)]
        table = TraceTable.pack(built)
        for i in range(-7, 7):
            assert table[i] == built[i]
        for sl in (slice(None), slice(2, 5), slice(None, -1), slice(-3, None), slice(None, None, -2), slice(9, 12)):
            assert table[sl] == built[sl]
        for i in (7, -8):
            with pytest.raises(IndexError):
                table[i]
        assert list(table) == built and table.index(built[3]) == 3 and built[-1] in table

    @pytest.mark.parametrize("source", ["special floats", "synthetic run", "auc run"])
    def test_an_int_index_reads_the_row_that_iteration_reads(self, source, synthetic_small, auc_inst):
        # An int index unpacks only its own row; it must read what a full
        # unpack reads, cell for cell, at every index a list accepts.
        if source == "special floats":
            table = TraceTable.pack([
                TraceRecord(t=i, is_sync=i % 2 == 0, dist_x_sq=v, dist_y_sq=None if i % 3 else -v,
                            grad_norm_F=None, est_err_x=v, est_err_y=-v, consensus_x=v, objective=v,
                            auc=v if i % 2 else None, sfo=2**40 + i, comm=i, consensus_y=None if i % 2 else v)
                for i, v in enumerate([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.5])
            ])
        else:
            inst = synthetic_small if source == "synthetic run" else auc_inst
            table = fm.run(inst, fm.HyperParams(T=9, q=4, seed=3)).records
        # repr tells the cells' types and bits apart, NaN and -0.0 included
        rows = list(table)
        n = len(table)
        for i in range(-n, n):
            assert repr(table[i]) == repr(rows[i]), i
        assert repr(table[np.int64(1)]) == repr(rows[1])
        for sl in (slice(None), slice(1, -1), slice(None, None, -3), slice(n + 2, n + 5)):
            assert [repr(r) for r in table[sl]] == [repr(r) for r in rows[sl]]
        for i in (n, -n - 1, n + 10):
            with pytest.raises(IndexError):
                table[i]

    def test_records_stay_assignable(self, trace):
        # perfbench's tamper test edits a trace this way
        copy = replace(trace)
        records = copy.records
        copy.records = records[:-1] + [replace(records[-1], sfo=records[-1].sfo + 2)]
        assert isinstance(copy.records, list) and len(copy.records) == len(records)
        assert copy.final().sfo == trace.final().sfo + 2
        assert copy.records[:-1] == list(trace.records)[:-1]

    def test_one_trace_retains_at_most_36_kb(self):
        # perfbench keeps every repeat's trace; auc-imbalanced at T = 400 is
        # its largest: about 133 KB as a list of records, 45 KB as one
        # float64 row per field, 29 KB with narrow ints and no absent fields,
        # 23 KB with optional fields stored only where present and packed flags
        cfg = apply_overrides(load_preset("auc-imbalanced"), {"algorithm.t": "400"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        tracemalloc.start()
        try:
            trace = fm.run(problem, hp)
            assert len(trace.records) == 400
            gc.collect()
            with_trace = tracemalloc.get_traced_memory()[0]
            del trace  # what this frees is what the trace held
            gc.collect()
            retained = with_trace - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 36 * 1024, retained

    def test_one_run_peaks_under_768_kb(self):
        # The recorder's stacked calls at a chunk's 25 steps make the largest
        # temporaries of an auc-imbalanced run: about 303 KB in global_value,
        # which sets the peak of about 648 KB; grad_full_all, from the
        # clients' Hessians, holds about 100 KB and y_star about 5 KB.
        cfg = apply_overrides(load_preset("auc-imbalanced"), {"algorithm.t": "400"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        gc.collect()
        tracemalloc.start()
        try:
            fm.run(problem, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 768 * 1024, peak

    def test_one_k100_run_peaks_under_1152_kb(self):
        # synthetic-k100 (perfbench's K = 100 workload) records 3 steps a
        # chunk: about 1,090 KB at its peak (856 KB at 2 steps, 1,557 KB at 5)
        cfg = apply_overrides(load_preset("synthetic-s1"), {
            "problem.k": "100", "problem.dim": "20", "algorithm.variant": "fgda",
            "algorithm.q": "20", "algorithm.t": "200"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        gc.collect()
        tracemalloc.start()
        try:
            fm.run(problem, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1152 * 1024, peak

    def test_auc_objective_at_a_chunk_peaks_under_320_kb(self):
        # global_value at the recorder's 25 stacked points: three (25, K_b,
        # n_b) temporaries and numpy's 64 KB buffers of broadcast operands,
        # about 303 KB; both branches of every item under np.where took 396 KB
        cfg = apply_overrides(load_preset("auc-imbalanced"), {"algorithm.t": "400"})
        problem = cfg.build_problem(1)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((25, problem.d)), rng.standard_normal((25, problem.p))
        gc.collect()
        tracemalloc.start()
        try:
            problem.global_value(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 320 * 1024, peak

    def test_robust_exact_oracle_on_50_blocks_peaks_under_421_kb(self):
        # the heterogeneity probe's call at K = 10: 50 K-row blocks, taken in
        # pieces of at most robust._ORACLE_ELEMENTS slopes; about 408 KB (626
        # KB in one piece; the item-major (n, B, P, dim) product took 421 KB)
        problem = load_preset("robust-q6").build_problem(1)
        rng = np.random.default_rng(0)
        X = 2.0 * rng.standard_normal((50 * problem.K, problem.d))
        Y = 2.0 * rng.standard_normal((50 * problem.K, problem.p))
        gc.collect()
        tracemalloc.start()
        try:
            problem.grad_full_all(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 421 * 1024, peak

    def test_one_robust_run_peaks_under_768_kb(self):
        # robust-q6's largest temporaries are grad_full_all's: its kernel's
        # margins and the sigmoid's two arrays, (blocks, K_b, n_b) slopes
        # each; the run peaks at about 607 KB (631 KB when the kernel formed
        # the items' terms s_i * (x_i + y) in one (n, B, P, dim) array).
        cfg = apply_overrides(load_preset("robust-q6"), {"algorithm.t": "120"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        gc.collect()
        tracemalloc.start()
        try:
            fm.run(problem, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 768 * 1024, peak
