import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit

from fedminimax import RobustProblem
from fedminimax.core import Counters, expit, index_sum, precondition, vec_mean
from fedminimax.theory import _robust_hessian_norms

# math.exp raises OverflowError above this argument
EXP_MAX = 709.782712893384


def vec(*xs):
    return np.array(xs, dtype=float)


class TestVecMean:
    def test_arithmetic(self):
        out = vec_mean([vec(1, 3), vec(3, 5)])
        assert np.array_equal(out, vec(2, 4))

    def test_single_vector_identity(self):
        v = vec(0.1, -2.7, 3.3)
        assert np.array_equal(vec_mean([v]), v)

    def test_mean_of_copies_integral_exact(self):
        v = vec(1, 3, -6)
        assert np.array_equal(vec_mean([v, v, v]), v)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6), st.integers(2, 5))
    @settings(deadline=None, max_examples=50)
    def test_mean_of_copies(self, coords, k):
        v = np.array(coords)
        out = vec_mean([v] * k)
        assert np.allclose(out, v, rtol=5e-15, atol=0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_permutation_invariance_up_to_roundoff(self, seed):
        rng = np.random.default_rng(seed)
        vs = [rng.standard_normal(5) for _ in range(6)]
        a = vec_mean(vs)
        b = vec_mean(vs[::-1])
        # reassociation error scales with the summand magnitudes, not the
        # (possibly cancelling) mean
        scale = max(np.abs(v).max() for v in vs)
        assert np.all(np.abs(a - b) <= 1e-12 * scale)

    @pytest.mark.parametrize("K,dim", [(10, 1), (16, 1), (100, 1), (10, 20)])
    def test_stacked_rows_equal_list_bitwise(self, K, dim):
        # sum(axis=0) on (K, 1) sums pairwise and differs at these K
        rng = np.random.default_rng(K)
        vs = [rng.standard_normal(dim) for _ in range(K)]
        acc = np.zeros(dim)
        for v in vs:
            acc += v
        expected = acc / K
        assert np.array_equal(vec_mean(np.stack(vs)), expected)
        assert np.array_equal(vec_mean(vs), expected)

    @pytest.mark.parametrize("K", [10, 16, 100])
    def test_column_concatenated_blocks_equal_each_blocks_own_mean_bitwise(self, K):
        # the recorder takes every cross-client mean from one vec_mean over
        # its blocks side by side; the (K, 1) blocks are AUC's y side
        rng = np.random.default_rng(K)
        blocks = [rng.standard_normal((K, w)) * 10.0 ** rng.integers(-3, 4) for w in (12, 1, 1, 12, 12, 20)]
        means = vec_mean(np.concatenate(blocks, axis=1))
        start = 0
        for B in blocks:
            assert np.array_equal(means[start:start + B.shape[1]], vec_mean(B))
            start += B.shape[1]

    def test_fixed_order_is_deterministic(self):
        rng = np.random.default_rng(3)
        vs = [rng.standard_normal(8) for _ in range(7)]
        assert np.array_equal(vec_mean(vs), vec_mean(vs))

    def test_errors(self):
        with pytest.raises(ValueError):
            vec_mean([])
        with pytest.raises(ValueError):
            vec_mean([vec(1, 2), vec(1, 2, 3)])


def _mixed_scales(rng, shape):
    """Normals times scales from 1e-3 to 1e3: mixed signs and magnitudes,
    on which a pairwise sum differs from an index-order one."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


class TestIndexSum:
    # The client-axis sums rest on this numpy behaviour: add.reduce over a
    # slow axis of a C-contiguous array whose trailing length is at least 2
    # adds whole rows in index order, as add.accumulate does.
    @pytest.mark.parametrize("K", [1, 2, 3, 7, 10, 100])
    @pytest.mark.parametrize("m", [2, 3, 12, 38, 100])
    def test_add_reduce_over_a_slow_axis_is_add_accumulate_bitwise(self, K, m):
        rng = np.random.default_rng([K, m])
        for S in (None, 1, 2, 5):
            A = _mixed_scales(rng, (K, m) if S is None else (S, K, m))
            axis = A.ndim - 2
            ordered = np.take(np.add.accumulate(A, axis=axis), -1, axis=axis)
            assert np.array_equal(np.add.reduce(A, axis=axis).view(np.int64), ordered.view(np.int64))
            assert np.array_equal(index_sum(A, axis=axis).view(np.int64), ordered.view(np.int64))
            assert np.array_equal(index_sum(A, axis=-2).view(np.int64), ordered.view(np.int64))

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 10, 100])
    def test_a_column_or_a_strided_array_is_summed_in_index_order(self, K):
        # add.reduce would sum a (K, 1) column pairwise; index_sum falls
        # back to cumsum there, on a 1-D array, off C-contiguous memory and
        # along the last axis, also given as -1
        rng = np.random.default_rng(K)
        for A, axis in [
            (_mixed_scales(rng, (K, 1)), 0),
            (_mixed_scales(rng, (2, K, 1)), 1),
            (_mixed_scales(rng, K), 0),
            (_mixed_scales(rng, (12, K)).T, 0),
            (_mixed_scales(rng, (K, 24))[:, ::2], 0),
            (_mixed_scales(rng, (2, 3, K)), -1),
            (_mixed_scales(rng, (2, K, 1)), -2),
        ]:
            ordered = np.take(np.add.accumulate(A, axis=axis), -1, axis=axis)
            assert np.array_equal(index_sum(A, axis=axis).view(np.int64), ordered.view(np.int64))

    def test_the_fallback_is_needed_on_a_column(self):
        # pairwise and index order differ on some of these columns, so the
        # test above would see a (K, 1) column sent to add.reduce
        rng = np.random.default_rng(100)
        columns = [_mixed_scales(rng, (100, 1)) for _ in range(20)]
        assert any(np.add.reduce(A, axis=0) != np.add.accumulate(A, axis=0)[-1] for A in columns)


class TestPrecondition:
    def test_identity(self):
        out = precondition(np.ones(2), vec(5, -2))
        assert np.array_equal(out, vec(5, -2))

    def test_arithmetic(self):
        out = precondition(vec(2, 4), vec(2, 4))
        assert np.array_equal(out, vec(1, 1))

    def test_floor_scaling_bound(self):
        rho = 0.25
        g = vec(3, -4, 1)
        out = precondition(np.full(3, rho), g)
        assert np.array_equal(out, g / rho)
        assert np.linalg.norm(out) <= np.linalg.norm(g) / rho + 1e-15

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 2.0))
    @settings(deadline=None, max_examples=50)
    def test_norm_bound_for_floored_diagonals(self, seed, rho):
        rng = np.random.default_rng(seed)
        d = rho + np.abs(rng.standard_normal(6))
        g = 10.0 * rng.standard_normal(6)
        out = precondition(d, g)
        assert np.linalg.norm(out) <= np.linalg.norm(g) / rho * (1 + 1e-12)

    def test_dimension_preserved(self):
        out = precondition(vec(1, 2, 3), vec(1, 1, 1))
        assert out.shape == (3,)

    def test_errors(self):
        with pytest.raises(ValueError):
            precondition(vec(1, 2), vec(1, 2, 3))


class TestExpit:
    def test_bitwise_equal_to_scipy_expit(self):
        rng = np.random.default_rng(0)
        edges = [EXP_MAX, np.nextafter(EXP_MAX, np.inf), np.nextafter(EXP_MAX, 0.0)]
        z = np.concatenate([
            40.0 * rng.standard_normal(1_000_000),
            rng.uniform(-800.0, 800.0, 200_000),
            [np.inf, -np.inf, np.nan, 0.0, -0.0],
            edges,
            np.negative(edges),
        ])
        out = expit(z)
        ref = scipy_expit(z)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        # the overflow edge: exp(-z) is finite at -EXP_MAX and inf just below
        assert expit(-EXP_MAX) > 0.0 and expit(-np.nextafter(EXP_MAX, np.inf)) == 0.0

    def test_edges_bitwise_equal_to_scipy_expit(self):
        # around 709, the overflow edge of exp(-z) and its underflow to 0
        around = lambda v: [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        edges = [*around(709.0), *around(EXP_MAX), *around(708.0), *around(745.0)]
        rng = np.random.default_rng(1)
        z = np.concatenate([
            edges,
            np.negative(edges),
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
            np.linspace(-710.0, -708.3, 2001),  # subnormal outputs, then 0
            rng.uniform(-709.79, -708.39, 10_000),
        ])
        out = expit(z)
        ref = scipy_expit(z)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        subnormal = (ref > 0.0) & (ref < np.finfo(float).tiny)
        assert subnormal.sum() > 5_000 and (ref == 0.0).any()
        assert set(np.signbit(ref[np.isnan(ref)]).tolist()) == {False, True}  # NaN of both signs

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_any_shape_bitwise_equal_to_scipy_expit(self, shape):
        rng = np.random.default_rng(len(shape))
        z = 300.0 * rng.standard_normal(shape)
        if shape:
            z[0, 0, :] = [np.nan, -710.0, 710.0, -0.0]
        out = expit(z)
        assert out.shape == shape
        assert np.array_equal(np.asarray(out).view(np.int64), np.asarray(scipy_expit(z)).view(np.int64))

    @pytest.mark.parametrize("shape", [(n,) for n in range(1, 18)] + [(20, 1), (5, 10, 40), (8, 10, 40)])
    def test_bitwise_equal_to_libm_exp_and_silent(self, shape):
        # The robust kernels' shapes and every short length (numpy's SIMD
        # loops treat a ragged tail apart); each size sees every special
        # value at some position.
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, EXP_MAX, -EXP_MAX,
                    np.nextafter(EXP_MAX, np.inf), -np.nextafter(EXP_MAX, np.inf), 745.2, -745.2, 746.0, -746.0,
                    1e300, -1e300, 5e-324, -5e-324]
        rng = np.random.default_rng(list(shape))
        n = math.prod(shape)
        for start in range(0, len(specials), 1 if n < len(specials) else len(specials)):
            z = 40.0 * rng.standard_normal(n)
            k = min(n, len(specials) - start)
            z[rng.permutation(n)[:k]] = specials[start:start + k]
            z = z.reshape(shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = expit(z)
            e = np.array([math.inf if -v > EXP_MAX else math.exp(-v) for v in z.reshape(-1).tolist()])
            want = (1.0 / (1.0 + e)).reshape(shape)
            assert out.shape == shape
            assert np.array_equal(out.view(np.int64), want.view(np.int64))

    def test_keeps_the_shape(self):
        z = np.arange(-3.0, 3.0).reshape(2, 3)
        assert expit(z).shape == (2, 3)
        assert np.array_equal(expit(z), scipy_expit(z))
        assert expit(0.0) == 0.5

    def test_robust_hessian_norms_accept_huge_margins(self):
        # w . x far past the overflow edge of math.exp on both signs
        inst = RobustProblem(K=2, dim=4, n_per_client=6, seed=3)
        w = np.full(inst.d, 1e4)
        for Xk, labk in zip(inst.clients_X, inst.clients_y):
            assert np.isfinite(_robust_hessian_norms(Xk, labk, w)).all()


class TestCounters:
    def test_nondecreasing(self):
        c = Counters()
        c.add_sfo(4)
        c.add_sfo(2)
        c.add_comm()
        assert c.sfo_per_client == 6
        assert c.comm_rounds == 1
