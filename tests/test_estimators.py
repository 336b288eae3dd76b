import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax.estimators import (
    MODE_ADABELIEF,
    MODE_ADAM,
    MODE_IDENTITY,
    AdaptiveAccumulator,
    adabelief_matrix_update,
    momentum_schedule,
    storm_update,
)


def vec(*xs):
    return np.array(xs, dtype=float)


class TestStormUpdate:
    def test_momentum_one_is_plain_sgd(self):
        g_new = vec(1.5, -2.0)
        out = storm_update(g_new, vec(9.0, 9.0), vec(-4.0, 4.0), momentum=1.0)
        assert np.array_equal(out, g_new)

    def test_cancellation_when_estimate_matches_old_gradient(self):
        g_old = vec(0.3, 0.7)
        out = storm_update(vec(2.0, 2.0), g_old, g_old.copy(), momentum=0.25)
        assert np.array_equal(out, vec(2.0, 2.0))

    def test_scalar_arithmetic(self):
        out = storm_update(vec(2.0), vec(1.0), vec(3.0), momentum=0.5)
        assert out[0] == pytest.approx(3.0)

    def test_momentum_range_enforced(self):
        with pytest.raises(ValueError):
            storm_update(vec(1.0), vec(1.0), vec(1.0), momentum=0.0)
        with pytest.raises(ValueError):
            storm_update(vec(1.0), vec(1.0), vec(1.0), momentum=1.5)

    def test_telescoping_with_unit_momentum(self):
        # with momentum 1 at every step the estimate is always the most
        # recent gradient, bitwise
        rng = np.random.default_rng(0)
        est = rng.standard_normal(4)
        for _ in range(25):
            g_new = rng.standard_normal(4)
            g_old = rng.standard_normal(4)
            est = storm_update(g_new, g_old, est, momentum=1.0)
            assert np.array_equal(est, g_new)


class TestMomentumSchedule:
    def test_arithmetic(self):
        assert momentum_schedule(1.0, 1.0, 0.5) == (0.25, 0.25)

    def test_clamp(self):
        alpha, beta = momentum_schedule(100.0, 2.0, 1.0)
        assert alpha == 1.0 and beta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            momentum_schedule(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            momentum_schedule(1.0, 1.0, 0.0)


def _plain_adam_rule(acc, w_bar, v_bar):
    """The squared-gradient rule that adam mode ran as its own function."""
    a, b = acc._moments(len(w_bar), len(v_bar))
    acc.a = acc.varrho * a + (1.0 - acc.varrho) * w_bar**2
    acc.b = acc.varrho * b + (1.0 - acc.varrho) * v_bar**2
    return np.sqrt(acc.a) + acc.rho, np.sqrt(acc.b) + acc.rho


class TestAdamMatrixUpdate:
    def test_zero_gradients_give_floor(self):
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01)
        A, B = acc.generate(np.zeros(3), np.zeros(2))
        assert np.all(A == 0.01)
        assert np.all(B == 0.01)

    def test_arithmetic_with_zero_decay(self):
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.9)
        A, _ = acc.generate(vec(3.0, 4.0), vec(1.0), varrho=0.0)
        assert np.allclose(acc.a, [9.0, 16.0])
        assert np.allclose(A, [3.01, 4.01])

    def test_floor_always_respected(self):
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.05)
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.standard_normal(3) * 10.0 ** rng.integers(-8, 8)
            v = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 8)
            A, B = acc.generate(w, v)
            assert A.min() >= 0.05
            assert B.min() >= 0.05

    def test_mode_mismatch(self):
        acc = AdaptiveAccumulator(mode=MODE_IDENTITY)
        with pytest.raises(ValueError):
            adabelief_matrix_update(acc, vec(1.0), vec(1.0))

    def test_zero_reference_is_the_squared_gradient_rule_bitwise(self):
        # the reference never advances, and (w - 0.0)**2 is w**2 bit for bit
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.7)
        plain = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.7)
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8)
            v = rng.choice([-0.0, 0.0, 1.0], size=3) * rng.standard_normal(3)
            A, B = acc.generate(w, v)
            A_ref, B_ref = _plain_adam_rule(plain, w, v)
            assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
            assert acc.last_sync_grads is None


class TestAdaBeliefMatrixUpdate:
    def test_first_generation_equals_adam_rule(self):
        w, v = vec(3.0, -1.0), vec(2.0)
        a1 = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.9)
        a2 = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=0.01, varrho=0.9)
        A1, B1 = a1.generate(w, v)
        A2, B2 = a2.generate(w, v)
        assert np.array_equal(A1, A2)
        assert np.array_equal(B1, B2)

    def test_zero_innovation_decays_to_floor(self):
        acc = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=0.01, varrho=0.5)
        w, v = vec(5.0), vec(-5.0)
        acc.generate(w, v)
        first = acc.a.copy()
        for _ in range(80):
            A, _ = acc.generate(w, v)
        assert np.all(acc.a < first * 1e-10)
        assert np.allclose(A, 0.01, atol=1e-9)

    def test_arithmetic(self):
        acc = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=1e-12, varrho=0.9)
        acc.last_sync_grads = (vec(0.0, 0.0), vec(0.0))
        acc._moments(2, 1)
        A, _ = acc.generate(vec(1.0, -1.0), vec(0.0), varrho=0.0)
        assert np.allclose(A, [1.0, 1.0])
        A, _ = adabelief_matrix_update(acc, vec(1.0, -1.0), vec(0.0), vec(3.0, 1.0), vec(0.0), varrho=0.0)
        assert np.allclose(A, [2.0, 2.0])

    def test_reference_advances(self):
        acc = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=0.01)
        acc.generate(vec(1.0), vec(2.0))
        w_ref, v_ref = acc.last_sync_grads
        assert w_ref[0] == 1.0 and v_ref[0] == 2.0


class TestIdentityMode:
    def test_emits_ones(self):
        acc = AdaptiveAccumulator(mode=MODE_IDENTITY)
        A, B = acc.generate(vec(9.0, -9.0), vec(4.0))
        assert np.all(A == 1.0) and np.all(B == 1.0)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([MODE_ADAM, MODE_ADABELIEF]),
    st.floats(1e-4, 1.0),
    st.floats(0.01, 1.0),
)
@settings(deadline=None, max_examples=80)
def test_floor_property_random_inputs(seed, mode, rho, varrho):
    rng = np.random.default_rng(seed)
    acc = AdaptiveAccumulator(mode=mode, rho=rho, varrho=varrho)
    for _ in range(5):
        scale = 10.0 ** rng.integers(-12, 12)
        w = rng.choice([-1.0, 0.0, 1.0], size=4) * scale * np.abs(rng.standard_normal(4))
        v = rng.choice([-1.0, 0.0, 1.0], size=3) * scale * np.abs(rng.standard_normal(3))
        A, B = acc.generate(w, v)
        assert A.min() >= rho
        assert B.min() >= rho
