import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax import estimators
from fedminimax.algorithms import HyperParams
from fedminimax.estimators import (
    MODE_ADABELIEF,
    MODE_ADAM,
    MODE_IDENTITY,
    AdaptiveAccumulator,
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
        # once per run, on every momentum of its schedule: c1 * eta**2
        # underflows to 0 here, and a constant above 1 is refused when built
        with pytest.raises(ValueError, match="momentum"):
            HyperParams(c1=1e-300, eta_const=1e-100).schedule(1)
        with pytest.raises(ValueError):
            HyperParams(alpha_const=1.5)

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
        # c1 and c2 are checked where the hyperparameters are built, eta_t
        # once per run on its whole schedule (here it underflows to 0)
        with pytest.raises(ValueError):
            HyperParams(c1=-1.0)
        with pytest.raises(ValueError, match="eta_t"):
            HyperParams(eta_n=1e-300, eta_m=1e300).schedule(1)


class _TwoSidedRule:
    """The matrix rule as it ran before the server held one moment vector:
    separate x and y moments a and b, a floor check per side, and the
    adabelief reference kept as copies of both averages (the reference)."""

    def __init__(self, mode, rho, varrho):
        self.mode, self.rho, self.varrho = mode, rho, varrho
        self.a = self.b = self.last_sync_grads = None

    def generate(self, w_bar, v_bar, varrho=None):
        w_ref, v_ref = self.last_sync_grads or (0.0, 0.0)
        if self.mode == MODE_ADABELIEF:
            self.last_sync_grads = (w_bar.copy(), v_bar.copy())
        r = self.varrho if varrho is None else varrho
        if self.a is None:
            self.a, self.b = np.zeros(len(w_bar)), np.zeros(len(v_bar))
        self.a *= r
        self.a += (1.0 - r) * (w_bar - w_ref) ** 2
        self.b *= r
        self.b += (1.0 - r) * (v_bar - v_ref) ** 2
        A = np.sqrt(self.a) + self.rho
        B = np.sqrt(self.b) + self.rho
        if A.min() < self.rho or B.min() < self.rho:
            raise AssertionError("adaptive matrix violated its entry floor")
        return A, B


def _plain_adam_rule(state, w_bar, v_bar):
    """The squared-gradient rule that adam mode ran as its own function,
    on the separate moments of a _TwoSidedRule."""
    a = np.zeros(len(w_bar)) if state.a is None else state.a
    b = np.zeros(len(v_bar)) if state.b is None else state.b
    state.a = state.varrho * a + (1.0 - state.varrho) * w_bar**2
    state.b = state.varrho * b + (1.0 - state.varrho) * v_bar**2
    return np.sqrt(state.a) + state.rho, np.sqrt(state.b) + state.rho


def _random_side(rng, n, scale):
    """n entries of mixed sign (zeros included) at the given scale."""
    return rng.choice([-1.0, 0.0, 1.0], size=n) * scale * np.abs(rng.standard_normal(n))


class TestOneMomentVector:
    @pytest.mark.parametrize("mode", [MODE_ADAM, MODE_ADABELIEF])
    def test_generate_is_the_two_sided_rule_bitwise(self, mode):
        rng = np.random.default_rng(20)
        calls = 0
        for d, p in ((3, 2), (1, 4), (6, 1)):
            acc = AdaptiveAccumulator(mode=mode, rho=0.01, varrho=0.9)
            ref = _TwoSidedRule(mode, 0.01, 0.9)
            for i in range(120):
                scale = 10.0 ** rng.integers(-12, 13)
                w = np.zeros(d) if i % 7 == 0 else _random_side(rng, d, scale)
                v = np.zeros(p) if i % 11 == 0 else _random_side(rng, p, scale)
                varrho = (None, 0.0, 1.0, float(rng.uniform(0.0, 1.0)))[i % 4]
                A, B = acc.generate(w, v, varrho=varrho)
                A_ref, B_ref = ref.generate(w, v, varrho=varrho)
                assert A.tobytes() == A_ref.tobytes() and B.tobytes() == B_ref.tobytes(), (d, p, i)
                assert acc.A is A and acc.B is B
                assert acc.m.tobytes() == np.concatenate((ref.a, ref.b)).tobytes()
                if mode == MODE_ADABELIEF:
                    assert acc.ref.tobytes() == np.concatenate(ref.last_sync_grads).tobytes()
                else:
                    assert acc.ref == 0.0
                calls += 1
        assert calls >= 300

    @pytest.mark.parametrize("mode", [MODE_ADAM, MODE_ADABELIEF])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_floor_is_asserted_on_each_side(self, mode, side, monkeypatch):
        # sqrt(m) + rho never falls below rho, so a negated square root
        # stands in for a broken rule: it breaks the floor on whichever side
        # has a nonzero moment
        class NegatedSqrt:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sqrt(m):
                return -np.sqrt(m)

        monkeypatch.setattr(estimators, "np", NegatedSqrt())
        acc = AdaptiveAccumulator(mode=mode, rho=0.01)
        w, v = (vec(0.0, 2.0), vec(0.0)) if side == "x" else (vec(0.0, 0.0), vec(2.0))
        with pytest.raises(AssertionError, match="entry floor"):
            acc.generate(w, v)


class TestAdamMatrixUpdate:
    def test_zero_gradients_give_floor(self):
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01)
        A, B = acc.generate(np.zeros(3), np.zeros(2))
        assert np.all(A == 0.01)
        assert np.all(B == 0.01)

    def test_arithmetic_with_zero_decay(self):
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.9)
        A, _ = acc.generate(vec(3.0, 4.0), vec(1.0), varrho=0.0)
        assert np.allclose(acc.m[:2], [9.0, 16.0])
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

    def test_identity_mode_has_no_moments(self):
        acc = AdaptiveAccumulator(mode=MODE_IDENTITY)
        acc.generate(vec(1.0), vec(1.0), varrho=0.0)
        assert acc.m is None and acc.ref == 0.0

    def test_zero_reference_is_the_squared_gradient_rule_bitwise(self):
        # the reference never advances, and (w - 0.0)**2 is w**2 bit for bit
        acc = AdaptiveAccumulator(mode=MODE_ADAM, rho=0.01, varrho=0.7)
        plain = _TwoSidedRule(MODE_ADAM, rho=0.01, varrho=0.7)
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8)
            v = rng.choice([-0.0, 0.0, 1.0], size=3) * rng.standard_normal(3)
            A, B = acc.generate(w, v)
            A_ref, B_ref = _plain_adam_rule(plain, w, v)
            assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
            assert acc.ref == 0.0


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
        first = acc.m.copy()
        for _ in range(80):
            A, _ = acc.generate(w, v)
        assert np.all(acc.m < first * 1e-10)
        assert np.allclose(A, 0.01, atol=1e-9)

    def test_arithmetic(self):
        acc = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=1e-12, varrho=0.9)
        acc.ref, acc.m = vec(0.0, 0.0, 0.0), np.zeros(3)
        A, _ = acc.generate(vec(1.0, -1.0), vec(0.0), varrho=0.0)
        assert np.allclose(A, [1.0, 1.0])
        acc.ref = vec(3.0, 1.0, 0.0)
        A, _ = acc.generate(vec(1.0, -1.0), vec(0.0), varrho=0.0)
        assert np.allclose(A, [2.0, 2.0])

    def test_reference_advances(self):
        acc = AdaptiveAccumulator(mode=MODE_ADABELIEF, rho=0.01)
        acc.generate(vec(1.0), vec(2.0))
        w_ref, v_ref = acc.ref[:1], acc.ref[1:]
        assert w_ref[0] == 1.0 and v_ref[0] == 2.0


class TestIdentityMode:
    def test_emits_ones(self):
        acc = AdaptiveAccumulator(mode=MODE_IDENTITY)
        A, B = acc.generate(vec(9.0, -9.0), vec(4.0))
        assert np.all(A == 1.0) and np.all(B == 1.0)

    def test_ones_of_each_side_built_once(self):
        acc = AdaptiveAccumulator(mode=MODE_IDENTITY)
        A, B = acc.generate(vec(9.0, -9.0, 0.5), vec(4.0, 1.0))
        assert A.tobytes() == np.ones(3).tobytes() and B.tobytes() == np.ones(2).tobytes()
        for varrho in (None, 0.0, 0.5):
            A2, B2 = acc.generate(vec(-1.0, 2.0, 3.0), vec(0.0, 7.0), varrho=varrho)
            assert A2 is A and B2 is B
        assert acc.A is A and acc.B is B
        assert A.tobytes() == np.ones(3).tobytes() and B.tobytes() == np.ones(2).tobytes()


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
