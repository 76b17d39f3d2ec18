"""Variance schedule construction and lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentedit.schedule import NoiseSchedule, build_schedule


class TestLinearSchedule:
    def test_four_step_example(self):
        # hand calculator: 0.9, 0.9*0.8, 0.9*0.8*0.7, 0.9*0.8*0.7*0.6
        sched = build_schedule("linear", 4, 0.1, 0.4)
        np.testing.assert_allclose(sched.beta, [0.1, 0.2, 0.3, 0.4], rtol=1e-15)
        np.testing.assert_allclose(sched.alpha, [0.9, 0.8, 0.7, 0.6], rtol=1e-15)
        np.testing.assert_allclose(sched.alpha_bar, [0.9, 0.72, 0.504, 0.3024], rtol=1e-12)
        np.testing.assert_allclose(sched.sigma, np.sqrt(sched.beta), rtol=1e-15)

    def test_single_step(self):
        sched = build_schedule("linear", 1, 0.5, 0.5)
        assert sched.alpha_bar.tolist() == [0.5]

    def test_range_validation(self):
        with pytest.raises(ValueError, match="beta_start"):
            build_schedule("linear", 10, 0.0, 0.5)
        with pytest.raises(ValueError, match="beta_start"):
            build_schedule("linear", 10, 0.6, 0.5)
        with pytest.raises(ValueError, match="beta_start"):
            build_schedule("linear", 10, 0.1, 1.0)

    def test_t_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            build_schedule("linear", 0, 0.1, 0.2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            build_schedule("quadratic", 10, 0.1, 0.2)


class TestCosineSchedule:
    def test_alpha_bar_decreases_to_near_zero(self):
        sched = build_schedule("cosine", 1000)
        assert (np.diff(sched.alpha_bar) < 0).all()
        assert sched.alpha_bar[-1] < 1e-3

    def test_beta_clipped(self):
        sched = build_schedule("cosine", 1000)
        assert (sched.beta >= 1e-8).all()
        assert (sched.beta <= 0.999).all()


class TestQuery:
    def test_lookup(self):
        sched = build_schedule("linear", 4, 0.1, 0.4)
        beta, alpha, abar, sigma = sched.query(2)
        assert beta == sched.beta[1]
        assert alpha == 0.8
        assert abs(abar - 0.72) < 1e-12

    def test_first_step_is_alpha(self):
        sched = build_schedule("linear", 4, 0.1, 0.4)
        _, alpha, abar, _ = sched.query(1)
        assert abar == alpha

    def test_bounds(self):
        sched = build_schedule("linear", 4, 0.1, 0.4)
        with pytest.raises(ValueError, match="out of range"):
            sched.query(0)
        with pytest.raises(ValueError, match="out of range"):
            sched.query(5)

    def test_alpha_bar_at_zero_is_one(self):
        sched = build_schedule("linear", 4, 0.1, 0.4)
        assert sched.alpha_bar_at(0) == 1.0


class TestInvariants:
    @given(
        st.sampled_from(["linear", "cosine"]),
        st.integers(1, 400),
        st.floats(1e-6, 0.02),
        st.floats(0.02, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_recurrence_and_monotonicity(self, kind, T, b0, b1):
        sched = build_schedule(kind, T, b0, b1)
        assert ((sched.beta > 0) & (sched.beta < 1)).all()
        np.testing.assert_array_equal(sched.alpha, 1.0 - sched.beta)
        recur = np.concatenate([[sched.alpha[0]], sched.alpha_bar[:-1] * sched.alpha[1:]])
        np.testing.assert_allclose(sched.alpha_bar, recur, rtol=1e-12)
        assert (np.diff(sched.alpha_bar) < 0).all() or T == 1
        np.testing.assert_array_equal(sched.sigma, np.sqrt(sched.beta))

    def test_rebuild_is_bit_identical(self):
        a = build_schedule("linear", 123, 3e-4, 0.017)
        b = build_schedule("linear", 123, 3e-4, 0.017)
        for name in ("beta", "alpha", "alpha_bar", "sigma"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_tables_are_immutable(self):
        sched = build_schedule("linear", 4, 0.1, 0.4)
        with pytest.raises(ValueError):
            sched.beta[0] = 0.5


class TestFromBetas:
    @given(st.one_of(
        st.builds(lambda T, b0, b1: build_schedule("linear", T, b0, b1).beta,
                  st.integers(1, 400), st.floats(1e-6, 0.02), st.floats(0.02, 0.5)),
        st.builds(lambda T: build_schedule("cosine", T).beta, st.integers(1, 400)),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50).map(np.array),
    ))
    @settings(max_examples=60, deadline=None)
    def test_tables_are_derived_from_beta(self, b):
        sched = NoiseSchedule(beta=b)
        assert sched.T == len(b)
        for name, want in (("beta", b), ("alpha", 1.0 - b),
                           ("alpha_bar", np.cumprod(1.0 - b)), ("sigma", np.sqrt(b))):
            got = getattr(sched, name)
            assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes(), name
            assert not got.flags.writeable, name

    @pytest.mark.parametrize("beta", [np.float64(0.1), np.full((2, 3), 0.1), np.empty(0)],
                             ids=["0-d", "2-d", "empty"])
    def test_rejects_beta_that_is_not_a_nonempty_vector(self, beta):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            NoiseSchedule(beta=beta)
