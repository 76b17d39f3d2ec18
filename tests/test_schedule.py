"""Variance schedule construction and lookup."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        for tiny in (1e-17, 2.0**-54):  # 1 - beta_start rounds to 1: abar_1 would be 1
            with pytest.raises(ValueError, match="beta_start"):
                build_schedule("linear", 50, tiny, 0.02)

    def test_smallest_first_beta_below_one_alpha_is_accepted(self):
        beta_start = float(np.nextafter(2.0**-54, 1.0))  # 1 - beta_start rounds down
        sched = build_schedule("linear", 50, beta_start, 0.02)
        assert sched.beta[0] == beta_start and sched.alpha[0] < 1.0

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

    @pytest.mark.parametrize("t", [-1, 5])
    def test_alpha_bar_at_rejects_out_of_range(self, t):
        with pytest.raises(ValueError, match=rf"^timestep {t} out of range \[0, 4\]$"):
            build_schedule("linear", 4, 0.1, 0.4).alpha_bar_at(t)

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
    @example(np.array([0.0]))  # abar_1 = 1: two rows divide zero by zero, without a warning
    @example(np.array([0.0, 0.0, 0.3, 0.0, 0.9999999999999999]))
    @settings(max_examples=60, deadline=None)
    def test_tables_are_derived_from_beta(self, b):
        sched = NoiseSchedule(beta=b)
        assert sched.T == len(b)
        for name, want in (("beta", b), ("alpha", 1.0 - b),
                           ("alpha_bar", np.cumprod(1.0 - b)), ("sigma", np.sqrt(b))):
            got = getattr(sched, name)
            assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes(), name
            assert not got.flags.writeable, name
        # each coefficient row against its scalar expression, one timestep at a time
        abar = [np.float64(sched.alpha_bar_at(t)) for t in range(sched.T + 1)]
        rows = {"_sqrt_abar": [np.sqrt(a) for a in abar],
                "_sqrt_1m_abar": [np.sqrt(1.0 - a) for a in abar],
                "_full_eps": [], "_sqrt_alpha": [], "_euler_eps": [], "_euler_sigma": []}
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(1, sched.T + 1):
                beta, alpha, _, _ = sched.query(t)
                var = (1.0 - abar[t - 1]) / (1.0 - abar[t]) * beta
                rows["_full_eps"].append(beta / np.sqrt(1.0 - abar[t]))
                rows["_sqrt_alpha"].append(np.sqrt(alpha))
                rows["_euler_eps"].append(np.sqrt(np.maximum(0.0, 1.0 - abar[t - 1] - var)))
                rows["_euler_sigma"].append(np.sqrt(var))
        for name, want in rows.items():
            got = getattr(sched, name)
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), name
            assert not got.flags.writeable, name

    @pytest.mark.parametrize("b", [build_schedule("linear", 7, 1e-3, 0.2).beta,
                                   np.array([0.0, 0.3, 0.9999999999999999])])
    def test_entries_are_read_only_0d_views_of_the_rows(self, b):
        sched = NoiseSchedule(beta=b)
        for name, entries in sched._entries.items():
            row = getattr(sched, name)
            assert len(entries) == row.size, name
            for i, entry in enumerate(entries):
                assert entry.shape == () and not entry.flags.writeable, name
                assert np.shares_memory(entry, row) and entry.tobytes() == row[i].tobytes(), name

    @pytest.mark.parametrize("beta", [np.float64(0.1), np.full((2, 3), 0.1), np.empty(0)],
                             ids=["0-d", "2-d", "empty"])
    def test_rejects_beta_that_is_not_a_nonempty_vector(self, beta):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            NoiseSchedule(beta=beta)

    @pytest.mark.parametrize("bad", [-1.0, 1.0, 1.5, np.nan, np.inf])
    def test_rejects_beta_outside_unit_interval_naming_its_index(self, bad):
        with pytest.raises(ValueError, match=r"beta\[2\] must be finite and in \[0, 1\)"):
            NoiseSchedule(beta=np.array([0.1, 0.0, bad, 0.2]))


class TestJump:
    @pytest.mark.parametrize("sched", [
        build_schedule("linear", 9, 1e-3, 0.2), build_schedule("cosine", 12),
        NoiseSchedule(beta=np.array([0.0, 0.3, 0.0, 0.9999999999999999, 0.5])),
    ], ids=["linear", "cosine", "explicit-with-zero-beta"])
    def test_jump_equals_the_per_step_and_per_row_recipes(self, sched):
        gen = np.random.default_rng(3)
        z0, eps = gen.standard_normal((2, 6, 2))
        for t in range(sched.T + 1):  # per step: sqrt of the scalar alpha_bar_at(t)
            abar = sched.alpha_bar_at(t)
            want = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
            assert sched._jump(t, z0, eps).tobytes() == want.tobytes(), t
        # a batch, row i at step t[i]: the rows indexed by t, then given a column axis
        t = gen.integers(0, sched.T + 1, 6)
        want = sched._sqrt_abar[t][:, None] * z0 + sched._sqrt_1m_abar[t][:, None] * eps
        assert sched._jump(t[:, None], z0, eps).tobytes() == want.tobytes()
        # sample_chains' start: the rows' last entries
        want = sched._sqrt_abar[-1] * z0[:, 0] + sched._sqrt_1m_abar[-1] * eps[:, 0]
        assert sched._jump(sched.T, z0[:, 0], eps[:, 0]).tobytes() == want.tobytes()
