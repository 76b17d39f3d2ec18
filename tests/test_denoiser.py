"""Closed-form noise predictors against independent numerical oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentedit.denoiser import (
    EditInstruction,
    GMMEnergy,
    GMMPrior,
    _gmm_score_flat,
    bayes_loss_estimate,
    compose_edits,
    edit_conditional_eps,
    edit_denoiser,
    gmm_chain_eps,
    gmm_denoiser,
    gmm_eps,
)
from latentedit.grid import LatentGrid, RngStream
from latentedit.schedule import build_schedule


def scalar_prior(weights, mus, scales):
    return GMMPrior.scalar(weights, mus, scales)


def grid_eps(z: LatentGrid, t, prior, sched) -> LatentGrid:
    """``gmm_eps`` at one grid, through ``gmm_denoiser``'s shape check."""
    return LatentGrid(gmm_denoiser(prior, sched)(z.data, t))


def schedule_with_abar(abar: float):
    """A one-step schedule whose alpha_bar[1] equals the requested value."""
    return build_schedule("linear", 1, 1.0 - abar, 1.0 - abar)


def numerical_log_q_gradient(z: LatentGrid, t, prior, sched, step=1e-4):
    """Central-difference gradient of log q_t, the independent score oracle."""
    abar = sched.alpha_bar[t - 1]
    variances = abar * prior.scales**2 + (1.0 - abar)
    mean_mat = np.sqrt(abar) * prior.mean_matrix()

    def log_qt(flat):
        diff = flat[None, :] - mean_mat
        comp = (
            np.log(prior.weights)
            - 0.5 * prior.dim * np.log(2 * np.pi * variances)
            - (diff**2).sum(axis=1) / (2 * variances)
        )
        peak = comp.max()
        return peak + np.log(np.exp(comp - peak).sum())

    flat = z.flat()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (log_qt(up) - log_qt(down)) / (2 * step)
    return grad


def reference_score(z, mean_mat, weights, variances):
    """``_gmm_score_flat`` as it was written over the (m, K) axis, kept as
    the bit-exact oracle for the per-component form."""
    m, dim = z.shape
    diff = z[:, None, :] - mean_mat[None, :, :]
    ssq = np.einsum("mkd,mkd->mk", diff, diff)
    log_resp = (
        np.log(weights)[None, :]
        - 0.5 * dim * np.log(2.0 * np.pi * variances)[None, :]
        - ssq / (2.0 * variances)[None, :]
    )
    log_resp -= log_resp.max(axis=1, keepdims=True)
    resp = np.exp(log_resp)
    resp /= resp.sum(axis=1, keepdims=True)
    return -np.einsum("mk,mkd->md", resp / variances[None, :], diff)


def random_mixture(seed, m, k, d):
    gen = np.random.default_rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    return (
        gen.normal(size=(m, d)) * gen.uniform(0.1, 10.0),
        gen.normal(size=(k, d)) * 2.0,
        weights / weights.sum(),
        gen.uniform(0.01, 3.0, k),
    )


class TestGmmEps:
    def test_unit_gaussian_closed_form(self):
        # K=1, mu=0, s=1: v = 1, eps = sqrt(1-abar) * z; abar=0.75, z=2 -> 1.0
        prior = scalar_prior([1.0], [0.0], [1.0])
        sched = schedule_with_abar(0.75)
        z = LatentGrid.constant(2.0, 1, 1, 1)
        out = grid_eps(z, 1, prior, sched)
        np.testing.assert_allclose(out.data, 1.0, rtol=1e-12)

    def test_point_mass_inverts_noise(self):
        # K=1, mu=0, s=0: eps = z / sqrt(1-abar); z=0.5, abar=0.75 -> 1.0
        prior = scalar_prior([1.0], [0.0], [0.0])
        sched = schedule_with_abar(0.75)
        z = LatentGrid.constant(0.5, 1, 1, 1)
        out = grid_eps(z, 1, prior, sched)
        np.testing.assert_allclose(out.data, 1.0, rtol=1e-12)

    def test_symmetric_mixture_vanishes_at_origin(self):
        prior = scalar_prior([0.5, 0.5], [-1.7, 1.7], [0.6, 0.6])
        sched = schedule_with_abar(0.6)
        out = grid_eps(LatentGrid.constant(0.0, 1, 1, 1), 1, prior, sched)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-14)

    def test_score_consistency_against_numerical_gradient(self):
        sched = build_schedule("linear", 40, 1e-3, 0.05)
        stream = RngStream(17)
        means = tuple(LatentGrid(stream.normal((2, 3, 1))) for _ in range(3))
        prior = GMMPrior(np.array([0.2, 0.45, 0.35]), means, np.array([0.5, 1.1, 0.2]))
        for t in (1, 13, 40):
            z = LatentGrid(stream.normal((2, 3, 1)))
            abar = sched.alpha_bar[t - 1]
            expected = -np.sqrt(1.0 - abar) * numerical_log_q_gradient(z, t, prior, sched)
            got = grid_eps(z, t, prior, sched).flat()
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-9)

    def test_no_underflow_far_from_means(self):
        prior = scalar_prior([0.5, 0.5], [-1.0, 1.0], [0.3, 0.3])
        sched = schedule_with_abar(0.5)
        out = grid_eps(LatentGrid.constant(1e3, 1, 1, 1), 1, prior, sched)
        assert np.isfinite(out.data).all()

    def test_dimension_and_timestep_errors(self, sched200):
        prior = scalar_prior([1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="does not match prior"):
            grid_eps(LatentGrid.constant(0.0, 2, 1, 1), 1, prior, sched200)
        with pytest.raises(ValueError, match="out of range"):
            grid_eps(LatentGrid.constant(0.0, 1, 1, 1), 0, prior, sched200)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_component_permutation_and_split_invariance(self, seed):
        stream = RngStream(seed)
        sched = build_schedule("linear", 10, 1e-3, 0.1)
        mus = stream.normal((2,))
        z = LatentGrid(stream.normal((1, 1, 1)))
        base = scalar_prior([0.4, 0.6], mus, [0.5, 0.9])
        permuted = scalar_prior([0.6, 0.4], mus[::-1], [0.9, 0.5])
        split = scalar_prior([0.2, 0.2, 0.6], [mus[0], mus[0], mus[1]], [0.5, 0.5, 0.9])
        expect = grid_eps(z, 7, base, sched).data
        np.testing.assert_allclose(grid_eps(z, 7, permuted, sched).data, expect, rtol=1e-12)
        np.testing.assert_allclose(grid_eps(z, 7, split, sched).data, expect, rtol=1e-12)

    def test_batch_matches_single_points_and_checks_shape(self, sched200):
        means = (LatentGrid.constant(-1.0, 2, 1, 1), LatentGrid.constant(1.0, 2, 1, 1))
        prior = GMMPrior(np.array([0.5, 0.5]), means, np.array([0.5, 0.8]))
        z = RngStream(3).normal((5, 2))
        batch = gmm_eps(z, 30, prior, sched200)
        for row, expected in zip(z, batch):
            got = grid_eps(LatentGrid(row.reshape(2, 1, 1)), 30, prior, sched200)
            np.testing.assert_allclose(got.flat(), expected, rtol=1e-12)
        for bad in (np.zeros((5, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match="prior dim 2"):
                gmm_eps(bad, 30, prior, sched200)

    def test_chain_eps_matches_grid_eps(self):
        prior = scalar_prior([0.3, 0.7], [-2.0, 2.0], [0.25, 0.25])
        sched = build_schedule("linear", 20, 1e-3, 0.1)
        zs = np.array([-2.2, -0.3, 0.9, 2.4])
        batch = gmm_chain_eps(zs, 9, prior, sched)
        for z, expected in zip(zs, batch):
            got = grid_eps(LatentGrid.constant(z, 1, 1, 1), 9, prior, sched)
            np.testing.assert_allclose(got.data[0, 0, 0], expected, rtol=1e-12)

    def test_chain_eps_requires_scalar_prior(self, sched200):
        means = (LatentGrid.constant(0.0, 2, 2, 1),)
        prior = GMMPrior(np.array([1.0]), means, np.array([1.0]))
        with pytest.raises(ValueError, match="scalar"):
            gmm_chain_eps(np.zeros(3), 1, prior, sched200)


class TestPrior:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            scalar_prior([0.5, 0.4], [0.0, 1.0], [1.0, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            scalar_prior([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])

    def test_means_share_dims(self):
        means = (LatentGrid.constant(0.0, 1, 1, 1), LatentGrid.constant(0.0, 2, 1, 1))
        with pytest.raises(ValueError, match="share dimensions"):
            GMMPrior(np.array([0.5, 0.5]), means, np.array([1.0, 1.0]))

    def test_sample_moments(self):
        prior = scalar_prior([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        flat = prior.sample_flat(RngStream(5), 40000)[:, 0]
        assert abs(flat.mean()) < 0.03
        assert abs(flat.var() - 4.0625) < 0.08


class TestEditConditional:
    def test_identity_edit_noiseless_forward_gives_zero(self, sched200):
        stream = RngStream(3)
        z_src = LatentGrid(stream.normal((3, 3, 1)))
        edit = EditInstruction(id="id", gain=1.0, bias=0.0, target_scale=0.0)
        t = 120
        abar = sched200.alpha_bar[t - 1]
        z_t = LatentGrid(np.sqrt(abar) * z_src.data)
        out = edit_conditional_eps(z_t, t, edit, z_src, sched200)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_point_target_inverts_forward_jump_exactly(self, sched200):
        stream = RngStream(4)
        z_src = LatentGrid(stream.normal((3, 3, 2)))
        g = LatentGrid(stream.normal((3, 3, 2)))
        edit = EditInstruction(id="id", gain=1.0, bias=0.0, target_scale=0.0)
        for t in (1, 75, 200):
            abar = sched200.alpha_bar[t - 1]
            z_t = LatentGrid(np.sqrt(abar) * z_src.data + np.sqrt(1 - abar) * g.data)
            out = edit_conditional_eps(z_t, t, edit, z_src, sched200)
            np.testing.assert_allclose(out.data, g.data, atol=1e-9)

    def test_hand_computed_value(self):
        # a=1, b=0.5, s_y=1, abar=0.64, z_src=1, z_t=1:
        # 0.6 * (1 - 0.8 * 1.5) / (0.64 + 0.36) = -0.12
        edit = EditInstruction(id="bias", gain=1.0, bias=0.5, target_scale=1.0)
        sched = schedule_with_abar(0.64)
        z = LatentGrid.constant(1.0, 1, 1, 1)
        out = edit_conditional_eps(z, 1, edit, z, sched)
        np.testing.assert_allclose(out.data, -0.12, rtol=1e-12)

    def test_matches_numerical_gaussian_score(self):
        # conditional target is a single Gaussian: cross-check via K=1 oracle
        stream = RngStream(9)
        sched = build_schedule("linear", 30, 1e-3, 0.08)
        z_src = LatentGrid(stream.normal((2, 2, 1)))
        edit = EditInstruction(id="e", gain=1.3, bias=-0.4, target_scale=0.7)
        prior = GMMPrior(np.array([1.0]), (edit.target_mean(z_src),), np.array([0.7]))
        z_t = LatentGrid(stream.normal((2, 2, 1)))
        for t in (5, 30):
            direct = edit_conditional_eps(z_t, t, edit, z_src, sched)
            via_gmm = grid_eps(z_t, t, prior, sched)
            np.testing.assert_allclose(direct.data, via_gmm.data, rtol=1e-10)

    def test_per_channel_gain(self):
        z_src = LatentGrid(np.ones((1, 1, 2)))
        edit = EditInstruction(id="chan", gain=[2.0, 3.0], bias=0.0, target_scale=0.0)
        mu = edit.target_mean(z_src)
        assert mu.data[0, 0, 0] == 2.0
        assert mu.data[0, 0, 1] == 3.0

    def test_bias_grid_dimension_check(self):
        z_src = LatentGrid(np.ones((2, 2, 1)))
        bad = EditInstruction(id="b", bias=LatentGrid(np.ones((1, 1, 1))))
        with pytest.raises(ValueError, match="does not match latent"):
            bad.target_mean(z_src)

    def test_denoiser_computes_target_mean_once(self, sched50, monkeypatch):
        stream = RngStream(6)
        z_src = LatentGrid(stream.normal((3, 3, 2)))
        z_t = LatentGrid(stream.normal((3, 3, 2)))
        edit = EditInstruction(id="e", gain=[1.1, 0.9], bias=0.2, target_scale=0.3)
        expected = [edit_conditional_eps(z_t, t, edit, z_src, sched50).data for t in (50, 7, 1)]
        calls = []
        target_mean = EditInstruction.target_mean
        monkeypatch.setattr(EditInstruction, "target_mean",
                            lambda self, z: calls.append(z) or target_mean(self, z))
        predict = edit_denoiser(edit, z_src, sched50)
        got = [predict(z_t.data, t) for t in (50, 7, 1)]
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="target_scale"):
            EditInstruction(id="bad", target_scale=-0.1)

    @pytest.mark.parametrize("scale", [1e308, 1.4e154, float("inf"), float("nan")])
    def test_scale_without_a_finite_square_rejected(self, scale):
        # the denoiser squares the scale; 1e308 is finite but its square is not
        with pytest.raises(ValueError, match="target_scale must be >= 0 with a finite square"):
            EditInstruction(id="bad", target_scale=scale)

    def test_largest_scales_with_a_finite_square_accepted(self):
        assert EditInstruction(id="ok", target_scale=1.3e154).target_scale == 1.3e154

    def test_member_predictions_equal_single_member_ones(self, sched50):
        stream = RngStream(12)
        z_srcs = [LatentGrid(stream.normal((3, 5, 2))) for _ in range(4)]
        chain = [
            EditInstruction(id="a", gain=[1.1, 0.9], bias=0.2, target_scale=0.3),
            EditInstruction(id="b", gain=0.95, bias=LatentGrid(stream.normal((3, 5, 2))),
                            target_scale=0.07),
            EditInstruction(id="c", gain=1.2, bias=-0.1, target_scale=0.0),
        ]
        # composed (concat) edits carry propagated scales such as sqrt(mean(a^2) s1^2 + s2^2)
        edits = [chain[0], compose_edits(chain[:2], like=z_srcs[1]),
                 compose_edits(chain, like=z_srcs[2]), chain[2]]
        batched = edit_denoiser(edits, z_srcs, sched50)
        singles = [edit_denoiser(e, z, sched50) for e, z in zip(edits, z_srcs)]
        z_t = stream.normal((4, 3, 5, 2))
        for t in (50, 17, 1):
            got = batched(z_t, t)
            assert got.shape == z_t.shape
            for i, single in enumerate(singles):
                assert np.array_equal(got[i], single(z_t[i], t)), (t, i)


class TestComposeEdits:
    def test_single_edit_is_unchanged(self):
        e = EditInstruction(id="a", gain=1.1, bias=0.2, target_scale=0.3)
        like = LatentGrid.constant(0.0, 2, 2, 1)
        assert compose_edits([e], like) is e

    def test_two_scalar_edits(self):
        like = LatentGrid.constant(0.0, 2, 2, 1)
        first = EditInstruction(id="a", gain=2.0, bias=1.0, target_scale=0.1)
        second = EditInstruction(id="b", gain=3.0, bias=-0.5, target_scale=0.2)
        combined = compose_edits([first, second], like)
        # a2*a1 = 6; a2*b1 + b2 = 2.5; s = sqrt(9*0.01 + 0.04)
        assert combined.gain[0] == 6.0
        assert combined.bias == 2.5
        np.testing.assert_allclose(combined.target_scale, np.sqrt(0.13), rtol=1e-12)

    def test_composition_matches_sequential_targets(self):
        stream = RngStream(11)
        like = LatentGrid(stream.normal((2, 2, 1)))
        first = EditInstruction(id="a", gain=1.2, bias=0.3, target_scale=0.0)
        second = EditInstruction(id="b", gain=0.8, bias=-0.1, target_scale=0.0)
        combined = compose_edits([first, second], like)
        sequential = second.target_mean(first.target_mean(like))
        np.testing.assert_allclose(combined.target_mean(like).data, sequential.data, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 3),
           per_channel=st.tuples(st.booleans(), st.booleans()),
           grid_bias=st.tuples(st.booleans(), st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_composition_equals_sequential_application(self, seed, c, per_channel, grid_bias):
        rng = RngStream(seed)
        z = LatentGrid(3.0 * rng.normal((2, 3, c)))
        e1, e2 = (
            EditInstruction(
                id=str(i),
                gain=2.0 * rng.normal((c,)) if per_channel[i] else float(2.0 * rng.normal()),
                bias=LatentGrid(5.0 * rng.normal(z.shape)) if grid_bias[i] else float(5.0 * rng.normal()),
            )
            for i in range(2)
        )
        got = compose_edits([e1, e2], z).target_mean(z).data
        want = e2.target_mean(e1.target_mean(z)).data
        # Both sides compute a2*a1*z + a2*b1 + b2.  Each term passes through at
        # most 4 roundings sequentially and 3 composed, so (to first order)
        # they differ by at most 7 units of roundoff u = eps / 2 of the size
        # of the terms, not of the result, which may cancel to near zero.
        # The bound is 8u.
        a1, a2 = e1.gain_for(c), e2.gain_for(c)
        b1 = e1.bias.data if grid_bias[0] else e1.bias
        b2 = e2.bias.data if grid_bias[1] else e2.bias
        scale = np.abs(a2 * a1) * np.abs(z.data) + np.abs(a2 * b1) + np.abs(b2)
        assert (np.abs(got - want) <= 4 * np.finfo(np.float64).eps * scale).all()

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compose_edits([], LatentGrid.constant(0.0, 1, 1, 1))


class TestBayesLoss:
    def test_point_mass_floor_is_zero(self):
        prior = scalar_prior([1.0], [0.7], [0.0])
        sched = build_schedule("linear", 20, 1e-3, 0.1)
        loss = bayes_loss_estimate(prior, sched, 2000, RngStream(8))
        assert loss <= 1e-20

    def test_unit_gaussian_floor_matches_analytic_mean_alpha_bar(self):
        # for K=1, s=1 the optimal residual variance at step t is alpha_bar_t,
        # so the floor is the average of alpha_bar over t (conditional-variance
        # identity; independent of the estimator path)
        sched = build_schedule("linear", 200, 1e-4, 0.02)
        prior = scalar_prior([1.0], [0.0], [1.0])
        loss = bayes_loss_estimate(prior, sched, 100000, RngStream(900))
        analytic = float(sched.alpha_bar.mean())
        assert abs(loss - analytic) < 0.02

    def test_regression_value_two_component(self):
        # frozen from the first oracle run of this configuration
        sched = build_schedule("linear", 50, 1e-3, 0.08)
        prior = scalar_prior([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        loss = bayes_loss_estimate(prior, sched, 100000, RngStream(900))
        np.testing.assert_allclose(loss, 0.4219725, atol=2e-3)

    def test_zero_samples_rejected(self, sched200):
        with pytest.raises(ValueError, match=">= 1"):
            bayes_loss_estimate(scalar_prior([1.0], [0.0], [1.0]), sched200, 0, RngStream(1))


class TestScoreBitExact:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), k=st.integers(1, 5),
           d=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_per_component_score_equals_axis_form(self, seed, m, k, d):
        args = random_mixture(seed, m, k, d)
        assert np.array_equal(_gmm_score_flat(*args), reference_score(*args))

    @pytest.mark.parametrize("k", [7, 8, 9, 17, 130])
    def test_many_components_equal_axis_form(self, k):
        args = random_mixture(k, 25, k, 2)
        assert np.array_equal(_gmm_score_flat(*args), reference_score(*args))


class TestGMMEnergy:
    def test_gradient_matches_finite_differences(self):
        prior = scalar_prior([0.4, 0.6], [-1.5, 1.5], [0.5, 0.8])
        energy = GMMEnergy(prior)
        for z0 in (-2.0, 0.1, 1.4):
            z = LatentGrid.constant(z0, 1, 1, 1)
            step = 1e-5
            up = energy.value(LatentGrid.constant(z0 + step, 1, 1, 1))
            down = energy.value(LatentGrid.constant(z0 - step, 1, 1, 1))
            numeric = (up - down) / (2 * step)
            got = energy.grad_chain(z.data)[0, 0, 0]
            np.testing.assert_allclose(got, numeric, rtol=1e-5)

    def test_requires_positive_scales(self):
        with pytest.raises(ValueError, match="positive"):
            GMMEnergy(scalar_prior([1.0], [0.0], [0.0]))

    def test_gradient_past_score_overflow(self):
        # beyond |z| ~ 1e154 ssq overflows for every component, and the max
        # subtraction would give inf - inf = NaN
        unit = GMMEnergy(scalar_prior([1.0], [0.0], [1.0]))
        bimodal = GMMEnergy(scalar_prior([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25]))
        far = np.array([1e200, -1e200])
        ordinary = np.array([-1.0, 0.3, 2.2])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(unit.grad_chain(far), far)
            assert np.isfinite(bimodal.grad_chain(far)).all()
            mixed = bimodal.grad_chain(np.concatenate([far, ordinary]))
        assert np.array_equal(mixed[2:], bimodal.grad_chain(ordinary))
        # a direct call, outside any errstate, warns about nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(unit.grad_chain(far), far)
            assert np.array_equal(bimodal.grad_chain(np.concatenate([far, ordinary])), mixed)

    def test_chain_grad_matches_grid_grad(self):
        prior = scalar_prior([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        energy = GMMEnergy(prior)
        zs = np.array([-1.0, 0.0, 2.2])
        batch = energy.grad_chain(zs)
        for z, expected in zip(zs, batch):
            got = energy.grad_chain(LatentGrid.constant(z, 1, 1, 1).data)[0, 0, 0]
            np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestDenoiserContract:
    def test_denoiser_callable_is_pure_and_shape_preserving(self, sched200):
        prior = scalar_prior([1.0], [0.0], [1.0])
        predict = gmm_denoiser(prior, sched200)
        z = LatentGrid.constant(0.3, 1, 1, 1)
        a = predict(z.data, 10)
        b = predict(z.data, 10)
        assert a.shape == z.shape
        assert np.array_equal(a, b)
