"""Forward noising, reverse stepping, masking modes, and Langevin iteration."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import StubRng
from latentedit import grid
from latentedit.denoiser import (
    EditInstruction,
    GMMEnergy,
    GMMPrior,
    edit_denoiser,
    gmm_chain_denoiser,
    gmm_denoiser,
)
from latentedit.grid import _POOL_MIN_VALUES, LatentGrid, Mask, RngStream, masked_combine
from latentedit.sampler import (
    DivergenceError,
    LangevinConfig,
    SamplerConfig,
    forward_step,
    langevin_chains,
    masked_reverse_step,
    noise_to,
    reverse_step,
    sample,
    _CHAIN_BLOCK,
    _step,
    sample_chains,
)
from latentedit.schedule import NoiseSchedule, build_schedule


# E(z) = z^2 / 2 + const: its gradient is z itself, bit for bit
UNIT_ENERGY = GMMEnergy(GMMPrior.scalar([1.0], [0.0], [1.0]))

# a latent whose per-step noise is at least _POOL_MIN_VALUES draws, so sample
# computes its Box-Muller on worker threads wherever a second CPU is usable
POOLED_SHAPE = (128, 128, 2)
assert np.prod(POOLED_SHAPE) >= _POOL_MIN_VALUES


def manual_schedule(betas):
    """A schedule from explicit betas, for edge cases outside build_schedule's range."""
    return NoiseSchedule(beta=betas)


def reference_chains(chain_denoiser, n, sched, cfg, rng, prior_init):
    """``sample_chains`` drawing each chain's stream on its own, one chain at a time."""
    draws = sched.T + 2
    noise = np.empty((n, draws))
    comp_u = np.empty(n)
    for i in range(n):
        stream = rng.spawn("chain", i)
        comp_u[i] = stream.uniform(())
        noise[i] = stream.normal((draws,))
    abar_T = float(sched.alpha_bar[-1])
    comp = np.minimum(np.searchsorted(np.cumsum(prior_init.weights), comp_u, side="right"),
                      prior_init.k - 1)
    z0 = prior_init.mean_matrix()[comp, 0] + prior_init.scales[comp] * noise[:, 0]
    z = np.sqrt(abar_T) * z0 + np.sqrt(1.0 - abar_T) * noise[:, 1]
    step_noise = noise[:, 2:]
    for t in range(sched.T, 0, -1):
        z = _step(z, t, chain_denoiser(z, t), step_noise[:, sched.T - t], sched, cfg)
    return z


def reference_sample(denoiser, shape, sched, cfg, rng, mask=None, z_src=None,
                     recon_denoiser=None, z_init=None):
    """``sample`` as a per-step loop on grids: one ``normal`` call per step on
    each stream, and each mask mode composed from the grid functions."""
    pin_rng = rng.spawn("pin")
    z = z_init if z_init is not None else LatentGrid(rng.normal(shape))
    mode = cfg.mask_mode if mask is not None else None
    md = mask.data[:, :, None] if mask is not None else None
    for t in range(sched.T, 0, -1):
        eps = LatentGrid(denoiser(z.data, t))
        if mode == "gate":
            eps = LatentGrid(md * eps.data)
        elif mode == "direction":
            recon = recon_denoiser(z.data, t)
            eps = LatentGrid(recon + md * (eps.data - recon))
        stepped = reverse_step(z, t, eps, sched, cfg, rng)
        if mode == "pin":
            frozen = noise_to(z_src, t - 1, LatentGrid(pin_rng.normal(shape)), sched)
            stepped = masked_combine(stepped, frozen, mask)
        z = stepped
    return z


def random_mask(h, w, seed):
    return Mask((RngStream(seed).spawn("mask").uniform((h, w)) > 0.5).astype(float))


class TestForwardStep:
    def test_vanishing_beta_is_identity(self):
        sched = manual_schedule([1e-12])
        z = LatentGrid.constant(1.0, 2, 2, 1)
        out = forward_step(z, 1, sched, RngStream(1))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-5)

    def test_hand_value_with_zero_noise(self):
        sched = manual_schedule([0.19])
        z = LatentGrid.constant(1.0, 1, 1, 1)
        out = forward_step(z, 1, sched, StubRng(0.0))
        np.testing.assert_allclose(out.data, 0.9, rtol=1e-12)

    def test_composed_steps_match_closed_form_moments(self):
        # acceptance-scale check lives in test_acceptance; this is the small version
        sched = build_schedule("linear", 10, 0.02, 0.15)
        n = 20000
        z = LatentGrid.constant(1.7, n, 1, 1)
        rng = RngStream(33)
        for t in range(1, 11):
            z = forward_step(z, t, sched, rng)
        abar = sched.alpha_bar[-1]
        expect_mean = np.sqrt(abar) * 1.7
        expect_var = 1.0 - abar
        assert abs(z.data.mean() - expect_mean) / expect_mean < 0.01
        assert abs(z.data.var() - expect_var) / expect_var < 0.02


class TestNoiseTo:
    def test_t_zero_returns_input(self, sched200):
        z = LatentGrid.constant(2.0, 2, 2, 1)
        eps = LatentGrid.constant(5.0, 2, 2, 1)
        out = noise_to(z, 0, eps, sched200)
        np.testing.assert_array_equal(out.data, z.data)

    def test_mean_jump(self):
        sched = manual_schedule([0.75])  # alpha_bar = 0.25
        z = LatentGrid.constant(2.0, 1, 1, 1)
        out = noise_to(z, 1, LatentGrid.constant(0.0, 1, 1, 1), sched)
        np.testing.assert_allclose(out.data, 1.0, rtol=1e-12)

    def test_with_unit_noise(self):
        sched = manual_schedule([0.75])
        z = LatentGrid.constant(2.0, 1, 1, 1)
        out = noise_to(z, 1, LatentGrid.constant(1.0, 1, 1, 1), sched)
        np.testing.assert_allclose(out.data, 1.0 + np.sqrt(0.75), rtol=1e-12)

    def test_dim_mismatch(self, sched200):
        with pytest.raises(ValueError, match="mismatch"):
            noise_to(
                LatentGrid.constant(0.0, 1, 1, 1), 1,
                LatentGrid.constant(0.0, 2, 1, 1), sched200,
            )


class TestReverseStep:
    def test_full_step_with_zero_beta_is_identity(self):
        sched = manual_schedule([0.1, 0.0])
        z = LatentGrid.constant(0.8, 2, 2, 1)
        out = reverse_step(z, 2, LatentGrid.constant(0.4, 2, 2, 1), sched,
                           SamplerConfig(), StubRng(0.0))
        np.testing.assert_allclose(out.data, z.data, rtol=1e-12)

    def test_literal_hand_value(self):
        sched = manual_schedule([0.1, 0.04])  # sigma_2 = 0.2
        cfg = SamplerConfig(method="ddpm_literal")
        z = LatentGrid.constant(1.0, 1, 1, 1)
        out = reverse_step(z, 2, LatentGrid.constant(0.3, 1, 1, 1), sched, cfg, StubRng(1.0))
        np.testing.assert_allclose(out.data, 0.9, rtol=1e-12)

    def test_exact_denoiser_final_step_recovers_target(self, sched200):
        stream = RngStream(12)
        z0 = LatentGrid(stream.normal((3, 3, 1)))
        z1 = LatentGrid(stream.normal((3, 3, 1)))
        abar1 = sched200.alpha_bar[0]
        eps_exact = LatentGrid((z1.data - np.sqrt(abar1) * z0.data) / np.sqrt(1 - abar1))
        for method in ("ddpm_full", "euler_ancestral"):
            cfg = SamplerConfig(method=method)
            out = reverse_step(z1, 1, eps_exact, sched200, cfg, StubRng(0.0))
            np.testing.assert_allclose(out.data, z0.data, atol=1e-9)

    def test_no_noise_at_final_step_by_default(self, sched200):
        z = LatentGrid.constant(1.0, 1, 1, 1)
        eps = LatentGrid.constant(0.0, 1, 1, 1)
        base = reverse_step(z, 1, eps, sched200, SamplerConfig(), StubRng(5.0))
        with_noise = reverse_step(z, 1, eps, sched200,
                                  SamplerConfig(add_final_noise=True), StubRng(5.0))
        assert base.data[0, 0, 0] != with_noise.data[0, 0, 0]


class TestMaskedStep:
    @pytest.fixture
    def parts(self, sched200):
        stream = RngStream(21)
        z = LatentGrid(stream.normal((4, 4, 1)))
        eps = LatentGrid(stream.normal((4, 4, 1)))
        src = LatentGrid(stream.normal((4, 4, 1)))
        return z, eps, src

    def test_all_ones_mask_bit_identical(self, parts, sched200):
        z, eps, src = parts
        ones = Mask.ones(4, 4)
        for mode in ("gate", "pin", "direction"):
            cfg = SamplerConfig(mask_mode=mode)
            masked = masked_reverse_step(
                z, 50, eps, ones, src, sched200, cfg, RngStream(99),
                pin_rng=RngStream(98), eps_recon=eps,
            )
            plain = reverse_step(z, 50, eps, sched200, cfg, RngStream(99))
            assert np.array_equal(masked.data, plain.data)

    def test_gate_all_zeros_adds_only_noise(self, parts, sched200):
        z, eps, src = parts
        cfg = SamplerConfig(method="ddpm_literal", mask_mode="gate")
        t = 50
        sigma = sched200.sigma[t - 1]
        probe = RngStream(99)
        xi = probe.normal(z.shape)
        out = masked_reverse_step(z, t, eps, Mask.zeros(4, 4), src, sched200, cfg, RngStream(99))
        np.testing.assert_array_equal(out.data, z.data + sigma * xi)

    def test_pin_final_step_restores_source_exactly(self, parts, sched200):
        z, eps, src = parts
        cfg = SamplerConfig(mask_mode="pin")
        mask = Mask((RngStream(1).uniform((4, 4)) > 0.5).astype(float))
        out = masked_reverse_step(z, 1, eps, mask, src, sched200, cfg,
                                  RngStream(99), pin_rng=RngStream(98))
        frozen = mask.data[:, :, None] == 0.0
        assert np.array_equal(out.data[np.broadcast_to(frozen, out.shape)],
                              src.data[np.broadcast_to(frozen, src.shape)])

    def test_pin_requires_source(self, parts, sched200):
        z, eps, _ = parts
        cfg = SamplerConfig(mask_mode="pin")
        with pytest.raises(ValueError, match="requires z_src"):
            masked_reverse_step(z, 5, eps, Mask.ones(4, 4), None, sched200, cfg, RngStream(1))

    def test_direction_requires_recon(self, parts, sched200):
        z, eps, src = parts
        cfg = SamplerConfig(mask_mode="direction")
        with pytest.raises(ValueError, match="reconstruction"):
            masked_reverse_step(z, 5, eps, Mask.ones(4, 4), src, sched200, cfg, RngStream(1))


class TestSample:
    def test_single_step_exact_target(self):
        sched = build_schedule("linear", 1, 0.3, 0.3)
        stream = RngStream(31)
        z_src = LatentGrid(stream.normal((3, 3, 1)))
        edit = EditInstruction(id="shift", gain=1.0, bias=0.25, target_scale=0.0)
        out = sample(edit_denoiser(edit, z_src, sched), z_src.shape, sched,
                     SamplerConfig(), RngStream(77))
        np.testing.assert_allclose(out.data, z_src.data + 0.25, atol=1e-9)

    def test_same_seed_reproduces(self, sched200):
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        a = sample(gmm_denoiser(prior, sched200), (1, 1, 1), sched200,
                   SamplerConfig(), RngStream(55))
        b = sample(gmm_denoiser(prior, sched200), (1, 1, 1), sched200,
                   SamplerConfig(), RngStream(55))
        assert np.array_equal(a.data, b.data)

    def test_masked_all_ones_matches_unmasked_run(self, sched200):
        # pin-mode re-noising must draw from a separate stream, so a trivial
        # mask cannot perturb the main trajectory
        stream = RngStream(61)
        z_src = LatentGrid(stream.normal((4, 4, 1)))
        edit = EditInstruction(id="e", gain=1.0, bias=0.5, target_scale=0.1)
        kwargs = dict(sched=sched200, cfg=SamplerConfig(mask_mode="pin"))
        plain = sample(edit_denoiser(edit, z_src, sched200), z_src.shape,
                       kwargs["sched"], kwargs["cfg"], RngStream(42),
                       z_src=z_src)
        masked = sample(edit_denoiser(edit, z_src, sched200), z_src.shape,
                        kwargs["sched"], kwargs["cfg"], RngStream(42),
                        mask=Mask.ones(4, 4), z_src=z_src)
        assert np.array_equal(plain.data, masked.data)

    def test_pin_mode_freezes_region_for_whole_run(self, sched200):
        stream = RngStream(62)
        z_src = LatentGrid(stream.normal((4, 4, 1)))
        edit = EditInstruction(id="e", gain=1.0, bias=1.0, target_scale=0.05)
        mask_data = np.zeros((4, 4))
        mask_data[:2] = 1.0
        mask = Mask(mask_data)
        out = sample(edit_denoiser(edit, z_src, sched200), z_src.shape, sched200,
                     SamplerConfig(mask_mode="pin"), RngStream(43),
                     mask=mask, z_src=z_src)
        frozen = mask.data[:, :, None] == 0.0
        sel = np.broadcast_to(frozen, out.shape)
        assert np.array_equal(out.data[sel], z_src.data[sel])
        moved = np.broadcast_to(~frozen, out.shape)
        assert np.abs(out.data[moved] - z_src.data[moved]).mean() > 0.5

    def test_gaussian_target_moments(self, sched200):
        # compact version of acceptance 1; the 20k-sample run lives there
        n = 4000
        prior = GMMPrior(np.array([1.0]), (LatentGrid.constant(3.0, n, 1, 1),), np.array([1.0]))
        rng = RngStream(101)
        z0 = prior.sample(rng.spawn("z0"))
        z_init = noise_to(z0, sched200.T, LatentGrid(rng.spawn("g").normal((n, 1, 1))), sched200)
        out = sample(gmm_denoiser(prior, sched200), (n, 1, 1), sched200,
                     SamplerConfig(), rng.spawn("run"), z_init=z_init)
        assert abs(out.data.mean() - 3.0) < 0.1
        assert abs(out.data.var() - 1.0) < 0.1

    @given(
        h=st.integers(1, 20), w=st.integers(1, 20), c=st.integers(1, 2),
        T=st.integers(1, 45), seed=st.integers(0, 2**64 - 1),
        method=st.sampled_from(["ddpm_full", "ddpm_literal", "euler_ancestral"]),
        mode=st.sampled_from([None, "gate", "pin", "direction"]),
        add_final_noise=st.booleans(), with_init=st.booleans(),
    )
    @example(h=18, w=18, c=1, T=60, seed=3, method="ddpm_full", mode="pin",
             add_final_noise=False, with_init=False)  # 50-row noise blocks: 61 = 50 + 11
    @example(h=1, w=1, c=1, T=1, seed=4, method="euler_ancestral", mode="direction",
             add_final_noise=True, with_init=True)
    @example(h=128, w=128, c=2, T=6, seed=5, method="ddpm_full", mode="pin",
             add_final_noise=False, with_init=False)  # pooled Box-Muller: 32,768 values a step
    @settings(max_examples=60, deadline=None)
    def test_sample_equals_per_step_reference(self, h, w, c, T, seed, method, mode,
                                              add_final_noise, with_init):
        sched = build_schedule("linear", T, 1e-3, 0.2)
        shape = (h, w, c)
        stream = RngStream(seed)
        z_src = LatentGrid(stream.spawn("src").normal(shape))
        z_init = LatentGrid(stream.spawn("init").normal(shape)) if with_init else None
        edit = EditInstruction(id="e", gain=1.1, bias=0.3, target_scale=0.2)
        recon = edit_denoiser(EditInstruction(id="r", target_scale=0.2), z_src, sched)
        cfg = SamplerConfig(method=method, mask_mode=mode or "pin",
                            add_final_noise=add_final_noise)
        kwargs = dict(mask=random_mask(h, w, seed) if mode else None, z_src=z_src,
                      recon_denoiser=recon, z_init=z_init)
        got = sample(edit_denoiser(edit, z_src, sched), shape, sched, cfg, RngStream(seed),
                     **kwargs)
        expected = reference_sample(edit_denoiser(edit, z_src, sched), shape, sched, cfg,
                                    RngStream(seed), **kwargs)
        assert np.array_equal(got.data, expected.data)

    @given(h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 3),
           T=st.integers(1, 30), seed=st.integers(0, 2**64 - 1))
    @example(h=4, w=4, c=1, T=1, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_pin_mode_keeps_source_outside_mask_exactly(self, h, w, c, T, seed):
        sched = build_schedule("linear", T, 1e-3, 0.2)
        z_src = LatentGrid(RngStream(seed).spawn("src").normal((h, w, c)))
        edit = EditInstruction(id="e", gain=0.7, bias=1.5, target_scale=0.1)
        mask = random_mask(h, w, seed)
        out = sample(edit_denoiser(edit, z_src, sched), z_src.shape, sched,
                     SamplerConfig(mask_mode="pin"), RngStream(seed), mask=mask, z_src=z_src)
        outside = np.broadcast_to(mask.data[:, :, None] == 0.0, out.shape)
        assert np.array_equal(out.data[outside], z_src.data[outside])

    @pytest.mark.parametrize("mode", [None, "gate", "pin"])
    def test_draws_step_noise_in_blocks(self, sched200, monkeypatch, mode):
        z_src = LatentGrid(RngStream(3).normal((18, 18, 1)))
        mask = random_mask(18, 18, 3) if mode else None
        edit = EditInstruction(id="e", bias=0.2, target_scale=0.1)
        calls = []
        uniform = RngStream.uniform
        monkeypatch.setattr(RngStream, "uniform",
                            lambda self, shape=(): calls.append(shape) or uniform(self, shape))
        sample(edit_denoiser(edit, z_src, sched200), z_src.shape, sched200,
               SamplerConfig(mask_mode=mode or "pin"), RngStream(4), mask=mask, z_src=z_src)
        assert len(calls) <= 10  # one call per step would be 201 (401 when pinned)

    @pytest.mark.parametrize("mode", [None, "gate", "pin", "direction"])
    def test_non_finite_prediction_raises(self, sched50, mode):
        mask = Mask.zeros(3, 3)  # the NaN lands outside the editable region

        def denoiser(z, t):
            eps = np.zeros_like(z)
            if t == 17:
                eps[1, 1, 0] = np.nan
            return eps

        src = LatentGrid.constant(0.5, 3, 3, 1)
        with pytest.raises(ValueError, match="non-finite"):
            sample(denoiser, (3, 3, 1), sched50, SamplerConfig(mask_mode=mode or "pin"),
                   RngStream(1), mask=mask if mode else None, z_src=src,
                   recon_denoiser=lambda z, t: np.zeros_like(z))

    def test_euler_ancestral_matches_full_moments(self, sched200):
        n = 4000
        prior = GMMPrior.scalar([1.0], [3.0], [1.0])
        chains = {}
        for method in ("ddpm_full", "euler_ancestral"):
            chains[method] = sample_chains(
                gmm_chain_denoiser(prior, sched200), n, sched200,
                SamplerConfig(method=method), RngStream(313), prior_init=prior,
            )
        for z in chains.values():
            assert abs(z.mean() - 3.0) < 0.1
            assert abs(z.var() - 1.0) < 0.1

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        T=st.integers(1, 9),
        k=st.integers(1, 3),
        method=st.sampled_from(["ddpm_full", "euler_ancestral"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chains_equal_per_chain_reference(self, n, seed, T, k, method):
        sched = build_schedule("linear", T, 1e-3, 0.2)
        prior = GMMPrior.scalar(np.full(k, 1.0 / k), np.linspace(-2.0, 2.0, k), np.full(k, 0.5))
        cfg = SamplerConfig(method=method)
        got = sample_chains(gmm_chain_denoiser(prior, sched), n, sched, cfg, RngStream(seed),
                            prior_init=prior)
        expected = reference_chains(gmm_chain_denoiser(prior, sched), n, sched, cfg,
                                    RngStream(seed), prior_init=prior)
        assert np.array_equal(got, expected)

    def test_chains_across_block_boundary_equal_reference(self, sched50):
        prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        n = _CHAIN_BLOCK + 3
        args = (gmm_chain_denoiser(prior, sched50), n, sched50, SamplerConfig(), RngStream(5))
        assert np.array_equal(sample_chains(*args, prior_init=prior),
                              reference_chains(*args, prior_init=prior))

    def test_chains_build_no_generator_per_chain(self, sched50, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        sample_chains(gmm_chain_denoiser(prior, sched50), 64, sched50, SamplerConfig(),
                      RngStream(2), prior_init=prior)
        assert built == []

    def test_chain_divergence_raises(self, sched50):
        with pytest.raises(DivergenceError, match="non-finite within T=50"):
            sample_chains(lambda z, t: np.full_like(z, 1e308), 8, sched50,
                          SamplerConfig(method="ddpm_literal"), RngStream(3),
                          prior_init=UNIT_ENERGY.prior)

    def test_chain_prediction_shape_checked(self, sched50):
        with pytest.raises(ValueError, match="t=50"):
            sample_chains(lambda z, t: z[:1], 8, sched50, SamplerConfig(), RngStream(3),
                          prior_init=UNIT_ENERGY.prior)

    def test_pooled_prediction_shape_error_leaves_no_thread(self):
        sched = build_schedule("linear", 8, 1e-3, 0.2)
        bad_t = sched.T - 3

        def denoiser(z, t):
            return z[:1] if t == bad_t else np.zeros_like(z)

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"at t={bad_t} ") as info:
            sample(denoiser, POOLED_SHAPE, sched, SamplerConfig(), RngStream(0))
        assert type(info.value) is ValueError
        assert threading.active_count() == before

    def test_box_muller_error_in_a_worker_surfaces(self, monkeypatch):
        class Boom(Exception):
            pass

        calls = []
        box_muller = grid._box_muller

        def second_call_fails(u, n):
            calls.append(n)
            if len(calls) == 2:
                raise Boom("second block")
            return box_muller(u, n)

        monkeypatch.setattr(grid, "_box_muller", second_call_fails)
        sched = build_schedule("linear", 6, 1e-3, 0.2)
        before = threading.active_count()
        with pytest.raises(Boom, match="second block"):
            sample(lambda z, t: np.zeros_like(z), POOLED_SHAPE, sched, SamplerConfig(),
                   RngStream(0))
        assert threading.active_count() == before

    def test_chain_count_validation(self, sched200):
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            sample_chains(gmm_chain_denoiser(prior, sched200), 0, sched200,
                          SamplerConfig(), RngStream(1), prior_init=prior)


class TestLangevin:
    def test_quadratic_one_big_step_reaches_minimum(self):
        cfg = LangevinConfig(step_size=2.0, noise_scale=0.0, steps=1)
        init = LatentGrid.constant(3.7, 2, 2, 1)
        out = LatentGrid(langevin_chains(UNIT_ENERGY.grad_chain, cfg, init.data, StubRng(0.0)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_quadratic_stationary_moments(self):
        # discretized OU: stationary variance 1/(1 - step/4) = 1.0256 at 0.1
        cfg = LangevinConfig(step_size=0.1, steps=5000)
        init = RngStream(71).normal((10000,))
        z = langevin_chains(UNIT_ENERGY.grad_chain, cfg, init, RngStream(72))
        assert abs(z.mean()) < 0.05
        assert abs(z.var() - 1.0) < 0.1

    def test_bimodal_mode_occupancy(self):
        prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        cfg = LangevinConfig(step_size=0.05, steps=1500)
        init = RngStream(81).normal((10000,))
        z = langevin_chains(GMMEnergy(prior).grad_chain, cfg, init, RngStream(82))
        occupancy = (z > 0).mean()
        assert abs(occupancy - 0.5) < 0.05

    def test_divergence_raises(self):
        # step far beyond the stability bound: the state doubles in magnitude
        # every iteration until it overflows to inf
        cfg = LangevinConfig(step_size=1e8, noise_scale=0.0, steps=500)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite"):
            langevin_chains(UNIT_ENERGY.grad_chain, cfg, LatentGrid.constant(2.0, 1, 1, 1).data,
                            RngStream(5))

    @pytest.mark.parametrize("n", [3, _POOL_MIN_VALUES + 1])  # below, then above sample's pool cut
    def test_equals_per_step_reference(self, n):
        energy = GMMEnergy(GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25]))
        cfg = LangevinConfig(step_size=0.05, noise_scale=np.linspace(0.3, 0.1, 9), steps=9)
        init = RngStream(83).normal((n,))
        rng, ref_rng = RngStream(84), RngStream(84)
        before = threading.active_count()
        z = langevin_chains(energy.grad_chain, cfg, init, rng)
        assert threading.active_count() == before
        ref = init.copy()
        for i in range(cfg.steps):
            xi = ref_rng.normal((n,))
            ref = ref - 0.5 * cfg.step_size * energy.grad_chain(ref) + cfg.noise_at(i) * xi
        assert z.tobytes() == ref.tobytes()
        assert rng.position == ref_rng.position

    def test_pooled_divergence_reports_the_step_and_leaves_no_thread(self):
        cfg = LangevinConfig(step_size=1e8, noise_scale=0.0, steps=500)
        with pytest.raises(DivergenceError) as inline:
            langevin_chains(UNIT_ENERGY.grad_chain, cfg, np.full(1, 2.0), RngStream(5))
        before = threading.active_count()
        with pytest.raises(DivergenceError) as pooled:
            langevin_chains(UNIT_ENERGY.grad_chain, cfg, np.full(_POOL_MIN_VALUES, 2.0),
                            RngStream(5))
        assert str(pooled.value) == str(inline.value)
        assert threading.active_count() == before

    def test_step_size_validation(self):
        with pytest.raises(ValueError, match="step_size"):
            LangevinConfig(step_size=0.0, steps=10)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step_size must be finite"):
                LangevinConfig(step_size=bad, steps=10)

    @pytest.mark.parametrize("noise_scale", [-0.1, float("nan"), float("inf"), [0.1, float("nan")]],
                             ids=["negative", "nan", "inf", "nan-entry"])
    def test_noise_scale_validation(self, noise_scale):
        with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
            LangevinConfig(step_size=0.1, noise_scale=noise_scale, steps=2)

    def test_noise_defaults_to_sqrt_step(self):
        cfg = LangevinConfig(step_size=0.09, steps=10)
        np.testing.assert_allclose(cfg.noise_at(0), 0.3, rtol=1e-12)

    def test_unit_gaussian_energy_gradient_is_the_state(self):
        z = RngStream(91).normal((100000,)) * 10.0
        assert UNIT_ENERGY.grad_chain(z).tobytes() == z.tobytes()


class TestSamplerConfig:
    def test_enum_validation(self):
        with pytest.raises(ValueError, match="method"):
            SamplerConfig(method="heun")
        with pytest.raises(ValueError, match="mask_mode"):
            SamplerConfig(mask_mode="blend")
