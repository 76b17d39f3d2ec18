"""Forward noising, reverse stepping, masking modes, and Langevin iteration."""

import contextlib
import hashlib
import sys
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import StubRng
from test_bench import recorded_platform
from latentedit import grid
from latentedit.denoiser import (
    EditInstruction,
    GMMEnergy,
    GMMPrior,
    edit_denoiser,
    gmm_chain_denoiser,
    gmm_denoiser,
)
from latentedit.grid import (
    _POOL_BLOCK, _POOL_MIN_VALUES, LatentGrid, Mask, RngStream, masked_combine,
)
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
    _buffers,
    _sample,
    _step,
    sample_chains,
)
from latentedit.schedule import NoiseSchedule, build_schedule


# E(z) = z^2 / 2 + const: its gradient is z itself, bit for bit
UNIT_ENERGY = GMMEnergy(GMMPrior.scalar([1.0], [0.0], [1.0]))

# a latent whose per-step noise is at least _POOL_MIN_VALUES draws, so sample
# (and langevin_chains on a state this size) draws its noise on worker
# threads wherever a second CPU is usable
POOLED_SHAPE = (128, 128, 2)
assert np.prod(POOLED_SHAPE) >= _POOL_MIN_VALUES

# sha256 of the bytes of a pin-masked sample at a pooled 64x64x3 latent, T=6
# (test_pinned_sample_matches_digest), recorded when both of a pinned run's
# noise streams were transformed in full; same platform caveat as
# test_bench.py's GOLDEN_DRIFT
GOLDEN_PINNED = "3c9cb26a1faa3fbcdccdff588624d98a45e642808bfeef9746eb9649c386fbd7"


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
    z0 = prior_init.mean_matrix[comp, 0] + prior_init.scales[comp] * noise[:, 0]
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


def scalar_step(z, t, eps_hat, xi, sched, cfg, md=None, src=None, pin_xi=None, eps_recon=None):
    """``_step`` as a per-call scalar recipe: ``sched.query``, ``alpha_bar_at``
    and scalar ``np.sqrt`` at every step.  An oracle independent of the
    schedule's coefficient rows, which ``_step`` reads."""
    mode = cfg.mask_mode if md is not None else None
    if mode == "gate":
        eps_hat = md * eps_hat
    elif mode == "direction":
        eps_hat = eps_recon + md * (eps_hat - eps_recon)
    beta, alpha, abar, sigma = sched.query(t)
    scale = sigma
    if cfg.method == "ddpm_literal":
        out = z - eps_hat
    elif cfg.method == "ddpm_full":
        out = (z - (beta / np.sqrt(1.0 - abar)) * eps_hat) / np.sqrt(alpha)
    else:
        abar_prev = sched.alpha_bar_at(t - 1)
        x0_hat = (z - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
        var_t = (1.0 - abar_prev) / (1.0 - abar) * beta
        out = np.sqrt(abar_prev) * x0_hat + np.sqrt(max(0.0, 1.0 - abar_prev - var_t)) * eps_hat
        scale = np.sqrt(var_t)
    if cfg.add_final_noise or t > 1:
        out = out + scale * xi
    if mode == "pin":
        abar = sched.alpha_bar_at(t - 1)
        frozen = np.sqrt(abar) * src + np.sqrt(1.0 - abar) * pin_xi
        out = md * out + (1.0 - md) * frozen
    return out


def scalar_target_eps(z_t, t, mu, scales, sched):
    """The edit denoiser's prediction as a per-call scalar recipe, for target
    means ``mu`` (a member axis first when ``scales`` has one per member)."""
    var = np.array([s**2 for s in scales], dtype=np.float64).reshape(-1, *(1,) * (mu.ndim - 1))
    abar = sched.alpha_bar[sched._index(t)]
    return np.sqrt(1.0 - abar) * (z_t - np.sqrt(abar) * mu) / (abar * var + (1.0 - abar))


# Schedules for the oracle: linear, cosine, and explicit betas with interior
# zeros and betas near 1.  The first beta is positive, so abar_t < 1 for
# every t >= 1 and the scalar recipe divides by no zero.
ORACLE_SCHEDULES = st.one_of(
    st.builds(lambda T, b0, b1: build_schedule("linear", T, b0, b1),
              st.integers(1, 60), st.floats(1e-6, 0.02), st.floats(0.02, 0.5)),
    st.builds(lambda T: build_schedule("cosine", T), st.integers(1, 60)),
    st.builds(
        lambda first, rest: manual_schedule([first, *rest]),
        st.floats(1e-6, 1.0, exclude_max=True),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 0.5),
                           st.floats(0.999, 1.0, exclude_max=True)), max_size=20),
    ),
)


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

    @pytest.mark.parametrize("sched", [
        build_schedule("linear", 200), build_schedule("cosine", 200),
        manual_schedule([0.0, 0.3, 1e-17, 0.999]),
    ], ids=["linear", "cosine", "explicit-with-zero-beta"])
    def test_schedule_rows_equal_the_scalar_recipe(self, sched):
        # forward_step reads sqrt(alpha_t) and sigma_t from the schedule's rows;
        # they must give the bits of the square roots of query(t)'s beta
        z, xi = RngStream(4).normal((3, 2, 2)), 0.37
        for t in range(1, sched.T + 1):
            beta = sched.query(t)[0]
            want = np.sqrt(1.0 - beta) * z + np.sqrt(beta) * np.full(z.shape, xi)
            got = forward_step(LatentGrid(z), t, sched, StubRng(xi)).data
            assert got.tobytes() == want.tobytes(), f"t={t}"

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


class TestStepOracle:
    @given(
        sched=ORACLE_SCHEDULES,
        when=st.sampled_from(["first", "mid", "last"]),
        k=st.integers(0, 3),  # 0: one grid without a member axis
        h=st.integers(1, 4), w=st.integers(1, 4), c=st.integers(1, 2),
        seed=st.integers(0, 2**64 - 1),
        method=st.sampled_from(["ddpm_full", "ddpm_literal", "euler_ancestral"]),
        mode=st.sampled_from([None, "gate", "pin", "direction"]),
        add_final_noise=st.booleans(),
        scales=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    )
    @example(sched=manual_schedule([0.5, 0.0, 0.0, 0.9999999999999999]), when="last", k=2,
             h=2, w=3, c=1, seed=0, method="euler_ancestral", mode="pin", add_final_noise=False,
             scales=[0.0, 0.1, 2.0])
    @example(sched=manual_schedule([0.9999999999999999] * 24), when="last", k=1, h=1, w=1, c=1,
             seed=1, method="euler_ancestral", mode=None, add_final_noise=True,
             scales=[0.5, 0.0, 0.0])  # abar underflows to 0 by t = 21
    @settings(max_examples=150, deadline=None)
    def test_step_and_edit_denoiser_equal_scalar_recipe(self, sched, when, k, h, w, c, seed,
                                                         method, mode, add_final_noise, scales):
        t = {"first": 1, "mid": (sched.T + 1) // 2, "last": sched.T}[when]
        shape = (h, w, c)
        stream = RngStream(seed)
        members = (k,) if k else ()
        z, eps_hat, eps_recon, src = (stream.spawn(name).normal(members + shape)
                                      for name in ("z", "eps", "recon", "src"))
        xi, pin_xi = (stream.spawn(name).normal(shape) for name in ("xi", "pin"))
        md = stream.spawn("mask").uniform((h, w, 1)) if mode else None
        cfg = SamplerConfig(method=method, mask_mode=mode or "pin",
                            add_final_noise=add_final_noise)
        args = (z, t, eps_hat, xi, sched, cfg, md, src, pin_xi, eps_recon)
        with np.errstate(all="ignore"):  # betas near 1 overflow x0_hat once abar underflows
            got, want = _step(*args), scalar_step(*args)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

        z_srcs = [LatentGrid(row) for row in stream.spawn("zsrc").normal((max(k, 1),) + shape)]
        edits = [EditInstruction(id=str(i), gain=1.1 - 0.2 * i, bias=0.3 * i, target_scale=s)
                 for i, s in enumerate(scales[:max(k, 1)])]
        if k:
            mu = np.stack([e.target_mean(g).data for e, g in zip(edits, z_srcs)])
            predict = edit_denoiser(edits, z_srcs, sched)
        else:
            mu = edits[0].target_mean(z_srcs[0]).data
            predict = edit_denoiser(edits[0], z_srcs[0], sched)
        got = predict(z, t)
        want = scalar_target_eps(z, t, mu, [e.target_scale for e in edits], sched)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method, diverges", [
        ("ddpm_full", True), ("ddpm_literal", False), ("euler_ancestral", True),
    ])
    def test_leading_zero_beta(self, method, diverges):
        # abar_1 = 1: ddpm_full's beta / sqrt(1 - abar) and euler's v_1 are 0 / 0
        sched = manual_schedule([0.0, 0.1, 0.2])
        run = partial(sample, lambda z, t: np.zeros_like(z), (2, 2, 1), sched,
                      SamplerConfig(method=method), RngStream(0))
        if diverges:
            with pytest.raises(DivergenceError, match="non-finite within T=3"):
                run()
        else:
            assert np.isfinite(run().data).all()

    @pytest.mark.parametrize("t", [0, 5])
    def test_single_steps_reject_out_of_range_timesteps(self, t):
        sched = manual_schedule([0.1, 0.2, 0.3, 0.4])
        z = LatentGrid.constant(0.5, 2, 2, 1)
        cfg = SamplerConfig()
        with pytest.raises(ValueError, match=rf"^timestep {t} out of range \[1, 4\]$"):
            reverse_step(z, t, z, sched, cfg, RngStream(0))
        with pytest.raises(ValueError, match=rf"^timestep {t} out of range \[1, 4\]$"):
            masked_reverse_step(z, t, z, Mask.ones(2, 2), z, sched, cfg, RngStream(0))


def aliasing_denoiser(kind):
    """A denoiser that returns its input z itself, or a read-only view of a fresh array."""
    if kind == "input":
        return lambda z, t: z

    def read_only_view(z, t):
        eps = 0.5 * z + 0.01 * t
        eps.setflags(write=False)
        return eps.view()

    return read_only_view


class TestBufferedLoop:
    """The reverse loop steps in buffers it owns: the same bits as the per-step
    reference, whatever the denoiser returns, and no result shares memory."""

    @given(
        h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 2),
        T=st.integers(1, 30), k=st.integers(1, 3), seed=st.integers(0, 2**64 - 1),
        method=st.sampled_from(["ddpm_full", "ddpm_literal", "euler_ancestral"]),
        mode=st.sampled_from([None, "gate", "pin", "direction"]),
        add_final_noise=st.booleans(), with_init=st.booleans(),
    )
    @example(h=12, w=12, c=2, T=30, k=3, seed=6, method="euler_ancestral", mode="pin",
             add_final_noise=True, with_init=False)
    @settings(max_examples=30, deadline=None)
    def test_sample_and_members_equal_per_step_reference(self, h, w, c, T, k, seed, method,
                                                         mode, add_final_noise, with_init):
        sched = build_schedule("linear", T, 1e-3, 0.2)
        shape = (h, w, c)
        stream = RngStream(seed)
        z_srcs = [LatentGrid(row) for row in stream.spawn("src").normal((k,) + shape)]
        z_init = LatentGrid(stream.spawn("init").normal(shape)) if with_init else None
        edits = [EditInstruction(id=str(i), gain=1.1 - 0.2 * i, bias=0.3 * i, target_scale=0.2)
                 for i in range(k)]
        recons = [EditInstruction(id="r", target_scale=0.2)] * k
        mask = random_mask(h, w, seed) if mode else None
        cfg = SamplerConfig(method=method, mask_mode=mode or "pin",
                            add_final_noise=add_final_noise)
        expected = [
            reference_sample(edit_denoiser(e, z, sched), shape, sched, cfg, RngStream(seed),
                             mask=mask, z_src=z, recon_denoiser=edit_denoiser(r, z, sched),
                             z_init=z_init).data
            for e, z, r in zip(edits, z_srcs, recons)
        ]
        got = sample(edit_denoiser(edits[0], z_srcs[0], sched), shape, sched, cfg,
                     RngStream(seed), mask=mask, z_src=z_srcs[0],
                     recon_denoiser=edit_denoiser(recons[0], z_srcs[0], sched), z_init=z_init)
        assert got.data.tobytes() == expected[0].tobytes()
        members = _sample(
            edit_denoiser(edits, z_srcs, sched), shape, sched, cfg, RngStream(seed),
            md=mask.data[:, :, None] if mask is not None else None,
            src=np.stack([z.data for z in z_srcs]) if mask is not None else None,
            recon=edit_denoiser(recons, z_srcs, sched),
            z_init=z_init.data if z_init is not None else None, members=(k,))
        assert members.shape == (k,) + shape
        for row, want in zip(members, expected):
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["input", "read-only-view"])
    @pytest.mark.parametrize("mode", [None, "gate", "pin", "direction"])
    @pytest.mark.parametrize("method", ["ddpm_full", "ddpm_literal", "euler_ancestral"])
    def test_aliasing_denoisers_equal_reference(self, method, mode, kind):
        sched = build_schedule("linear", 9, 1e-3, 0.2)
        shape = (4, 3, 2)
        z_src = LatentGrid(RngStream(5).spawn("src").normal(shape))
        cfg = SamplerConfig(method=method, mask_mode=mode or "pin")
        kwargs = dict(mask=random_mask(4, 3, 5) if mode else None, z_src=z_src,
                      recon_denoiser=aliasing_denoiser(kind))
        got = sample(aliasing_denoiser(kind), shape, sched, cfg, RngStream(6), **kwargs)
        expected = reference_sample(aliasing_denoiser(kind), shape, sched, cfg, RngStream(6),
                                    **kwargs)
        assert got.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("kind", ["input", "read-only-view"])
    def test_aliasing_chain_denoisers_equal_reference(self, kind):
        sched = build_schedule("linear", 9, 1e-3, 0.2)
        args = (aliasing_denoiser(kind), 7, sched, SamplerConfig(), RngStream(8))
        assert (sample_chains(*args, prior_init=UNIT_ENERGY.prior).tobytes()
                == reference_chains(*args, prior_init=UNIT_ENERGY.prior).tobytes())

    @pytest.mark.parametrize("mode", [None, "gate", "pin", "direction"])
    @pytest.mark.parametrize("method", ["ddpm_full", "ddpm_literal", "euler_ancestral"])
    def test_step_writes_into_the_given_buffers(self, method, mode):
        sched = build_schedule("linear", 6, 1e-3, 0.2)
        stream = RngStream(9)
        z, eps_hat, eps_recon, src = (stream.spawn(name).normal((2, 3, 4, 1))
                                      for name in ("z", "eps", "recon", "src"))
        xi, pin_xi = (stream.spawn(name).normal((3, 4, 1)) for name in ("xi", "pin"))
        md = random_mask(3, 4, 9).data[:, :, None] if mode else None
        cfg = SamplerConfig(method=method, mask_mode=mode or "pin")
        args = (z, 4, eps_hat, xi, sched, cfg, md, src, pin_xi, eps_recon)
        bufs = _buffers(z, md, cfg)
        got = _step(*args, bufs)
        assert got is bufs[0]
        assert got.tobytes() == _step(*args).tobytes() == scalar_step(*args).tobytes()

    def test_successive_results_share_no_memory(self, sched50):
        z_src = LatentGrid(RngStream(10).normal((3, 3, 1)))
        denoiser = edit_denoiser(EditInstruction(id="e", bias=0.2, target_scale=0.1), z_src,
                                 sched50)
        first = _sample(denoiser, (3, 3, 1), sched50, SamplerConfig(), RngStream(11))
        second = _sample(denoiser, (3, 3, 1), sched50, SamplerConfig(), RngStream(11))
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)


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
    @pytest.mark.parametrize("shape, kwargs, message", [
        ((0, 2, 1), {}, r"^grid dimensions must be positive, got 0x2x1$"),
        ((2, 2, 1), {"mask": Mask.ones(3, 2)}, r"^mask 3x2 does not match latent 2x2$"),
        ((2, 2, 1), {"z_init": LatentGrid.constant(0.0, 2, 2, 2)},
         r"^dimension mismatch: z_init is \(2, 2, 2\), latent is \(2, 2, 1\)$"),
    ], ids=["empty-shape", "mask-size", "z-init-shape"])
    def test_rejects_mismatched_inputs(self, sched50, shape, kwargs, message):
        with pytest.raises(ValueError, match=message):
            sample(lambda z, t: np.zeros_like(z), shape, sched50, SamplerConfig(), RngStream(0),
                   **kwargs)

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
    # 3-row inline noise blocks, so each stream has inner blocks: gate and
    # direction read all of the step noise
    @example(h=40, w=40, c=3, T=10, seed=6, method="ddpm_full", mode="gate",
             add_final_noise=False, with_init=False)
    @example(h=40, w=40, c=3, T=10, seed=7, method="euler_ancestral", mode="direction",
             add_final_noise=False, with_init=True)
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

    @pytest.mark.parametrize("add_final_noise", [False, True])
    @pytest.mark.parametrize("shape, betas, method, denoiser, z_init", [
        # 2-row pooled blocks, then 3-row inline ones; the denoiser reads every value of z
        ((64, 64, 3), np.linspace(1e-3, 0.2, 6), "ddpm_full", "mean", None),
        ((40, 40, 3), np.linspace(1e-3, 0.2, 10), "ddpm_full", "mean", None),
        # a zero noise coefficient at some t >= 2 of an inner block: sqrt(1 - abar_{t-1})
        # with abar_1 = 1 or rounding to 1, or sigma_t with a -0.0 start; a zero
        # prediction passes the sign of a zero on to the next step
        ((40, 40, 3), [0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.2, 0.1], "ddpm_literal", "zero", None),
        ((64, 64, 3), [1e-17, 1e-17, 0.1, 0.2, 0.3, 0.2, 0.1, 0.1], "ddpm_literal", "zero", None),
        ((64, 64, 3), [0.1] + [0.0] * 4, "ddpm_literal", "zero", -0.0),
    ], ids=["pooled", "inline", "zero-betas", "abar-rounds-to-1", "zero-sigma"])
    def test_pinned_sample_equals_reference_byte_for_byte(self, shape, betas, method, denoiser,
                                                          z_init, add_final_noise):
        # from a source of -0.0, an output zero outside the mask takes its sign
        # from the step's output there: tobytes() tells -0.0 from 0.0, which
        # array_equal does not
        sched = NoiseSchedule(np.asarray(betas, dtype=float))
        cfg = SamplerConfig(method=method, add_final_noise=add_final_noise)
        predict = {"mean": lambda z, t: np.full_like(z, 1e-3 * z.mean()),
                   "zero": lambda z, t: np.zeros_like(z)}[denoiser]
        args = (predict, shape, sched, cfg)
        kwargs = dict(mask=random_mask(*shape[:2], 6), z_src=LatentGrid(np.full(shape, -0.0)),
                      z_init=None if z_init is None else LatentGrid(np.full(shape, z_init)))
        got = sample(*args, RngStream(6), **kwargs)
        assert got.data.tobytes() == reference_sample(*args, RngStream(6), **kwargs).data.tobytes()

    def test_pinned_sample_matches_digest(self):
        if not recorded_platform():
            pytest.skip("the digest was recorded on another CPU or numpy build")
        shape, sched = (64, 64, 3), build_schedule("linear", 6, 1e-3, 0.2)
        z_src = LatentGrid(RngStream(12).spawn("src").normal(shape))
        edit = EditInstruction(id="e", gain=1.1, bias=0.3, target_scale=0.2)
        out = sample(edit_denoiser(edit, z_src, sched), shape, sched, SamplerConfig(),
                     RngStream(12), mask=random_mask(64, 64, 12), z_src=z_src)
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == GOLDEN_PINNED

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
    @example(n=_CHAIN_BLOCK + 3, seed=11, T=3, k=2, method="ddpm_full")
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

    def test_pooled_chains_equal_reference_and_leave_no_thread(self, monkeypatch):
        # an odd T gives an odd draw count: each chain's last uniform is drawn, not used
        monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)  # pooled even on one CPU
        sched = build_schedule("linear", 5, 1e-3, 0.2)
        prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        args = (gmm_chain_denoiser(prior, sched), _POOL_MIN_VALUES + 1, sched, SamplerConfig(),
                RngStream(6))
        box_muller, threads = grid._box_muller, []
        monkeypatch.setattr("latentedit.sampler._box_muller", lambda *a: threads.append(
            threading.get_ident()) or box_muller(*a))
        before = threading.active_count()
        got = sample_chains(*args, prior_init=prior)
        assert threading.active_count() == before
        assert threads and threading.get_ident() not in threads
        assert got.tobytes() == reference_chains(*args, prior_init=prior).tobytes()

        class Boom(Exception):
            pass

        def second_call_fails(u, n):
            threads.append(threading.get_ident())
            if len(threads) == 2:
                raise Boom("second block")
            return box_muller(u, n)

        threads.clear()
        monkeypatch.setattr("latentedit.sampler._box_muller", second_call_fails)
        with pytest.raises(Boom, match="second block"):
            sample_chains(*args, prior_init=prior)
        assert threading.get_ident() not in threads
        assert threading.active_count() == before

    def test_pooled_chains_submit_each_block_as_soon_as_it_is_drawn(self, monkeypatch):
        # each block's Box-Muller goes to the pool before the next block's keys are spawned
        spawned, submitted = [], []
        spawn = RngStream.spawn
        monkeypatch.setattr(RngStream, "spawn",
                            lambda self, *path: spawned.append(path) or spawn(self, *path))
        pool_for = grid._noise_pool

        @contextlib.contextmanager
        def recording_pool(n):
            with pool_for(n) as pool:
                def submit(*task):
                    submitted.append(len(spawned))
                    return pool.submit(*task)

                yield SimpleNamespace(submit=submit)

        monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)  # pooled even on one CPU
        monkeypatch.setattr("latentedit.sampler._noise_pool", recording_pool)
        sched = build_schedule("linear", 4, 1e-3, 0.2)
        prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
        n = _POOL_MIN_VALUES + 5
        args = (gmm_chain_denoiser(prior, sched), n, sched, SamplerConfig(), RngStream(9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the caller and both workers share the table, interleaved
        try:
            got = sample_chains(*args, prior_init=prior)
        finally:
            sys.setswitchinterval(interval)
        assert submitted == [min(n, hi) for hi in range(_CHAIN_BLOCK, n + _CHAIN_BLOCK,
                                                        _CHAIN_BLOCK)]
        assert got.tobytes() == reference_chains(*args, prior_init=prior).tobytes()

    def test_chains_build_no_generator_per_chain(self, sched50, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        prior = GMMPrior.scalar([1.0], [0.0], [1.0])
        for n in (64, 600):  # one Philox per call, re-keyed per chain
            built.clear()
            sample_chains(gmm_chain_denoiser(prior, sched50), n, sched50, SamplerConfig(),
                          RngStream(2), prior_init=prior)
            assert len(built) == 1, n

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

        def second_call_fails(u, n, *use):
            calls.append(n)
            if len(calls) == 2:
                raise Boom("second block")
            return box_muller(u, n, *use)

        monkeypatch.setattr(grid, "_box_muller", second_call_fails)
        sched = build_schedule("linear", 6, 1e-3, 0.2)
        before = threading.active_count()
        with pytest.raises(Boom, match="second block"):
            sample(lambda z, t: np.zeros_like(z), POOLED_SHAPE, sched, SamplerConfig(),
                   RngStream(0))
        assert threading.active_count() == before
        # langevin_chains draws through the same pool: 9 steps make at least 2 blocks
        assert _POOL_BLOCK // (_POOL_MIN_VALUES + 2) < 9
        calls.clear()
        with pytest.raises(Boom, match="second block"):
            langevin_chains(UNIT_ENERGY.grad_chain, LangevinConfig(step_size=0.1, steps=9),
                            np.zeros(_POOL_MIN_VALUES + 1), RngStream(0))
        assert len(calls) >= 2
        assert threading.active_count() == before

    def test_pooled_draws_run_every_stream_method_on_the_calling_thread(self, monkeypatch):
        # perfbench's tracer wraps these methods, and its spans are not thread-safe
        calls, workers = [], []

        def on_thread(owner, name):
            method = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(
                (name, threading.get_ident())) or method(*a, **kw))

        for owner, name in [(RngStream, "uniform"), (RngStream, "normal"),
                            (RngStream, "spawn"), (LatentGrid, "__post_init__")]:
            on_thread(owner, name)
        normal_block = grid._normal_block
        monkeypatch.setattr(grid, "_normal_block", lambda *task: workers.append(
            threading.get_ident()) or normal_block(*task))
        monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)  # pooled even on one CPU
        z_src = LatentGrid(np.zeros(POOLED_SHAPE))
        sample(lambda z, t: np.zeros_like(z), POOLED_SHAPE, build_schedule("linear", 6, 1e-3, 0.2),
               SamplerConfig(mask_mode="pin"), RngStream(0), mask=random_mask(128, 128, 0),
               z_src=z_src)
        langevin_chains(UNIT_ENERGY.grad_chain, LangevinConfig(step_size=0.1, steps=9),
                        np.zeros(_POOL_MIN_VALUES + 1), RngStream(0))
        chain_workers = []  # sample_chains' Box-Muller runs on the pool too
        box_muller = grid._box_muller
        monkeypatch.setattr("latentedit.sampler._box_muller", lambda *a: chain_workers.append(
            threading.get_ident()) or box_muller(*a))
        sched = build_schedule("linear", 5, 1e-3, 0.2)
        n, seen = _POOL_MIN_VALUES + 1, len(calls)
        sample_chains(gmm_chain_denoiser(UNIT_ENERGY.prior, sched), n, sched, SamplerConfig(),
                      RngStream(0), prior_init=UNIT_ENERGY.prior)
        assert [name for name, _ in calls[seen:]] == ["spawn"] * n  # one spawn a chain
        caller = threading.get_ident()
        assert {"spawn", "__post_init__"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {caller}

        def blocks(count, width):  # pooled blocks of count rows
            return -(-count // (_POOL_BLOCK // width))

        width = np.prod(POOLED_SHAPE)  # z_T + 6 steps, 6 pin steps, then 9 Langevin steps
        assert len(workers) == blocks(7, width) + blocks(6, width) + blocks(9, n + 1)
        assert len(chain_workers) == -(-n // _CHAIN_BLOCK)
        assert caller not in workers + chain_workers

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

    @pytest.mark.parametrize("n", [3, _POOL_MIN_VALUES + 1])  # inline, then pooled
    def test_equals_per_step_reference(self, n):
        energy = GMMEnergy(GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25]))
        cfg = LangevinConfig(step_size=0.05, noise_scale=np.linspace(0.3, 0.1, 9), steps=9)
        init = RngStream(83).normal((n,))
        rng, ref_rng = RngStream(84), RngStream(84)
        before = threading.active_count()
        threads = []

        def grad(z):
            threads.append(threading.active_count())
            return energy.grad_chain(z)

        z = langevin_chains(grad, cfg, init, rng)
        assert threading.active_count() == before
        pooled = n >= _POOL_MIN_VALUES and grid._usable_cpus() >= 2
        assert (max(threads) > before) == pooled  # the pool's workers live while it steps
        ref = init.copy()
        for i in range(cfg.steps):
            xi = ref_rng.normal((n,))
            ref = ref - 0.5 * cfg.step_size * energy.grad_chain(ref) + cfg.noise_at(i) * xi
        assert z.tobytes() == ref.tobytes()
        assert rng.position == ref_rng.position

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_state_returns_an_empty_array(self, shape):
        z = langevin_chains(UNIT_ENERGY.grad_chain, LangevinConfig(step_size=0.1, steps=3),
                            np.zeros(shape), RngStream(0))
        assert z.shape == shape and z.dtype == np.float64

    @pytest.mark.parametrize("n", [257, _POOL_MIN_VALUES + 1])  # inline, then pooled
    def test_gradient_that_is_its_input_equals_per_step_reference(self, n):
        # E(z) = z^2 / 2 again, but the gradient returned is the state array itself
        cfg = LangevinConfig(step_size=0.05, noise_scale=np.linspace(0.3, 0.1, 9), steps=9)
        init = RngStream(85).normal((n,))
        z = langevin_chains(lambda state: state, cfg, init, RngStream(86))
        ref, ref_rng = init.copy(), RngStream(86)
        for i in range(cfg.steps):
            ref = ref - 0.5 * cfg.step_size * ref + cfg.noise_at(i) * ref_rng.normal((n,))
        assert z.tobytes() == ref.tobytes()
        assert init.tobytes() == RngStream(85).normal((n,)).tobytes()  # init is not written

    def test_pooled_divergence_reports_the_step_and_leaves_no_thread(self):
        cfg = LangevinConfig(step_size=1e8, noise_scale=0.0, steps=500)
        with pytest.raises(DivergenceError) as inline:
            langevin_chains(UNIT_ENERGY.grad_chain, cfg, np.full(1, 2.0), RngStream(5))
        before = threading.active_count()
        with pytest.raises(DivergenceError) as pooled:  # at the cut: drawn through the pool
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

    def test_noise_scale_needs_one_entry_or_one_per_step(self):
        with pytest.raises(ValueError, match=r"^noise_scale needs 1 or 3 entries, got 2$"):
            LangevinConfig(step_size=0.1, noise_scale=[0.1, 0.2], steps=3)

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
