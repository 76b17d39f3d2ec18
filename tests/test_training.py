"""The tiny trainable noise predictor: forward pass, analytic gradients
against finite differences, optimization, and serialization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentedit import grid
from latentedit.denoiser import GMMPrior, bayes_loss_estimate, gmm_eps
from latentedit.grid import LatentGrid, RngStream
from latentedit.sampler import DivergenceError, SamplerConfig, sample_chains
from latentedit.schedule import build_schedule
from latentedit.training import (
    PARAM_NAMES,
    TinyDenoiser,
    TrainConfig,
    forward,
    heldout_loss,
    loss_and_grad,
    save_model,
    train,
)

GOLDEN_FORWARD = [
    0.7746242913790027,
    0.2549782640156503,
    -0.2928838912565952,
    0.10495041207434891,
]


# save_model's file for TinyDenoiser.init(d=1, T=3, hidden=2, embed_dim=2, seed=7).
GOLDEN_MODEL_FILE = """\
PARAM W1
GRID 2 3 1
-0.40979389535581157 0.005409050837461697 -0.5397317113084499
0.22233452564512068 0.35298899483087004 -0.8010213053161698
PARAM b1
GRID 1 2 1
0.0 0.0
PARAM W2
GRID 1 2 1
0.35583978881825845 0.8966870220562198
PARAM b2
GRID 1 1 1
0.0
PARAM time_embed
GRID 3 2 1
0.8414709848078965 0.5403023058681398
0.9092974268256817 -0.4161468365471424
0.1411200080598672 -0.9899924966004454
"""


def ref_sample_batch(prior, sched, n, rng):
    """One training batch drawn call by call, in the order the block draws
    of ``denoiser._diffusion_batches`` must reproduce."""
    cdf = np.cumsum(prior.weights)
    comp = np.minimum(np.searchsorted(cdf, rng.uniform((n,)), side="right"), prior.k - 1)
    g = rng.normal((n, prior.dim))
    z0 = prior.mean_matrix[comp] + prior.scales[comp, None] * g
    t = np.minimum((rng.uniform((n,)) * sched.T).astype(np.int64) + 1, sched.T)
    eps = rng.normal((n, prior.dim))
    return z0, t, eps


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def ref_train(model, prior, sched, cfg):
    """``train`` as a per-step draw and a per-parameter SGD/Adam loop: the
    reference the block-drawn, flat-vector optimiser equals bit for bit."""
    model = TinyDenoiser(*(getattr(model, name).copy() for name in (*PARAM_NAMES, "time_embed")))
    rng = RngStream(cfg.seed).spawn("train")
    trace = np.empty(cfg.steps)
    moments1 = {k: np.zeros_like(v) for k, v in model.params().items()}
    moments2 = {k: np.zeros_like(v) for k, v in model.params().items()}
    for step in range(cfg.steps):
        batch = ref_sample_batch(prior, sched, cfg.batch_size, rng)
        loss, grads = loss_and_grad(model, batch, sched)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at step {step + 1}")
        trace[step] = loss
        if cfg.optimizer == "sgd":
            for name, g in grads.items():
                getattr(model, name)[...] -= cfg.learning_rate * g
        else:
            k = step + 1
            for name, g in grads.items():
                m = moments1[name] = ADAM_BETA1 * moments1[name] + (1 - ADAM_BETA1) * g
                v = moments2[name] = ADAM_BETA2 * moments2[name] + (1 - ADAM_BETA2) * g**2
                m_hat = m / (1 - ADAM_BETA1**k)
                v_hat = v / (1 - ADAM_BETA2**k)
                getattr(model, name)[...] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model, trace


def ref_bayes_loss(prior, sched, n, rng):
    """``bayes_loss_estimate`` on a batch drawn by ``ref_sample_batch``."""
    z0, t_draw, eps = ref_sample_batch(prior, sched, n, rng)
    abar = sched.alpha_bar[t_draw - 1][:, None]
    z_t = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
    total = 0.0
    for t in np.unique(t_draw):
        idx = t_draw == t
        pred = gmm_eps(z_t[idx], int(t), prior, sched)
        total += float(((eps[idx] - pred) ** 2).sum())
    return total / (n * prior.dim)


SCHED20 = build_schedule("linear", 20, 1e-3, 0.08)
SCHED5 = build_schedule("linear", 5)  # a schedule of another T than zero_model's 10


def mixture(d, seed=0):
    """Three components over (d, 1, 1) grids with distinct, random means."""
    rng = RngStream(seed)
    means = tuple(LatentGrid(rng.normal((d, 1, 1))) for _ in range(3))
    return GMMPrior(np.array([0.2, 0.3, 0.5]), means, np.array([0.3, 0.0, 1.2]))


def batch_width(n, d):
    """Uniforms one training batch of n draws of a dim-d prior takes."""
    return 2 * (n + 2 * ((n * d + 1) // 2))


def assert_same_training(model, prior, cfg):
    got, trace = train(model, prior, SCHED20, cfg)
    want, want_trace = ref_train(model, prior, SCHED20, cfg)
    assert trace.tobytes() == want_trace.tobytes()
    for name in PARAM_NAMES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def grid_forward(model, z: LatentGrid, t: int) -> LatentGrid:
    """The model's prediction at one grid, through ``forward``'s checks."""
    return LatentGrid(forward(model, z.data.reshape(1, -1), np.array([t])).reshape(z.shape))


TINY_CFG = TrainConfig(learning_rate=0.1, batch_size=2, steps=1, optimizer="sgd")


def zero_model(d=2, T=10, hidden=4, embed=4):
    model = TinyDenoiser.init(d=d, T=T, hidden=hidden, embed_dim=embed, seed=0)
    for name in PARAM_NAMES:
        getattr(model, name)[...] = 0.0
    return model


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        model = zero_model()
        z = LatentGrid(np.reshape([1.0, -2.0], (2, 1, 1)))
        assert np.array_equal(grid_forward(model, z, 3).data, np.zeros((2, 1, 1)))

    def test_output_bias_passthrough(self):
        model = zero_model()
        model.b2[...] = 1.5
        z = LatentGrid(np.reshape([1.0, -2.0], (2, 1, 1)))
        np.testing.assert_array_equal(grid_forward(model, z, 3).flat(), [1.5, 1.5])

    def test_seeded_model_golden_values(self):
        # frozen from the first run of this configuration
        model = TinyDenoiser.init(d=4, T=20, hidden=8, embed_dim=8, seed=42)
        z = LatentGrid(np.reshape([0.25, -0.5, 1.0, 2.0], (2, 2, 1)))
        np.testing.assert_allclose(grid_forward(model, z, 7).flat(), GOLDEN_FORWARD, rtol=1e-15)

    def test_dim_and_timestep_validation(self):
        model = zero_model(d=2, T=10)
        with pytest.raises(ValueError, match="model expects 2"):
            grid_forward(model, LatentGrid.constant(0.0, 3, 1, 1), 1)
        with pytest.raises(ValueError, match="out of range"):
            grid_forward(model, LatentGrid.constant(0.0, 2, 1, 1), 11)
        with pytest.raises(ValueError, match=r"^latent has shape \(2,\), model expects 2 values"):
            forward(model, np.zeros(2), np.array([1]))

    @pytest.mark.parametrize("t", [0, 11, -3])
    def test_timestep_outside_the_schedule_is_rejected(self, t):
        # t = 0 or -3 would read an embedding row from the end, t = T + 1 past
        # the table; the message names the first bad timestep.  The training
        # loss checks t before its closed-form jump reads a schedule row.
        model, zeros, ts = zero_model(d=2, T=10), np.zeros((3, 2)), np.array([4, t, 12])
        message = rf"^timestep {t} out of range \[1, 10\]$"
        with pytest.raises(ValueError, match=message):
            forward(model, zeros, ts)
        with pytest.raises(ValueError, match=message):
            loss_and_grad(model, (zeros, ts, zeros), build_schedule("linear", 10))

    def test_init_rejects_oversized_latents(self):
        with pytest.raises(ValueError, match=r"\[1, 64\]"):
            TinyDenoiser.init(d=65, T=10)


class TestLossAndGrad:
    def test_perfect_prediction_gives_zero_loss_and_grads(self, sched50):
        model = zero_model(d=2, T=50)
        z0 = np.zeros((4, 2))
        t = np.array([1, 10, 20, 50])
        eps = np.zeros((4, 2))
        loss, grads = loss_and_grad(model, (z0, t, eps), sched50)
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_single_unit_network_hand_derivation(self):
        # d=1, H=1, E=1: pred = w2 * tanh(w1z * z_t + w1e * e + b1) + b2
        sched = build_schedule("linear", 1, 0.36, 0.36)  # alpha_bar = 0.64
        model = TinyDenoiser.init(d=1, T=1, hidden=1, embed_dim=1, seed=0)
        w1z, w1e, b1, w2, b2 = 0.5, -0.3, 0.2, 1.25, -0.4
        model.W1[...] = [[w1z, w1e]]
        model.b1[...] = [b1]
        model.W2[...] = [[w2]]
        model.b2[...] = [b2]
        z0, eps = 1.5, -0.7
        z_t = np.sqrt(0.64) * z0 + np.sqrt(0.36) * eps
        embed = model.time_embed[0, 0]
        pre = w1z * z_t + w1e * embed + b1
        h = np.tanh(pre)
        pred = w2 * h + b2
        resid = pred - eps
        loss, grads = loss_and_grad(
            model, (np.array([[z0]]), np.array([1]), np.array([[eps]])), sched,
        )
        np.testing.assert_allclose(loss, resid**2, rtol=1e-12)
        np.testing.assert_allclose(grads["b2"][0], 2 * resid, rtol=1e-12)
        np.testing.assert_allclose(grads["W2"][0, 0], 2 * resid * h, rtol=1e-12)
        d_pre = 2 * resid * w2 * (1 - h**2)
        np.testing.assert_allclose(grads["b1"][0], d_pre, rtol=1e-12)
        np.testing.assert_allclose(grads["W1"][0, 0], d_pre * z_t, rtol=1e-12)
        np.testing.assert_allclose(grads["W1"][0, 1], d_pre * embed, rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_gradients_match_finite_differences(self, d):
        # acceptance criterion 4 runs the full 10-point sweep; one point here
        sched = build_schedule("linear", 30, 1e-3, 0.06)
        model = TinyDenoiser.init(d=d, T=30, hidden=64, embed_dim=8, seed=d)
        stream = RngStream(100 + d)
        z0 = stream.normal((8, d))
        t = np.minimum((stream.uniform((8,)) * 30).astype(np.int64) + 1, 30)
        eps = stream.normal((8, d))
        _, grads = loss_and_grad(model, (z0, t, eps), sched)
        step = 1e-5
        for name in PARAM_NAMES:
            flat = getattr(model, name).reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                orig = flat[idx]
                flat[idx] = orig + step
                up, _ = loss_and_grad(model, (z0, t, eps), sched)
                flat[idx] = orig - step
                down, _ = loss_and_grad(model, (z0, t, eps), sched)
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                analytic = grads[name].reshape(-1)[idx]
                assert abs(analytic - numeric) <= 1e-4 * max(abs(numeric), 1e-8), (
                    f"{name}[{idx}]: analytic {analytic} vs numeric {numeric}"
                )

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["linear", "cosine"]), T=st.integers(1, 60),
           d=st.integers(1, 4), B=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_row_sqrt_recipe(self, kind, T, d, B, seed):
        # z_t reads the schedule's sqrt rows; taking sqrt of abar and 1 - abar
        # per row gives the same bits, since sqrt is correctly rounded
        sched = build_schedule(kind, T, **({"beta_start": 1e-4, "beta_end": 0.3}
                                           if kind == "linear" else {}))
        model = TinyDenoiser.init(d=d, T=T, hidden=5, embed_dim=3, seed=seed)
        stream = RngStream(seed)
        z0, eps = stream.normal((B, d)), stream.normal((B, d))
        t = np.minimum((stream.uniform((B,)) * T).astype(np.int64) + 1, T)
        abar = sched.alpha_bar[t - 1][:, None]
        x = np.concatenate([np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps,
                            model.time_embed[t - 1]], axis=1)
        hidden = np.tanh(x @ model.W1.T + model.b1)
        resid = hidden @ model.W2.T + model.b2 - eps
        d_pred = 2.0 * resid / (B * d)
        d_pre = d_pred @ model.W2 * (1.0 - hidden**2)
        want = {"W1": d_pre.T @ x, "b1": d_pre.sum(axis=0), "W2": d_pred.T @ hidden,
                "b2": d_pred.sum(axis=0)}
        loss, grads = loss_and_grad(model, (z0, t, eps), sched)
        assert loss == float(np.mean(resid**2))
        assert all(grads[k].tobytes() == want[k].tobytes() for k in PARAM_NAMES)

    def test_empty_batch_rejected(self, sched50):
        model = zero_model(d=1, T=50)
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_grad(model, (np.zeros((0, 1)), np.zeros(0, dtype=int), np.zeros((0, 1))), sched50)


class TestTrain:
    @pytest.fixture
    def prior(self):
        return GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])

    def test_zero_learning_rate_keeps_parameters(self, prior, sched50):
        model = TinyDenoiser.init(d=1, T=50, hidden=16, seed=2)
        before = {k: v.copy() for k, v in model.params().items()}
        cfg = TrainConfig(learning_rate=0.0, batch_size=256, steps=100, seed=2, optimizer="sgd")
        trained, trace = train(model, prior, sched50, cfg)
        assert all(np.array_equal(before[k], getattr(trained, k)) for k in PARAM_NAMES)
        # flat trace: batches are fresh draws, so only the trend must vanish
        # (a real training run drops by ~0.5 over this many steps)
        assert abs(trace[:50].mean() - trace[50:].mean()) < 0.1

    def test_same_seed_identical_traces(self, prior, sched50):
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, steps=60, seed=5, optimizer="sgd")
        model = TinyDenoiser.init(d=1, T=50, hidden=16, seed=2)
        _, trace_a = train(model, prior, sched50, cfg)
        _, trace_b = train(model, prior, sched50, cfg)
        assert np.array_equal(trace_a, trace_b)

    def test_training_does_not_mutate_input_model(self, prior, sched50):
        model = TinyDenoiser.init(d=1, T=50, hidden=16, seed=2)
        before = model.W1.copy()
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, steps=30, seed=5, optimizer="sgd")
        train(model, prior, sched50, cfg)
        assert np.array_equal(model.W1, before)

    def test_divergence_error_on_huge_rate(self, prior, sched50):
        model = TinyDenoiser.init(d=1, T=50, hidden=16, seed=2)
        cfg = TrainConfig(learning_rate=1e18, batch_size=8, steps=200, seed=5, optimizer="sgd")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train(model, prior, sched50, cfg)

    def test_overflow_in_the_last_update_raises(self):
        # the loss before the only step is finite; the update itself overflows W1
        prior = GMMPrior.scalar([0.5, 0.5], [-100.0, 100.0], [0.25, 0.25])
        model = TinyDenoiser.init(d=1, T=20, hidden=8, seed=0)
        cfg = TrainConfig(learning_rate=1e308, batch_size=16, steps=1, optimizer="sgd")
        with pytest.raises(DivergenceError, match="parameters became non-finite at step 1"):
            train(model, prior, SCHED20, cfg)

    def test_loss_descends_toward_bayes_floor(self, prior, sched50):
        # the full 1.15x-floor criterion is acceptance 5; quick sanity here
        model = TinyDenoiser.init(d=1, T=50, hidden=64, seed=1)
        cfg = TrainConfig(learning_rate=0.004, batch_size=64, steps=1500,
                          seed=1, optimizer="adam")
        trained, trace = train(model, prior, sched50, cfg)
        start = heldout_loss(model, prior, sched50, 20000, RngStream(7))
        end = heldout_loss(trained, prior, sched50, 20000, RngStream(7))
        assert end < start
        assert end < 0.55

    def test_trained_sampler_moments(self, prior, sched50):
        # trained model in the sampler slot: moments within the sampler
        # tolerances relaxed by 2x
        model = TinyDenoiser.init(d=1, T=50, hidden=64, seed=1)
        cfg = TrainConfig(learning_rate=0.004, batch_size=128, steps=4000,
                          seed=1, optimizer="adam")
        trained, _ = train(model, prior, sched50, cfg)

        def chains(z, t):
            return forward(trained, z[:, None], np.full(z.size, t))[:, 0]

        z = sample_chains(chains, 6000, sched50,
                          SamplerConfig(), RngStream(71), prior_init=prior)
        assert abs(z.mean() - 0.0) < 0.2
        assert abs(z.var() - 4.0625) / 4.0625 < 0.2

    @pytest.mark.parametrize("call, message", [
        (lambda s: TinyDenoiser.init(d=1, T=50, embed_dim=0), r"^embedding dim must be >= 1, got 0$"),
        (lambda s: TrainConfig(learning_rate=0.1, batch_size=1, steps=-1, optimizer="sgd"),
         r"^step count must be >= 0, got -1$"),
        (lambda s: loss_and_grad(zero_model(d=1, T=50), (np.zeros((2, 1)), np.ones(3, dtype=int),
                                                         np.zeros((2, 1))), s),
         r"^batch must be \(z0 \(B,d\), t \(B,\), eps \(B,d\)\)$"),
        (lambda s: train(zero_model(d=2, T=50), GMMPrior.scalar([1.0], [0.0], [1.0]), s, TINY_CFG),
         r"^prior dim 1 does not match model dim 2$"),
        (lambda s: train(zero_model(d=1, T=10), GMMPrior.scalar([1.0], [0.0], [1.0]), s, TINY_CFG),
         r"^schedule T=50 does not match model T=10$"),
        # a T=5 schedule has no row for t = 8, and at t <= 5 the loss would pair
        # the model's embedding with another schedule's noise level
        (lambda s: loss_and_grad(zero_model(d=1, T=10), (np.zeros((1, 1)), np.array([8]),
                                                         np.zeros((1, 1))), SCHED5),
         r"^schedule T=5 does not match model T=10$"),
        (lambda s: heldout_loss(zero_model(d=1, T=10), GMMPrior.scalar([1.0], [0.0], [1.0]),
                                SCHED5, 16, RngStream(0)),
         r"^schedule T=5 does not match model T=10$"),
    ], ids=["embed-dim", "negative-steps", "batch-shape", "prior-dim", "schedule-T",
            "loss-schedule-T", "heldout-schedule-T"])
    def test_rejects_inconsistent_inputs(self, sched50, call, message):
        with pytest.raises(ValueError, match=message):
            call(sched50)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch size"):
            TrainConfig(learning_rate=0.1, batch_size=0, steps=1, optimizer="sgd")
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(learning_rate=0.1, batch_size=1, steps=1, optimizer="lbfgs")

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -0.1), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_config_rejects_bad_field(self, field, value):
        kwargs = {"learning_rate": 0.1, "batch_size": 1, "steps": 1, "optimizer": "sgd",
                  field: value}
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)


class TestBlockDrawsAndFlatOptimiser:
    """``train`` draws a block of steps' batches at a time and steps the
    optimiser on one flat vector; both must equal the per-step reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        optimizer=st.sampled_from(["sgd", "adam"]),
        d=st.sampled_from([1, 2, 3]),
        batch=st.one_of(st.just(1), st.integers(1, 40).map(lambda i: 2 * i + 1), st.just(128)),
        rows=st.integers(1, 4),
        spare=st.integers(0, 10**6),
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_train_equals_reference(self, optimizer, d, batch, rows, spare, steps, seed):
        # a block of `rows` steps (plus spare uniforms short of one more
        # step), so most step counts cross a block boundary
        width = batch_width(batch, d)
        model = TinyDenoiser.init(d=d, T=20, hidden=8, embed_dim=4, seed=seed % 7)
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch, steps=steps, seed=seed,
                          optimizer=optimizer)
        with mock.patch.object(grid, "_NORMAL_BLOCK", rows * width + spare % width):
            assert_same_training(model, mixture(d, seed), cfg)

    @pytest.mark.parametrize("batch, d, wide", [(128, 1, False), (2100, 3, True)])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_train_equals_reference_at_the_real_block_size(self, batch, d, wide, optimizer):
        # a wide batch takes more uniforms than a block holds, so each block
        # holds one step; either way the run crosses two block boundaries
        assert (batch_width(batch, d) > grid._NORMAL_BLOCK) == wide
        rows = max(1, grid._NORMAL_BLOCK // batch_width(batch, d))
        model = TinyDenoiser.init(d=d, T=20, hidden=8, embed_dim=4, seed=d)
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch, steps=2 * rows + 1, seed=3,
                          optimizer=optimizer)
        assert_same_training(model, mixture(d), cfg)

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_heldout_and_bayes_follow_reference_draw_order(self, d, n, seed):
        prior = mixture(d, seed)
        model = TinyDenoiser.init(d=d, T=20, hidden=8, embed_dim=4, seed=1)
        rng, ref_rng = RngStream(seed), RngStream(seed)
        want, _ = loss_and_grad(model, ref_sample_batch(prior, SCHED20, n, ref_rng), SCHED20)
        assert heldout_loss(model, prior, SCHED20, n, rng) == want
        assert rng.position == ref_rng.position
        want = ref_bayes_loss(prior, SCHED20, n, ref_rng)
        assert bayes_loss_estimate(prior, SCHED20, n, rng) == want
        assert rng.position == ref_rng.position

    @pytest.mark.parametrize("optimizer, lr", [("sgd", 1e3), ("adam", 1e153)])
    def test_divergence_names_the_reference_step(self, optimizer, lr):
        # these rates diverge at steps 42 and 3, past the first 2-step block
        model = TinyDenoiser.init(d=2, T=20, hidden=8, embed_dim=4, seed=2)
        cfg = TrainConfig(learning_rate=lr, batch_size=8, steps=50, seed=5, optimizer=optimizer)
        with mock.patch.object(grid, "_NORMAL_BLOCK", 2 * batch_width(8, 2)):
            with pytest.raises(DivergenceError) as got:
                train(model, mixture(2), SCHED20, cfg)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as want:
            ref_train(model, mixture(2), SCHED20, cfg)
        assert str(got.value) == str(want.value)

    def test_input_model_is_not_mutated(self):
        model = TinyDenoiser.init(d=2, T=20, hidden=8, embed_dim=4, seed=2)
        before = {name: getattr(model, name).copy() for name in (*PARAM_NAMES, "time_embed")}
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, steps=40, seed=5, optimizer="adam")
        train(model, mixture(2), SCHED20, cfg)
        for name, value in before.items():
            assert getattr(model, name).tobytes() == value.tobytes(), name

    def test_results_are_independent_contiguous_arrays(self):
        model = TinyDenoiser.init(d=2, T=20, hidden=8, embed_dim=4, seed=2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, steps=5, seed=5, optimizer="adam")
        first, _ = train(model, mixture(2), SCHED20, cfg)
        second, _ = train(model, mixture(2), SCHED20, cfg)
        names = (*PARAM_NAMES, "time_embed")
        arrays = [getattr(m, name) for m in (model, first, second) for name in names]
        for i, a in enumerate(arrays):
            assert all(not np.shares_memory(a, b) for b in arrays[i + 1:])
        for name in names:
            got = getattr(first, name)
            assert got.shape == getattr(model, name).shape
            assert got.flags.c_contiguous and got.flags.owndata, name


class TestSerialization:
    def test_file_is_byte_identical_to_golden(self, tmp_path):
        path = str(tmp_path / "model.params")
        save_model(TinyDenoiser.init(d=1, T=3, hidden=2, embed_dim=2, seed=7), path)
        with open(path, "rb") as fh:
            assert fh.read() == GOLDEN_MODEL_FILE.encode("ascii")
