"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 6's final clause (the blur baseline landing strictly between the
latent and image strategies at the last step) is asserted exactly as
specified and is expected to FAIL: with this codec family an extra in-loop
blur pass is strictly additional contraction, so its distance from the
original exceeds the image-iteration path's for every parameterization that
was tried.  The full measurement log lives in the project notes.  All other
criteria pass.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from latentedit.bench import DEFAULT_EDIT_NOISE, drift_experiment, ebm_equivalence_experiment
from latentedit.codec import CodecConfig
from latentedit.denoiser import (
    GMMPrior,
    bayes_loss_estimate,
    gmm_chain_denoiser,
    gmm_denoiser,
)
from latentedit.fixtures import load_fixture
from latentedit.grid import LatentGrid, Mask, RngStream, write_grid
from latentedit.sampler import (
    LangevinConfig,
    SamplerConfig,
    forward_step,
    masked_reverse_step,
    noise_to,
    reverse_step,
    sample,
    sample_chains,
)
from latentedit.schedule import build_schedule
from latentedit.training import (
    PARAM_NAMES,
    TinyDenoiser,
    TrainConfig,
    heldout_loss,
    loss_and_grad,
    train,
)

ACCEPT_SCHED = build_schedule("linear", 200, 1e-4, 0.02)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_sampler_correctness():
    start = time.perf_counter()
    n = 20000
    prior = GMMPrior(np.array([1.0]), (LatentGrid.constant(3.0, n, 1, 1),), np.array([1.0]))
    rng = RngStream(101)
    z0 = prior.sample(rng.spawn("z0"))
    z_init = noise_to(z0, ACCEPT_SCHED.T, LatentGrid(rng.spawn("g").normal((n, 1, 1))),
                      ACCEPT_SCHED)
    out = sample(gmm_denoiser(prior, ACCEPT_SCHED), (n, 1, 1), ACCEPT_SCHED,
                 SamplerConfig(method="ddpm_full"), rng.spawn("run"), z_init=z_init)
    elapsed = time.perf_counter() - start
    mean_err = abs(float(out.data.mean()) - 3.0)
    var_err = abs(float(out.data.var()) - 1.0)
    ok = mean_err < 0.05 and var_err < 0.05 and elapsed < 60.0
    report(1, "sampler-correctness", ok,
           f"|mean-3|={mean_err:.4f} |var-1|={var_err:.4f} runtime={elapsed:.1f}s")
    assert mean_err < 0.05
    assert var_err < 0.05
    assert elapsed < 60.0


def test_criterion_2_bimodal_recovery():
    n = 20000
    prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
    z = sample_chains(gmm_chain_denoiser(prior, ACCEPT_SCHED), n, ACCEPT_SCHED,
                      SamplerConfig(), RngStream(103), prior_init=prior)
    occupancy = float((z > 0).mean())
    occ_err = abs(occupancy - 0.5)
    saddle_frac = float((np.abs(z) < 0.5).mean())
    ok = occ_err <= 0.03 and saddle_frac <= 0.02
    report(2, "bimodal-recovery", ok,
           f"occupancy={occupancy:.4f} saddle_fraction={saddle_frac:.5f}")
    assert occ_err <= 0.03
    assert saddle_frac <= 0.02


def test_criterion_3_ebm_equivalence():
    start = time.perf_counter()
    lang_cfg = LangevinConfig(step_size=0.05, steps=2000)
    gaps = []
    for label, prior in (
        ("single_gaussian", GMMPrior.scalar([1.0], [3.0], [1.0])),
        ("bimodal", GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])),
    ):
        rep = ebm_equivalence_experiment(prior, ACCEPT_SCHED, lang_cfg, 10000,
                                         seed=107, label=label)
        row = rep.rows[0]
        gaps.append((label, row[6], row[7]))
    elapsed = time.perf_counter() - start
    ok = all(m <= 0.1 and v <= 0.10 for _, m, v in gaps) and elapsed < 120.0
    detail = " ".join(f"{l}:|dmean|={m:.4f},|dvar|/var={v:.4f}" for l, m, v in gaps)
    report(3, "ebm-equivalence", ok, f"{detail} runtime={elapsed:.1f}s")
    for label, mean_gap, var_gap in gaps:
        assert mean_gap <= 0.1, label
        assert var_gap <= 0.10, label
    assert elapsed < 120.0


def test_criterion_4_gradient_fidelity():
    sched = build_schedule("linear", 30, 1e-3, 0.06)
    worst = 0.0
    step = 1e-5
    for d in (1, 4, 16):
        for point in range(10):
            model = TinyDenoiser.init(d=d, T=30, hidden=64, embed_dim=8,
                                      seed=1000 * d + point)
            stream = RngStream(500 + 10 * d + point)
            z0 = stream.normal((4, d))
            t = np.minimum((stream.uniform((4,)) * 30).astype(np.int64) + 1, 30)
            eps = stream.normal((4, d))
            _, grads = loss_and_grad(model, (z0, t, eps), sched)
            for name in PARAM_NAMES:
                flat = getattr(model, name).reshape(-1)
                analytic = grads[name].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up, _ = loss_and_grad(model, (z0, t, eps), sched)
                    flat[idx] = orig - step
                    down, _ = loss_and_grad(model, (z0, t, eps), sched)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    rel = abs(analytic[idx] - numeric) / max(abs(numeric), 1e-8)
                    worst = max(worst, rel)
    ok = worst < 1e-4
    report(4, "gradient-fidelity", ok, f"max relative error {worst:.2e} over d in {{1,4,16}}")
    assert worst < 1e-4


def test_criterion_5_training_floor():
    start = time.perf_counter()
    sched = build_schedule("linear", 50, 1e-3, 0.08)
    prior = GMMPrior.scalar([0.5, 0.5], [-2.0, 2.0], [0.25, 0.25])
    floor = bayes_loss_estimate(prior, sched, 100000, RngStream(900))
    model = TinyDenoiser.init(d=1, T=50, hidden=64, embed_dim=8, seed=1)
    cfg = TrainConfig(learning_rate=0.004, batch_size=128, steps=20000,
                      seed=1, optimizer="adam")
    trained, _ = train(model, prior, sched, cfg)
    heldout = heldout_loss(trained, prior, sched, 50000, RngStream(901))
    elapsed = time.perf_counter() - start
    ratio = heldout / floor
    ok = heldout <= 1.15 * floor and elapsed < 120.0
    report(5, "training-floor", ok,
           f"heldout={heldout:.5f} floor={floor:.5f} ratio={ratio:.3f} runtime={elapsed:.1f}s")
    assert heldout <= 1.15 * floor
    assert elapsed < 120.0


def test_criterion_6_drift_reproduction():
    start = time.perf_counter()
    strategies = ("latent_iteration", "image_iteration", "blur_baseline")
    rep = drift_experiment(
        load_fixture(), strategies, 16,
        sched=ACCEPT_SCHED, sampler_cfg=SamplerConfig(), codec_cfg=CodecConfig(),
        seed=5, edit_noise=DEFAULT_EDIT_NOISE,
    )
    elapsed = time.perf_counter() - start
    idx = rep.columns.index("rmse_vs_origin")
    by = {}
    for row in rep.rows:
        by.setdefault(row[0], []).append(row[idx])
    lat, img, blr = by["latent_iteration"], by["image_iteration"], by["blur_baseline"]

    claims = {name: ok for name, ok, _ in rep.claims()}
    mono = claims["image-iteration-rmse-non-decreasing"]
    ordered = claims["latent-below-image-from-step-2"]
    between = lat[15] < blr[15] < img[15]
    ok = mono and ordered and between and elapsed < 60.0
    report(6, "drift-reproduction", ok,
           f"image-mono={mono} latent<=image={ordered} "
           f"blur-between={between} finals l/b/i="
           f"{lat[15]:.3f}/{blr[15]:.3f}/{img[15]:.3f} runtime={elapsed:.1f}s")
    assert elapsed < 60.0
    assert mono, "image_iteration RMSE must be non-decreasing"
    assert ordered, "latent_iteration RMSE must not exceed image_iteration for e >= 2"
    assert between, (
        "blur_baseline final RMSE must lie strictly between latent_iteration "
        f"and image_iteration; measured latent={lat[15]:.4f} blur={blr[15]:.4f} "
        f"image={img[15]:.4f}. This clause is unattainable with the specified "
        "codec family: one extra binomial blur inside the iteration loop is "
        "strictly additional contraction, so the blurred path always ends "
        "farther from the original (verified across unsharp gains 0.15-0.95, "
        "quantization levels 6-32, and a dozen fixture designs; see the "
        "project decision notes for the measurement log)."
    )


def test_criterion_7_masking_guarantees():
    stream = RngStream(21)
    z = LatentGrid(stream.normal((6, 6, 1)))
    eps = LatentGrid(stream.normal((6, 6, 1)))
    src = LatentGrid(stream.normal((6, 6, 1)))
    ones = Mask.ones(6, 6)

    bit_identical = True
    for mode in ("gate", "pin", "direction"):
        cfg = SamplerConfig(mask_mode=mode)
        masked = masked_reverse_step(z, 50, eps, ones, src, ACCEPT_SCHED, cfg,
                                     RngStream(99), pin_rng=RngStream(98), eps_recon=eps)
        plain = reverse_step(z, 50, eps, ACCEPT_SCHED, cfg, RngStream(99))
        bit_identical &= bool(np.array_equal(masked.data, plain.data))

    # pin: full sampling run leaves the frozen region bit-equal to the source
    from latentedit.denoiser import EditInstruction, edit_denoiser

    mask_data = np.zeros((6, 6))
    mask_data[:3] = 1.0
    mask = Mask(mask_data)
    edit = EditInstruction(id="e", gain=1.0, bias=1.0, target_scale=0.05)
    out = sample(edit_denoiser(edit, src, ACCEPT_SCHED), src.shape, ACCEPT_SCHED,
                 SamplerConfig(mask_mode="pin"), RngStream(43), mask=mask, z_src=src)
    frozen = np.broadcast_to(mask.data[:, :, None] == 0.0, out.shape)
    pin_exact = bool(np.array_equal(out.data[frozen], src.data[frozen]))

    # gate with an all-zero mask and the literal step: z + sigma * xi
    t = 50
    sigma = ACCEPT_SCHED.sigma[t - 1]
    probe = RngStream(99)
    xi = probe.normal(z.shape)
    cfg = SamplerConfig(method="ddpm_literal", mask_mode="gate")
    literal = masked_reverse_step(z, t, eps, Mask.zeros(6, 6), src, ACCEPT_SCHED,
                                  cfg, RngStream(99))
    literal_exact = bool(np.array_equal(literal.data, z.data + sigma * xi))

    ok = bit_identical and pin_exact and literal_exact
    report(7, "masking-guarantees", ok,
           f"ones-bit-identical={bit_identical} pin-frozen-exact={pin_exact} "
           f"gate-zero-mask-exact={literal_exact}")
    assert bit_identical
    assert pin_exact
    assert literal_exact


def test_criterion_8_forward_consistency():
    n = 50000
    sched = build_schedule("linear", 10, 0.02, 0.15)
    z = LatentGrid.constant(1.7, n, 1, 1)
    rng = RngStream(33)
    for t in range(1, sched.T + 1):
        z = forward_step(z, t, sched, rng)
    abar = float(sched.alpha_bar[-1])
    expect_mean = np.sqrt(abar) * 1.7
    expect_var = 1.0 - abar
    mean_rel = abs(float(z.data.mean()) - expect_mean) / expect_mean
    var_rel = abs(float(z.data.var()) - expect_var) / expect_var
    ok = mean_rel < 0.01 and var_rel < 0.01
    report(8, "forward-consistency", ok,
           f"mean rel err={mean_rel:.4f} var rel err={var_rel:.4f} at n={n}")
    assert mean_rel < 0.01
    assert var_rel < 0.01


def test_criterion_9_determinism(tmp_path):
    write_grid(load_fixture(), str(tmp_path / "input.grid"))
    config = {
        "seed": 11,
        "schedule": {"kind": "linear", "T": 120, "beta_start": 1e-4, "beta_end": 0.02},
        "session": {
            "input": "input.grid",
            "strategy": "latent_iteration",
            "edits": [
                {"id": "warm", "bias": 0.3, "scale": 0.05},
                {"id": "cool", "bias": -0.2, "scale": 0.05},
            ],
        },
        "bench": {"drift": {"steps": 4}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(command: str, out_name: str, threads: str) -> dict[str, bytes]:
        out_dir = tmp_path / out_name
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "latentedit.cli", command, str(config_path),
             "--out", str(out_dir)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
        }

    session_runs = [
        run("run-session", "s1", "1"),
        run("run-session", "s2", "1"),
        run("run-session", "s8", "8"),
    ]
    drift_runs = [
        run("bench-drift", "d1", "1"),
        run("bench-drift", "d8", "8"),
    ]
    session_same = session_runs[0] == session_runs[1] == session_runs[2]
    drift_same = drift_runs[0] == drift_runs[1]
    ok = session_same and drift_same
    report(9, "determinism", ok,
           f"session runs byte-identical={session_same} (2 reruns + 8-thread env), "
           f"drift bench byte-identical={drift_same}")
    assert session_same
    assert drift_same
