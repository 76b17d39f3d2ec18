"""Fast self-checks over the numerical core: schedule recurrences, stream
reproducibility, score consistency against numerical gradients, exact
inversion identities, analytic-vs-finite-difference model gradients, sampler
and Langevin moments, codec lattice laws, and masking guarantees.

Each check returns (ok, detail).  ``run_checks`` collects results; a fault
name can be injected to force a specific check to see corrupted data, which
exercises the failure path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec as codec_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .denoiser import (
    EditInstruction,
    GMMEnergy,
    GMMPrior,
    edit_conditional_eps,
    gmm_chain_denoiser,
    gmm_eps,
)
from .grid import LatentGrid, Mask, RngStream, masked_combine
from .sampler import LangevinConfig, SamplerConfig
from .schedule import build_schedule


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_schedule_recurrence(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 500, 1e-4, 0.03)
    alpha_bar = sched.alpha_bar.copy()
    if fault:
        alpha_bar[250] *= 1.0 + 1e-6
    recur = np.concatenate([[sched.alpha[0]], alpha_bar[:-1] * sched.alpha[1:]])
    rel = np.abs(alpha_bar - recur) / np.abs(recur)
    worst = float(rel.max())
    return worst <= 1e-12, f"max relative recurrence error {worst:.2e}"


def _check_rng_reproducibility(fault: bool) -> tuple[bool, str]:
    a = LatentGrid(RngStream(1234).normal((8, 8, 2)))
    b = LatentGrid(RngStream(1234).normal((8, 8, 2)))
    if fault:
        b = LatentGrid(RngStream(1235).normal((8, 8, 2)))
    same = np.array_equal(a.data, b.data)
    return same, "re-seeded draw is bit-identical" if same else "draws differ"


def _check_score_consistency(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 40, 1e-3, 0.05)
    rng = RngStream(77)
    means = tuple(LatentGrid(rng.normal((2, 2, 1))) for _ in range(3))
    prior = GMMPrior(np.array([0.5, 0.3, 0.2]), means, np.array([0.7, 1.2, 0.4]))
    t = 17
    abar = sched.alpha_bar[t - 1]
    variances = abar * prior.scales**2 + (1.0 - abar)
    mean_mat = np.sqrt(abar) * prior.mean_matrix()

    def log_qt(flat: np.ndarray) -> float:
        diff = flat[None, :] - mean_mat
        comp = (
            np.log(prior.weights)
            - 0.5 * prior.dim * np.log(2 * np.pi * variances)
            - (diff**2).sum(axis=1) / (2 * variances)
        )
        peak = comp.max()
        return float(peak + np.log(np.exp(comp - peak).sum()))

    z = LatentGrid(rng.normal((2, 2, 1)))
    pred = gmm_eps(z.flat()[None, :], t, prior, sched)[0]
    if fault:
        pred = pred * (1.0 + 1e-3)
    step = 1e-4
    flat = z.flat()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += step
        down[i] -= step
        numeric[i] = (log_qt(up) - log_qt(down)) / (2 * step)
    expected = -np.sqrt(1.0 - abar) * numeric
    rel = float(np.max(np.abs(pred - expected) / np.maximum(np.abs(expected), 1e-9)))
    return rel < 1e-5, f"max relative score error {rel:.2e}"


def _check_exact_inversion(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 60, 1e-3, 0.04)
    rng = RngStream(5)
    z_src = LatentGrid(rng.normal((3, 3, 2)))
    g = LatentGrid(rng.normal((3, 3, 2)))
    edit = EditInstruction(id="id", gain=1.0, bias=0.0, target_scale=0.0)
    t = 33
    abar = sched.alpha_bar[t - 1]
    z_t = LatentGrid(np.sqrt(abar) * z_src.data + np.sqrt(1 - abar) * g.data)
    pred = edit_conditional_eps(z_t, t, edit, z_src, sched)
    err = float(np.abs(pred.data - g.data).max())
    if fault:
        err += 1.0
    return err < 1e-9, f"max inversion error {err:.2e}"


def _check_model_gradients(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 20, 1e-3, 0.05)
    model = training_mod.TinyDenoiser.init(d=4, T=20, hidden=8, seed=3)
    rng = RngStream(9)
    z0 = rng.normal((6, 4))
    t = np.minimum((rng.uniform((6,)) * 20).astype(np.int64) + 1, 20)
    eps = rng.normal((6, 4))
    _, grads = training_mod.loss_and_grad(model, (z0, t, eps), sched)
    if fault:
        grads["W2"] = grads["W2"] * 1.01
    step = 1e-5
    worst = 0.0
    for name in training_mod.PARAM_NAMES:
        param = getattr(model, name)
        flat = param.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            orig = flat[idx]
            flat[idx] = orig + step
            up, _ = training_mod.loss_and_grad(model, (z0, t, eps), sched)
            flat[idx] = orig - step
            down, _ = training_mod.loss_and_grad(model, (z0, t, eps), sched)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-8))
    return worst < 1e-4, f"max relative gradient error {worst:.2e}"


def _check_sampler_moments(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 100, 1e-4, 0.04)
    prior = GMMPrior.scalar([1.0], [2.0 if not fault else 2.5], [1.0])
    z = sampler_mod.sample_chains(
        gmm_chain_denoiser(prior, sched), 4000, sched, SamplerConfig(),
        RngStream(41), prior_init=prior,
    )
    mean_err = abs(float(z.mean()) - 2.0)
    var_err = abs(float(z.var()) - 1.0)
    return (
        mean_err < 0.08 and var_err < 0.08,
        f"|mean-2|={mean_err:.3f} |var-1|={var_err:.3f}",
    )


def _check_langevin_moments(fault: bool) -> tuple[bool, str]:
    cfg = LangevinConfig(step_size=0.05, steps=1500)
    energy = GMMEnergy(GMMPrior.scalar([1.0], [0.0], [1.0]))  # E(z) = z^2 / 2 + const
    init = RngStream(51).normal((4000,))
    z = sampler_mod.langevin_chains(energy.grad_chain, cfg, init, RngStream(52))
    if fault:
        z = z + 0.5
    mean_err = abs(float(z.mean()))
    var_err = abs(float(z.var()) - 1.0)
    return (
        mean_err < 0.08 and var_err < 0.12,
        f"|mean|={mean_err:.3f} |var-1|={var_err:.3f}",
    )


def _check_codec_lattice(fault: bool) -> tuple[bool, str]:
    cfg = codec_mod.CodecConfig()
    rng = RngStream(61)
    image = LatentGrid(3.0 * rng.normal((8, 8, 2)))
    latent = codec_mod.encode(image, cfg)
    cells = (latent.data + cfg.clamp) / cfg.cell - 0.5
    if fault:
        cells = cells + 0.3
    err = float(np.abs(cells - np.round(cells)).max())
    return err < 1e-9, f"max distance from lattice {err:.2e}"


def _check_masking_identity(fault: bool) -> tuple[bool, str]:
    sched = build_schedule("linear", 30, 1e-3, 0.05)
    rng = RngStream(71)
    z = LatentGrid(rng.normal((4, 4, 1)))
    eps_hat = LatentGrid(rng.normal((4, 4, 1)))
    src = LatentGrid(rng.normal((4, 4, 1)))
    ones = Mask.ones(4, 4)
    for mode in sampler_mod.MASK_MODES:
        cfg = SamplerConfig(mask_mode=mode)
        masked = sampler_mod.masked_reverse_step(
            z, 9, eps_hat, ones, src, sched, cfg, RngStream(72),
            pin_rng=RngStream(73), eps_recon=eps_hat,
        )
        plain = sampler_mod.reverse_step(z, 9, eps_hat, sched, cfg, RngStream(72))
        same = np.array_equal(masked.data, plain.data)
        if fault:
            same = not same
        if not same:
            return False, f"mode {mode}: all-ones mask changed the step"
    return True, "all-ones mask is bit-identical to the unmasked step"


def _check_masked_combine(fault: bool) -> tuple[bool, str]:
    rng = RngStream(81)
    a = LatentGrid(rng.normal((5, 4, 3)))
    m = Mask((rng.uniform((5, 4)) > 0.5).astype(float))
    out = masked_combine(a, a, m)
    same = np.array_equal(out.data, a.data)
    if fault:
        same = not same
    return same, "combine(a, a, m) == a" if same else "identity combine failed"


CHECKS = (
    ("schedule-recurrence", _check_schedule_recurrence),
    ("rng-reproducibility", _check_rng_reproducibility),
    ("score-consistency", _check_score_consistency),
    ("conditional-exact-inversion", _check_exact_inversion),
    ("model-gradient-check", _check_model_gradients),
    ("sampler-moments", _check_sampler_moments),
    ("langevin-moments", _check_langevin_moments),
    ("codec-lattice", _check_codec_lattice),
    ("masking-ones-identity", _check_masking_identity),
    ("masked-combine-identity", _check_masked_combine),
)


def run_checks(fault: str | None = None) -> list[CheckResult]:
    """Run every check; ``fault`` names one check to corrupt (for testing
    the failure path)."""
    valid = {name for name, _ in CHECKS}
    if fault is not None and fault not in valid:
        raise ValueError(f"unknown fault target {fault!r}")
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(fault == name)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=bool(ok), detail=detail))
    return results
