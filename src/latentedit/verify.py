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
    EditInstruction, GMMEnergy, GMMPrior, edit_denoiser, gmm_chain_denoiser, gmm_eps,
)
from .grid import LatentGrid, Mask, RngStream
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
    # q_t is the mixture with means sqrt(abar) mu_k and spreads sqrt(abar s_k^2 + 1 - abar)
    noised = GMMEnergy(GMMPrior(
        prior.weights, tuple(LatentGrid(np.sqrt(abar) * m.data) for m in prior.means),
        np.sqrt(abar * prior._variances + (1.0 - abar))))

    def log_qt(flat: np.ndarray) -> float:
        return -noised.value(LatentGrid(flat.reshape(prior.shape)))

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
    z_t = np.sqrt(abar) * z_src.data + np.sqrt(1 - abar) * g.data
    if fault:  # condition on a source that did not make z_t
        z_src = LatentGrid(z_src.data + 0.1)
    pred = edit_denoiser(edit, z_src, sched)(z_t, t)
    err = float(np.abs(pred - g.data).max())
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


def _masked_sample_inputs(seed: int, shape: tuple) -> tuple:
    """The schedule, edit denoiser and source latent the masking checks
    sample with; the edit denoiser is also the direction-mode reconstruction."""
    sched = build_schedule("linear", 30, 1e-3, 0.05)
    rng = RngStream(seed)
    z_src = LatentGrid(rng.normal(shape))
    edit = EditInstruction(id="shift", gain=0.8, bias=0.5, target_scale=0.3)
    return sched, edit_denoiser(edit, z_src, sched), z_src


def _check_masking_identity(fault: bool) -> tuple[bool, str]:
    sched, denoiser, src = _masked_sample_inputs(71, (4, 4, 1))
    ones = np.ones((4, 4))
    if fault:
        ones[2, 1] = 0.0
    for method in sampler_mod.METHODS:
        for mode in sampler_mod.MASK_MODES:
            cfg = SamplerConfig(method=method, mask_mode=mode)
            masked = sampler_mod.sample(denoiser, src.shape, sched, cfg, RngStream(72),
                                        mask=Mask(ones), z_src=src, recon_denoiser=denoiser)
            plain = sampler_mod.sample(denoiser, src.shape, sched, cfg, RngStream(72))
            if not np.array_equal(masked.data, plain.data):
                return False, f"{method}, mode {mode}: all-ones mask changed the sample"
    return True, "all-ones mask is bit-identical to the unmasked sample"


def _check_masked_combine(fault: bool) -> tuple[bool, str]:
    sched, denoiser, src = _masked_sample_inputs(81, (5, 4, 3))
    inside = RngStream(82).uniform((5, 4)) > 0.5
    editable = inside.astype(float)
    if fault:
        editable[~inside] = 1.0  # nothing pinned
    out = sampler_mod.sample(denoiser, src.shape, sched, SamplerConfig(mask_mode="pin"),
                             RngStream(83), mask=Mask(editable), z_src=src)
    same = np.array_equal(out.data[~inside], src.data[~inside])
    return same, ("pin-mode sample equals the source outside the mask" if same
                  else "pin-mode sample differs from the source outside the mask")


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
