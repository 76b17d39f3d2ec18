"""Forward noising and reverse sampling loops.

Reverse-step methods:
  ddpm_full       z_{t-1} = (z_t - (beta_t / sqrt(1-abar_t)) * eps) / sqrt(alpha_t)
                            + sigma_t * xi          (default; converges to the target)
  ddpm_literal    z_{t-1} = z_t - eps + sigma_t * xi (coefficient-free variant, kept
                            as a flagged fidelity mode; does not converge in general)
  euler_ancestral x0_hat = (z_t - sqrt(1-abar_t) * eps) / sqrt(abar_t), then
                  z_{t-1} = sqrt(abar_{t-1}) * x0_hat
                            + sqrt(max(0, 1-abar_{t-1}-vt)) * eps + sqrt(vt) * xi
                  with vt = (1-abar_{t-1}) / (1-abar_t) * beta_t and abar_0 = 1.

At t = 1 the injected noise is omitted unless ``add_final_noise``.

Mask modes for the masked step (mask = 1 marks the editable region):
  gate          zero the prediction outside the mask before the step
  pin           run the unmasked step, then overwrite the frozen region with
                the forward-noised source at t-1 (the source itself at t-1 = 0)
  direction     outside the mask, replace the prediction with a caller-supplied
                reconstruction prediction; inside, keep the edit prediction
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    LatentGrid, Mask, RngStream, _box_muller, _philox_uniforms, gaussian_grid, masked_combine,
)
from .schedule import NoiseSchedule

METHODS = ("ddpm_full", "ddpm_literal", "euler_ancestral")
MASK_MODES = ("gate", "pin", "direction")
_CHAIN_BLOCK = 256  # chains whose noise is drawn together; bounds sample_chains' scratch memory


class DivergenceError(RuntimeError):
    """An iterative sampler reached a non-finite state."""


@dataclass(frozen=True)
class SamplerConfig:
    method: str = "ddpm_full"
    mask_mode: str = "pin"
    add_final_noise: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")


@dataclass(frozen=True)
class LangevinConfig:
    """Overdamped Langevin iteration parameters: step size, per-step (or
    constant) noise scale, and iteration count."""

    step_size: float
    noise_scale: object = None
    steps: int = 1000

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        scale = self.noise_scale
        if scale is None:
            scale = np.sqrt(self.step_size)  # matches the target density
        scale = np.atleast_1d(np.asarray(scale, dtype=np.float64))
        if (scale < 0).any():
            raise ValueError("noise_scale must be nonnegative")
        if scale.size not in (1, self.steps):
            raise ValueError(f"noise_scale needs 1 or {self.steps} entries, got {scale.size}")
        scale.setflags(write=False)
        object.__setattr__(self, "noise_scale", scale)

    def noise_at(self, i: int) -> float:
        return float(self.noise_scale[0] if self.noise_scale.size == 1 else self.noise_scale[i])


def forward_step(z_prev: LatentGrid, t: int, sched: NoiseSchedule, rng: RngStream) -> LatentGrid:
    """One Markov noising step: sqrt(1-beta_t) * z_{t-1} + sqrt(beta_t) * xi."""
    beta, _, _, _ = sched.query(t)
    xi = rng.normal(z_prev.shape)
    return LatentGrid(np.sqrt(1.0 - beta) * z_prev.data + np.sqrt(beta) * xi)


def noise_to(z_0: LatentGrid, t: int, eps: LatentGrid, sched: NoiseSchedule) -> LatentGrid:
    """Closed-form jump to step t: sqrt(abar_t) z_0 + sqrt(1-abar_t) eps.

    t = 0 is allowed and returns z_0 (abar_0 = 1).
    """
    if z_0.shape != eps.shape:
        raise ValueError(f"dimension mismatch: {z_0.shape} vs {eps.shape}")
    abar = sched.alpha_bar_at(t)
    return LatentGrid(np.sqrt(abar) * z_0.data + np.sqrt(1.0 - abar) * eps.data)


def _reverse_kernel(
    z: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    xi: np.ndarray,
    sched: NoiseSchedule,
    method: str,
    add_final_noise: bool,
) -> np.ndarray:
    """Elementwise reverse update on raw arrays; shared by grid and chain paths."""
    beta, alpha, abar, sigma = sched.query(t)
    noise_on = add_final_noise or t > 1
    if method == "ddpm_literal":
        out = z - eps_hat
        if noise_on:
            out = out + sigma * xi
        return out
    if method == "ddpm_full":
        out = (z - (beta / np.sqrt(1.0 - abar)) * eps_hat) / np.sqrt(alpha)
        if noise_on:
            out = out + sigma * xi
        return out
    if method == "euler_ancestral":
        abar_prev = sched.alpha_bar_at(t - 1)
        x0_hat = (z - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
        var_t = (1.0 - abar_prev) / (1.0 - abar) * beta
        out = np.sqrt(abar_prev) * x0_hat + np.sqrt(max(0.0, 1.0 - abar_prev - var_t)) * eps_hat
        if noise_on:
            out = out + np.sqrt(var_t) * xi
        return out
    raise ValueError(f"unknown method {method!r}")


def reverse_step(
    z_t: LatentGrid,
    t: int,
    eps_hat: LatentGrid,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
) -> LatentGrid:
    """One reverse update in the configured form; consumes one noise grid."""
    if z_t.shape != eps_hat.shape:
        raise ValueError(f"dimension mismatch: {z_t.shape} vs {eps_hat.shape}")
    xi = rng.normal(z_t.shape)
    return LatentGrid(
        _reverse_kernel(z_t.data, t, eps_hat.data, xi, sched, cfg.method, cfg.add_final_noise)
    )


def masked_reverse_step(
    z_t: LatentGrid,
    t: int,
    eps_hat: LatentGrid,
    mask: Mask,
    z_src: LatentGrid | None,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
    pin_rng: RngStream | None = None,
    eps_recon: LatentGrid | None = None,
) -> LatentGrid:
    """Reverse update with the spatial mask enforced per ``cfg.mask_mode``.

    Pin-mode re-noising draws from ``pin_rng`` (or ``rng`` if absent); passing
    a separate stream keeps the main step noise identical between masked and
    unmasked runs.
    """
    if (mask.h, mask.w) != (z_t.h, z_t.w):
        raise ValueError(f"mask {mask.h}x{mask.w} does not match latent {z_t.h}x{z_t.w}")
    if cfg.mask_mode == "gate":
        gated = LatentGrid(mask.data[:, :, None] * eps_hat.data)
        return reverse_step(z_t, t, gated, sched, cfg, rng)
    if cfg.mask_mode == "pin":
        if z_src is None:
            raise ValueError("pin mask mode requires z_src")
        stepped = reverse_step(z_t, t, eps_hat, sched, cfg, rng)
        noise_rng = pin_rng if pin_rng is not None else rng
        xi = LatentGrid(noise_rng.normal(z_src.shape))
        frozen = noise_to(z_src, t - 1, xi, sched)
        return masked_combine(stepped, frozen, mask)
    if cfg.mask_mode == "direction":
        if eps_recon is None:
            raise ValueError("direction mask mode requires the reconstruction prediction")
        md = mask.data[:, :, None]
        mixed = LatentGrid(eps_recon.data + md * (eps_hat.data - eps_recon.data))
        return reverse_step(z_t, t, mixed, sched, cfg, rng)
    raise ValueError(f"unknown mask mode {cfg.mask_mode!r}")


def sample(
    denoiser,
    shape: tuple[int, int, int],
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
    mask: Mask | None = None,
    z_src: LatentGrid | None = None,
    recon_denoiser=None,
    z_init: LatentGrid | None = None,
) -> LatentGrid:
    """Run the full reverse loop t = T..1 and return z_0.

    ``denoiser`` is a callable (z_t, t) -> eps prediction; conditioning is
    baked into the callable.  Starts from z_T ~ N(0, I) drawn from ``rng``
    unless ``z_init`` is supplied.  Pin-mode re-noising uses a stream spawned
    from ``rng``, so masked and unmasked runs consume the main stream
    identically.
    """
    h, w, c = shape
    if mask is not None and cfg.mask_mode == "pin" and z_src is None:
        raise ValueError("pin mask mode requires z_src")
    if mask is not None and cfg.mask_mode == "direction" and recon_denoiser is None:
        raise ValueError("direction mask mode requires a reconstruction denoiser")
    pin_rng = rng.spawn("pin")
    z = z_init if z_init is not None else gaussian_grid(rng, h, w, c)
    if z.shape != (h, w, c):
        raise ValueError(f"initial latent {z.shape} does not match requested {shape}")
    for t in range(sched.T, 0, -1):
        eps_hat = denoiser(z, t)
        if mask is None:
            z = reverse_step(z, t, eps_hat, sched, cfg, rng)
        else:
            eps_recon = recon_denoiser(z, t) if cfg.mask_mode == "direction" else None
            z = masked_reverse_step(
                z, t, eps_hat, mask, z_src, sched, cfg, rng,
                pin_rng=pin_rng, eps_recon=eps_recon,
            )
    return z


def sample_chains(
    chain_denoiser,
    n: int,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
    prior_init=None,
) -> np.ndarray:
    """Run n independent scalar reverse chains, vectorized over the batch.

    ``chain_denoiser`` maps a length-n vector and a timestep to per-entry
    predictions.  Each chain's noise comes from its own stream spawned from
    ``rng`` (chain index as the derivation path), so results do not depend on
    how the batch is partitioned or parallelized.  The streams are drawn a
    block of chains at a time in one vectorized Philox pass, bit-identical to
    drawing each stream on its own.

    By default chains start at z_T ~ N(0, 1).  When ``prior_init`` is a
    scalar mixture prior, chains instead start at the exact noised marginal
    sqrt(abar_T) z_0 + sqrt(1-abar_T) g with z_0 ~ prior.  At T where
    abar_T is not yet negligible, the N(0, 1) start leaves a residual
    mean offset of abar_T * mu that no exact reverse chain can remove, so
    moment experiments use the matched start.
    """
    if n < 1:
        raise ValueError(f"chain count must be >= 1, got {n}")
    matched = prior_init is not None
    if matched and prior_init.dim != 1:
        raise ValueError("prior-matched init requires a scalar (1x1x1) prior")
    draws = sched.T + (2 if matched else 1)
    lead = 1 if matched else 0  # the component uniform precedes the normals
    noise = np.empty((n, draws))
    comp_u = np.empty(n) if matched else None
    for lo in range(0, n, _CHAIN_BLOCK):
        hi = min(n, lo + _CHAIN_BLOCK)
        keys = np.array([rng.spawn("chain", i).key for i in range(lo, hi)], dtype=np.uint64)
        u = _philox_uniforms(keys, lead + 2 * ((draws + 1) // 2))
        if matched:
            comp_u[lo:hi] = u[:, 0]
        noise[lo:hi] = _box_muller(u[:, lead:], draws)
    if matched:
        abar_T = float(sched.alpha_bar[-1])
        cdf = np.cumsum(prior_init.weights)
        comp = np.minimum(np.searchsorted(cdf, comp_u, side="right"), prior_init.k - 1)
        z0 = prior_init.mean_matrix()[comp, 0] + prior_init.scales[comp] * noise[:, 0]
        z = np.sqrt(abar_T) * z0 + np.sqrt(1.0 - abar_T) * noise[:, 1]
        step_noise = noise[:, 2:]
    else:
        z = noise[:, 0].copy()
        step_noise = noise[:, 1:]
    for t in range(sched.T, 0, -1):
        eps_hat = chain_denoiser(z, t)
        z = _reverse_kernel(
            z, t, eps_hat, step_noise[:, sched.T - t], sched, cfg.method, cfg.add_final_noise
        )
    return z


def langevin_sample(
    energy,
    cfg: LangevinConfig,
    init: LatentGrid,
    rng: RngStream,
) -> LatentGrid:
    """Overdamped Langevin iteration on a grid:
    z <- z - (step/2) * grad E(z) + noise_scale_i * xi."""
    z = init.data.copy()
    for i in range(cfg.steps):
        grad = energy.grad(LatentGrid(z)).data
        z = z - 0.5 * cfg.step_size * grad + cfg.noise_at(i) * rng.normal(z.shape)
        if not np.isfinite(z).all():
            raise DivergenceError(f"langevin state became non-finite at step {i + 1}")
    return LatentGrid(z)


def langevin_chains(
    grad_chain,
    cfg: LangevinConfig,
    init: np.ndarray,
    rng: RngStream,
) -> np.ndarray:
    """Langevin iteration over a vector of independent scalar chains.

    ``grad_chain`` maps a length-n state vector to per-entry energy gradients.
    """
    z = np.asarray(init, dtype=np.float64).copy()
    for i in range(cfg.steps):
        z = z - 0.5 * cfg.step_size * grad_chain(z) + cfg.noise_at(i) * rng.normal(z.shape)
        if not np.isfinite(z).all():
            raise DivergenceError(f"langevin state became non-finite at step {i + 1}")
    return z


class QuadraticEnergy:
    """E(z) = |z - center|^2 / 2, the unit isotropic Gaussian energy."""

    def __init__(self, center: float = 0.0):
        self.center = float(center)

    def value(self, z: LatentGrid) -> float:
        return float(0.5 * ((z.data - self.center) ** 2).sum())

    def grad(self, z: LatentGrid) -> LatentGrid:
        return LatentGrid(z.data - self.center)

    def grad_chain(self, z: np.ndarray) -> np.ndarray:
        return z - self.center
