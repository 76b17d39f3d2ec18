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

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    LatentGrid, Mask, RngStream, _box_muller, _noise_pool, _normal_rows, _philox_uniforms,
)
from .grid import masked_combine  # noqa: F401  perfbench's tracer wraps sampler.masked_combine
from .schedule import NoiseSchedule

METHODS = ("ddpm_full", "ddpm_literal", "euler_ancestral")
MASK_MODES = ("gate", "pin", "direction")
_CHAIN_BLOCK = 256  # chains whose noise is drawn together; bounds sample_chains' scratch memory


class DivergenceError(RuntimeError, ValueError):
    """An iterative sampler or training run reached a non-finite state."""


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
        if not 0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        scale = self.noise_scale
        if scale is None:
            scale = np.sqrt(self.step_size)  # matches the target density
        scale = np.atleast_1d(np.asarray(scale, dtype=np.float64))
        if (scale < 0).any() or not np.isfinite(scale).all():
            raise ValueError("noise_scale must be finite and nonnegative")
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


def _step(
    z: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    xi: np.ndarray,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    md: np.ndarray | None = None,
    src: np.ndarray | None = None,
    pin_xi: np.ndarray | None = None,
    eps_recon: np.ndarray | None = None,
) -> np.ndarray:
    """One reverse update on raw arrays of any shape, with the mask ``md``
    (h x w x 1, 1 = editable; None for no mask) enforced per ``cfg.mask_mode``.

    ``xi`` is the step noise.  Pin mode also takes the source latent ``src``
    and its re-noising draw ``pin_xi``; direction mode takes the
    reconstruction prediction ``eps_recon``.  Inputs are not checked here.
    """
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
    else:  # euler_ancestral; SamplerConfig admits no other method
        abar_prev = sched.alpha_bar_at(t - 1)
        x0_hat = (z - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
        var_t = (1.0 - abar_prev) / (1.0 - abar) * beta
        out = np.sqrt(abar_prev) * x0_hat + np.sqrt(max(0.0, 1.0 - abar_prev - var_t)) * eps_hat
        scale = np.sqrt(var_t)
    if cfg.add_final_noise or t > 1:
        out = out + scale * xi
    if mode == "pin":
        # noise_to(src, t - 1, pin_xi), then masked_combine(out, frozen, mask)
        abar = sched.alpha_bar_at(t - 1)
        frozen = np.sqrt(abar) * src + np.sqrt(1.0 - abar) * pin_xi
        out = md * out + (1.0 - md) * frozen
    return out


def _check_shapes(shape: tuple, **grids) -> None:
    for name, g in grids.items():
        if g is not None and g.shape != shape:
            raise ValueError(f"dimension mismatch: {name} is {g.shape}, latent is {shape}")


def reverse_step(
    z_t: LatentGrid,
    t: int,
    eps_hat: LatentGrid,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
) -> LatentGrid:
    """One reverse update in the configured form; consumes one noise grid."""
    _check_shapes(z_t.shape, eps_hat=eps_hat)
    xi = rng.normal(z_t.shape)
    return LatentGrid(_step(z_t.data, t, eps_hat.data, xi, sched, cfg))


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
    _check_masked(mask, z_t.shape, cfg.mask_mode, z_src, eps_recon, "prediction")
    src = z_src.data if cfg.mask_mode == "pin" else None
    recon = eps_recon.data if cfg.mask_mode == "direction" else None
    _check_shapes(z_t.shape, eps_hat=eps_hat, z_src=src, eps_recon=recon)
    xi = rng.normal(z_t.shape)
    pin_xi = (pin_rng or rng).normal(z_t.shape) if src is not None else None
    md = mask.data[:, :, None]
    return LatentGrid(_step(z_t.data, t, eps_hat.data, xi, sched, cfg, md, src, pin_xi, recon))


def _check_masked(mask: Mask, shape: tuple, mode: str, z_src, recon, recon_kind: str) -> None:
    """The checks ``sample`` and ``masked_reverse_step`` share."""
    if (mask.h, mask.w) != shape[:2]:
        raise ValueError(f"mask {mask.h}x{mask.w} does not match latent {shape[0]}x{shape[1]}")
    if mode == "pin" and z_src is None:
        raise ValueError("pin mask mode requires z_src")
    if mode == "direction" and recon is None:
        raise ValueError(f"direction mask mode requires the reconstruction {recon_kind}")


def _predict(denoiser, z: np.ndarray, t: int) -> np.ndarray:
    eps = denoiser(z, t)
    if eps.shape != z.shape:
        raise ValueError(f"denoiser returned {eps.shape} at t={t} for a {z.shape} latent")
    return eps


def _reverse(denoiser, z, noise, sched, cfg, md=None, src=None, pin_noise=None, recon=None):
    """The reverse loop t = T..1 on raw arrays under ``sample`` and ``sample_chains``.

    ``noise`` (and ``pin_noise`` in pin mode) yields one draw per step,
    already shaped to broadcast against z; ``recon`` is the direction-mode
    reconstruction denoiser.
    """
    direction = md is not None and cfg.mask_mode == "direction"
    # overflow on the way to a non-finite state is reported by DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(sched.T, 0, -1):
            eps_hat = _predict(denoiser, z, t)
            eps_recon = _predict(recon, z, t) if direction else None
            pin_xi = next(pin_noise) if pin_noise is not None else None
            z = _step(z, t, eps_hat, next(noise), sched, cfg, md, src, pin_xi, eps_recon)
    # reductions, not isfinite(z).all(): no temporary the size of z
    if not (np.isfinite(z.max()) and np.isfinite(z.min())):
        raise DivergenceError(f"sampled latent became non-finite within T={sched.T} reverse steps")
    return z


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

    ``denoiser`` is a callable (z_t, t) -> eps prediction on float64 arrays
    of the latent's shape; conditioning is baked into the callable.  Starts
    from z_T ~ N(0, I) drawn from ``rng`` unless ``z_init`` is supplied.
    Pin-mode re-noising uses a stream spawned from ``rng``, so masked and
    unmasked runs consume the main stream identically.  Each stream's noise
    is drawn a block of steps at a time (``grid._normal_rows``), bit-identical
    to one ``normal`` call per step.  When a step draws at least
    ``grid._POOL_MIN_VALUES`` normals and a second CPU is usable, both streams
    share one 2-thread pool that computes the Box-Muller transform of the
    next blocks while the loop steps; the uniforms are still drawn on the
    calling thread, and the pool is closed before ``sample`` returns or
    raises.  The inputs are checked once, on entry; a run whose z_0 is
    non-finite raises DivergenceError.
    """
    h, w, c = shape
    if h < 1 or w < 1 or c < 1:
        raise ValueError(f"grid dimensions must be positive, got {h}x{w}x{c}")
    shape = (h, w, c)
    if mask is not None:
        _check_masked(mask, shape, cfg.mask_mode, z_src, recon_denoiser, "denoiser")
    _check_shapes(shape, z_init=z_init, z_src=z_src)
    z = _sample(
        denoiser, shape, sched, cfg, rng,
        md=mask.data[:, :, None] if mask is not None else None,
        src=z_src.data if z_src is not None else None,
        recon=recon_denoiser,
        z_init=z_init.data if z_init is not None else None,
    )
    return LatentGrid(z)


def _sample(denoiser, shape, sched, cfg, rng, md=None, src=None, recon=None, z_init=None,
            members=()):
    """``sample`` on raw arrays, unchecked: the noise draws and the reverse loop.

    With ``members = (k,)`` the state is a (k, *shape) stack of members
    stepped in lockstep: the denoiser, ``src`` and ``z_init`` carry the
    member axis, and every member shares z_T, the step noise and the pin
    noise, each drawn once in one member's layout and broadcast.  So each
    member's result equals its own ``sample`` run bit for bit.
    """
    pin_rng = rng.spawn("pin")
    pinned = md is not None and cfg.mask_mode == "pin"
    with _noise_pool(math.prod(shape)) as pool:
        noise = _normal_rows(rng, shape, sched.T + (z_init is None), pool)
        pin_noise = _normal_rows(pin_rng, shape, sched.T, pool) if pinned else None
        z = z_init if z_init is not None else np.broadcast_to(next(noise), members + shape)
        return _reverse(denoiser, z, noise, sched, cfg, md, src, pin_noise, recon)


def sample_chains(
    chain_denoiser,
    n: int,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngStream,
    prior_init,
) -> np.ndarray:
    """Run n independent scalar reverse chains, vectorized over the batch.

    ``chain_denoiser`` maps a length-n vector and a timestep to a length-n
    prediction, checked at every step; a non-finite result raises
    DivergenceError.  Each chain's noise comes from its own stream spawned
    from ``rng`` (chain index as the derivation path), so results do not
    depend on how the batch is partitioned or parallelized.  The streams are
    drawn a block of chains at a time in one vectorized Philox pass,
    bit-identical to drawing each stream on its own.

    Chains start at the exact noised marginal of the scalar mixture prior
    ``prior_init``: sqrt(abar_T) z_0 + sqrt(1-abar_T) g with z_0 ~ prior.
    An N(0, 1) start would leave a residual mean offset of abar_T * mu
    where abar_T is not yet negligible, which no exact reverse chain can
    remove.
    """
    if n < 1:
        raise ValueError(f"chain count must be >= 1, got {n}")
    if prior_init.dim != 1:
        raise ValueError("prior-matched init requires a scalar (1x1x1) prior")
    draws = sched.T + 2  # z_0's normal, the start's normal, then one per step
    noise = np.empty((n, draws))
    comp_u = np.empty(n)
    for lo in range(0, n, _CHAIN_BLOCK):
        hi = min(n, lo + _CHAIN_BLOCK)
        keys = np.array([rng.spawn("chain", i).key for i in range(lo, hi)], dtype=np.uint64)
        u = _philox_uniforms(keys, 1 + 2 * ((draws + 1) // 2))
        comp_u[lo:hi] = u[:, 0]  # the component uniform precedes the normals
        noise[lo:hi] = _box_muller(u[:, 1:], draws)
    abar_T = float(sched.alpha_bar[-1])
    cdf, means = np.cumsum(prior_init.weights), prior_init.mean_matrix()
    z0 = prior_init._place(comp_u, noise[:, :1], cdf, means)[:, 0]
    z = np.sqrt(abar_T) * z0 + np.sqrt(1.0 - abar_T) * noise[:, 1]
    return _reverse(chain_denoiser, z, iter(noise[:, 2:].T), sched, cfg)


def langevin_chains(
    grad_chain,
    cfg: LangevinConfig,
    init: np.ndarray,
    rng: RngStream,
) -> np.ndarray:
    """Overdamped Langevin iteration z <- z - (step/2) * grad E(z) + noise_i * xi
    on a state array of any shape (a grid's values, or independent chains).

    ``grad_chain`` maps the state array to a same-shaped energy gradient.
    The step noise comes from ``grid._normal_rows``, drawn on the calling
    thread and bit-identical to one ``rng.normal(init.shape)`` per step.  A
    non-finite state raises DivergenceError naming the step.
    """
    z = np.asarray(init, dtype=np.float64).copy()
    # overflow on the way to a non-finite state is reported by DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        noise = _normal_rows(rng, z.shape, cfg.steps)
        for i in range(cfg.steps):
            z = z - 0.5 * cfg.step_size * grad_chain(z) + cfg.noise_at(i) * next(noise)
            if not np.isfinite(z).all():
                raise DivergenceError(f"langevin state became non-finite at step {i + 1}")
    return z
