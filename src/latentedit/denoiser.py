"""Noise predictors with exactly computable ground truth.

A denoiser is any pure callable ``(z_t: np.ndarray, t: int) -> np.ndarray``
taking a float64 latent array (or a vector of scalar chains) and returning a
same-shaped prediction of the noise mixed into z_t.  Two closed forms are
provided: the Bayes-optimal predictor for a Gaussian-mixture prior, and the
predictor conditioned on an affine edit of a source latent.  Both are minimizers of the squared noise-prediction objective
for their respective target distributions, so samplers built on them can be
checked against exact moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import LatentGrid, RngStream, _box_muller, _uniform_rows
from .schedule import NoiseSchedule

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class GMMPrior:
    """Isotropic Gaussian mixture over grids: sum_k w_k N(mu_k, s_k^2 I)."""

    weights: np.ndarray
    means: tuple[LatentGrid, ...]
    scales: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        s = np.array(self.scales, dtype=np.float64)
        if w.ndim != 1 or len(self.means) != w.size or s.shape != w.shape:
            raise ValueError("weights, means and scales must have one entry per component")
        if w.size == 0:
            raise ValueError("mixture needs at least one component")
        if (w <= 0).any():
            raise ValueError("component weights must be positive")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {w.sum()!r}")
        if (s < 0).any() or not np.isfinite(s).all():
            raise ValueError("scales must be finite and nonnegative")
        shape = self.means[0].shape
        if any(m.shape != shape for m in self.means):
            raise ValueError("all component means must share dimensions")
        w.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "means", tuple(self.means))

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.means[0].shape

    @property
    def dim(self) -> int:
        return self.means[0].size

    def mean_matrix(self) -> np.ndarray:
        """Component means stacked as a (K, dim) matrix."""
        return np.stack([m.flat() for m in self.means])

    @staticmethod
    def scalar(weights, mus, scales) -> "GMMPrior":
        """Mixture over 1x1x1 grids, for scalar-chain experiments."""
        means = tuple(LatentGrid.constant(mu, 1, 1, 1) for mu in np.atleast_1d(mus))
        return GMMPrior(np.atleast_1d(weights), means, np.atleast_1d(scales))

    def sample_flat(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw n samples as an (n, dim) matrix: component by inverse CDF,
        then mu_k + s_k * g."""
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        u = rng.uniform((n,))
        return self._place(u, rng.normal((n, self.dim)), np.cumsum(self.weights), self.mean_matrix())

    def _place(self, u: np.ndarray, g: np.ndarray, cdf: np.ndarray, means: np.ndarray) -> np.ndarray:
        """mu_k + s_k * g, component k by inverse CDF of the uniforms u; a loop
        passes ``cumsum(weights)`` and ``mean_matrix()`` in, computed once."""
        comp = np.minimum(np.searchsorted(cdf, u, side="right"), self.k - 1)
        return means[comp] + self.scales[comp, None] * g

    def sample(self, rng: RngStream) -> LatentGrid:
        h, w, c = self.shape
        return LatentGrid(self.sample_flat(rng, 1)[0].reshape(h, w, c))


@dataclass(frozen=True)
class EditInstruction:
    """An affine edit: the semantic target for source latent z is
    N(gain * z + bias, target_scale^2 I), with gain per channel and bias
    either a constant or a full grid."""

    id: str
    gain: object = 1.0
    bias: object = 0.0
    target_scale: float = 0.0

    def __post_init__(self) -> None:
        s = float(self.target_scale)
        if not (s >= 0 and math.isfinite(s * s)):  # the denoiser squares it
            raise ValueError(f"target_scale must be >= 0 with a finite square, got {s!r}")
        if not isinstance(self.bias, LatentGrid):
            if not np.isfinite(float(self.bias)):
                raise ValueError("bias must be finite")
        gain = np.atleast_1d(np.asarray(self.gain, dtype=np.float64))
        if gain.ndim != 1 or not np.isfinite(gain).all():
            raise ValueError("gain must be a finite scalar or per-channel vector")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)

    def gain_for(self, c: int) -> np.ndarray:
        if self.gain.size == 1:
            return np.full(c, self.gain[0])
        if self.gain.size != c:
            raise ValueError(f"gain has {self.gain.size} channels, grid has {c}")
        return self.gain

    def target_mean(self, z_src: LatentGrid) -> LatentGrid:
        """mu_y = gain * z_src + bias, elementwise with channel broadcast."""
        a = self.gain_for(z_src.c)
        if isinstance(self.bias, LatentGrid):
            if self.bias.shape != z_src.shape:
                raise ValueError(
                    f"bias grid {self.bias.shape} does not match latent {z_src.shape}"
                )
            b = self.bias.data
        else:
            b = float(self.bias)
        return LatentGrid(a[None, None, :] * z_src.data + b)


# an overflow gives inf or NaN, which EditInstruction and LatentGrid reject
@np.errstate(over="ignore", invalid="ignore")
def compose_edits(edits, like: LatentGrid) -> EditInstruction:
    """Collapse a left-to-right chain of affine edits into one.

    Applying edit 1 then edit 2 to the same latent is the affine map with
    gain a2*a1 and bias a2*b1 + b2; target spreads propagate through the
    chain as s^2 = mean_c(a2^2) * s1^2 + s2^2.  ``like`` supplies the grid
    shape when a bias must be materialized.  A single-edit chain is returned
    unchanged, so it is interchangeable with the original edit.
    """
    edits = list(edits)
    if not edits:
        raise ValueError("cannot compose an empty edit chain")
    if len(edits) == 1:
        return edits[0]
    composed = edits[0]
    for nxt in edits[1:]:
        a1 = composed.gain_for(like.c)
        a2 = nxt.gain_for(like.c)
        scalar_case = (
            not isinstance(composed.bias, LatentGrid)
            and not isinstance(nxt.bias, LatentGrid)
            and nxt.gain.size == 1
        )
        if scalar_case:
            bias = float(nxt.gain[0]) * float(composed.bias) + float(nxt.bias)
        else:
            b1 = composed.bias if isinstance(composed.bias, LatentGrid) else None
            b2 = nxt.bias if isinstance(nxt.bias, LatentGrid) else None
            b1d = b1.data if b1 is not None else np.full(like.shape, float(composed.bias))
            b2d = b2.data if b2 is not None else np.full(like.shape, float(nxt.bias))
            bias = LatentGrid(a2[None, None, :] * b1d + b2d)
        scale = float(
            np.sqrt(np.mean(a2**2) * composed.target_scale**2 + nxt.target_scale**2)
        )
        composed = EditInstruction(
            id=f"{composed.id}+{nxt.id}", gain=a2 * a1, bias=bias, target_scale=scale
        )
    return composed


def _check_t(t: int, sched: NoiseSchedule) -> None:
    if not 1 <= t <= sched.T:
        raise ValueError(f"timestep {t} out of range [1, {sched.T}]")


def _gmm_score_flat(
    z: np.ndarray,
    mean_mat: np.ndarray,
    weights: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """grad log of sum_k w_k N(z; mean_k, v_k I) for a batch of flat points.

    z is (m, D), mean_mat (K, D), variances (K,).  Responsibilities are
    computed in log space with max subtraction.  Where ssq overflows for
    every component (|z| beyond about 1e154), the components tied at the
    peak share the weight instead of giving NaN.
    """
    dim = z.shape[1]
    diff = z[:, None, :] - mean_mat[None, :, :]  # (m, K, D)
    ssq = np.einsum("mkd,mkd->mk", diff, diff)
    # Per component (column), not over an axis of length K: the same
    # operations in the same order, so bit-identical to the (m, K) form.
    const = np.log(weights) - 0.5 * dim * np.log(2.0 * np.pi * variances)
    log_resp = [const[k] - ssq[:, k] / (2.0 * variances[k]) for k in range(len(weights))]
    peak = log_resp[0]
    for col in log_resp[1:]:
        peak = np.maximum(peak, col)
    with np.errstate(invalid="ignore"):  # -inf - -inf, replaced just below
        resp = [np.exp(col - peak) for col in log_resp]
    if peak.size and peak.min() == -np.inf:
        # ssq overflowed for every component of some point: exp(-inf - -inf)
        # is NaN there, so the components at the peak get weight 1 (= exp(0))
        resp = [np.where(col == peak, 1.0, r) for col, r in zip(log_resp, resp)]
    # below 8 terms numpy's row sum is sequential, as reduce is, and faster
    # for the ebm priors' K = 1, 2; from 8 on it uses interleaved accumulators
    total = (functools.reduce(np.add, resp) if len(resp) < 8
             else np.stack(resp, axis=1).sum(axis=1))
    weighted = np.stack([col / total / variances[k] for k, col in enumerate(resp)], axis=1)
    return -np.einsum("mk,mkd->md", weighted, diff)


def gmm_eps(z: np.ndarray, t: int, prior: GMMPrior, sched: NoiseSchedule) -> np.ndarray:
    """Bayes-optimal noise prediction for a batch of m flat points, (m, dim).

    The noised marginal is q_t(z) = sum_k w_k N(z; sqrt(abar) mu_k, v_k I)
    with v_k = abar s_k^2 + (1 - abar); the optimal prediction is
    -sqrt(1 - abar) * grad log q_t.
    """
    if z.ndim != 2 or z.shape[1] != prior.dim:
        raise ValueError(f"points {z.shape} do not match prior dim {prior.dim}")
    _check_t(t, sched)
    abar = sched.alpha_bar[t - 1]
    variances = abar * prior.scales**2 + (1.0 - abar)
    score = _gmm_score_flat(z, np.sqrt(abar) * prior.mean_matrix(), prior.weights, variances)
    return -np.sqrt(1.0 - abar) * score


def gmm_chain_eps(z: np.ndarray, t: int, prior: GMMPrior, sched: NoiseSchedule) -> np.ndarray:
    """``gmm_eps`` for a vector of independent scalar chains.

    Requires a scalar (1x1x1) prior; each entry of z is treated as its own
    draw, with its own component responsibilities.
    """
    if prior.dim != 1:
        raise ValueError("chain denoising requires a scalar (1x1x1) prior")
    return gmm_eps(np.asarray(z, dtype=np.float64)[:, None], t, prior, sched)[:, 0]


def gmm_denoiser(prior: GMMPrior, sched: NoiseSchedule):
    """The denoiser callable for ``sampler.sample``: latent array in, array out."""

    def predict(z_t: np.ndarray, t: int) -> np.ndarray:
        if z_t.shape != prior.shape:
            raise ValueError(f"latent {z_t.shape} does not match prior {prior.shape}")
        return gmm_eps(z_t.reshape(1, -1), t, prior, sched)[0].reshape(z_t.shape)

    return predict


def gmm_chain_denoiser(prior: GMMPrior, sched: NoiseSchedule):
    """The vectorized denoiser callable for ``sampler.sample_chains``."""

    def predict(z: np.ndarray, t: int) -> np.ndarray:
        return gmm_chain_eps(z, t, prior, sched)

    return predict


def edit_conditional_eps(
    z_t: LatentGrid,
    t: int,
    edit: EditInstruction,
    z_src: LatentGrid,
    sched: NoiseSchedule,
) -> LatentGrid:
    """Noise prediction conditioned on an affine edit of z_src.

    The conditional target is N(mu_y, s_y^2 I) with mu_y = gain*z_src + bias,
    giving eps = sqrt(1-abar) * (z_t - sqrt(abar) mu_y) / (abar s_y^2 + 1-abar).
    """
    mu = edit.target_mean(z_src).data
    return LatentGrid(_target_eps(z_t.data, t, mu, (edit.target_scale,), sched))


def _target_eps(
    z_t: np.ndarray, t: int, mu: np.ndarray, target_scales: tuple, sched: NoiseSchedule
) -> np.ndarray:
    """``edit_conditional_eps`` on arrays, for an already computed target mean
    mu_y and the spreads of its members, one per entry of the leading axis
    of mu (a single grid is one member)."""
    if z_t.shape != mu.shape:
        raise ValueError(f"latent {z_t.shape} does not match source {mu.shape}")
    _check_t(t, sched)
    abar = sched.alpha_bar[t - 1]
    denom = np.array([abar * s**2 + (1.0 - abar) for s in target_scales])
    denom = denom.reshape(-1, *(1,) * (mu.ndim - 1))
    return np.sqrt(1.0 - abar) * (z_t - np.sqrt(abar) * mu) / denom


def edit_denoiser(edit, z_src, sched: NoiseSchedule):
    """Denoiser callable conditioned on (z_src, edit); the target mean is
    computed once, not at every step.

    Given equal-length sequences of edits and source latents instead, it
    predicts for a (k, h, w, c) stack of members, member i conditioned on
    (z_src[i], edit[i]).  The arithmetic is elementwise, so each member's
    prediction equals its single-member one bit for bit.
    """
    if isinstance(edit, EditInstruction):
        mu, scale = edit.target_mean(z_src).data, (edit.target_scale,)
    else:
        mu = np.stack([e.target_mean(z).data for e, z in zip(edit, z_src, strict=True)])
        scale = tuple(e.target_scale for e in edit)

    def predict(z_t: np.ndarray, t: int) -> np.ndarray:
        return _target_eps(z_t, t, mu, scale, sched)

    return predict


def _diffusion_batches(prior: GMMPrior, sched: NoiseSchedule, n: int, rng: RngStream, count: int):
    """Yield ``count`` batches (z0 (n, dim), t (n,), eps (n, dim)) of z_0 ~ prior,
    t ~ Uniform{1..T} and eps ~ N(0, I), equal bit for bit to drawing each
    batch with ``prior.sample_flat(rng, n)``, ``rng.uniform((n,))`` and
    ``rng.normal((n, dim))``: each row of a ``grid._uniform_rows`` block
    holds one batch's uniforms.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    nd = n * prior.dim
    half = 2 * ((nd + 1) // 2)
    cdf, means = np.cumsum(prior.weights), prior.mean_matrix()
    for u in _uniform_rows(rng, 2 * (n + half), count):
        g = _box_muller(u[:, n : n + half], nd).reshape(-1, n, prior.dim)
        z0 = prior._place(u[:, :n], g, cdf, means)
        t = np.minimum((u[:, n + half : 2 * n + half] * sched.T).astype(np.int64) + 1, sched.T)
        eps = _box_muller(u[:, 2 * n + half :], nd).reshape(-1, n, prior.dim)
        yield from zip(z0, t, eps)


def bayes_loss_estimate(
    prior: GMMPrior, sched: NoiseSchedule, n: int, rng: RngStream
) -> float:
    """Monte-Carlo estimate of the per-coordinate squared noise-prediction
    objective achieved by the optimal denoiser (the training floor).

    Draws (z_0 ~ prior, t ~ Uniform{1..T}, eps ~ N(0, I)), forms
    z_t = sqrt(abar) z_0 + sqrt(1-abar) eps, and averages
    |eps - eps_hat|^2 / dim.
    """
    z0, t_draw, eps = next(_diffusion_batches(prior, sched, n, rng, 1))
    abar = sched.alpha_bar[t_draw - 1][:, None]
    z_t = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
    total = 0.0
    for t in np.unique(t_draw):
        idx = t_draw == t
        pred = gmm_eps(z_t[idx], int(t), prior, sched)
        total += float(((eps[idx] - pred) ** 2).sum())
    return total / (n * prior.dim)


class GMMEnergy:
    """Exact energy -log p(z) for a GMM prior with strictly positive scales,
    with closed-form gradient: ``value`` of one grid, ``grad_chain`` of
    independent scalar chains."""

    def __init__(self, prior: GMMPrior):
        if (prior.scales <= 0).any():
            raise ValueError("energy requires strictly positive component scales")
        self.prior = prior
        self._variances = prior.scales**2

    def value(self, z: LatentGrid) -> float:
        flat = z.flat()[None, :]
        diff = flat[:, None, :] - self.prior.mean_matrix()[None, :, :]
        ssq = np.einsum("mkd,mkd->mk", diff, diff)
        log_comp = (
            np.log(self.prior.weights)
            - 0.5 * self.prior.dim * np.log(2.0 * np.pi * self._variances)
            - ssq[0] / (2.0 * self._variances)
        )
        peak = log_comp.max()
        return float(-(peak + np.log(np.exp(log_comp - peak).sum())))

    def grad_chain(self, z: np.ndarray) -> np.ndarray:
        """Per-entry gradient for independent scalar chains (dim-1 prior); z
        may have any shape."""
        if self.prior.dim != 1:
            raise ValueError("chain gradients require a scalar (1x1x1) prior")
        z = np.asarray(z, dtype=np.float64)
        score = _gmm_score_flat(
            z.reshape(-1, 1), self.prior.mean_matrix(), self.prior.weights, self._variances
        )
        return -score.reshape(z.shape)
