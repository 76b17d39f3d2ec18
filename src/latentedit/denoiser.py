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
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {float(w.sum())!r}")
        with np.errstate(over="ignore"):  # the variances are squares: s = 1e200 is refused
            if (s < 0).any() or not np.isfinite(s * s).all():
                raise ValueError("scales must be finite and nonnegative with a finite square")
        shape = self.means[0].shape
        if any(m.shape != shape for m in self.means):
            raise ValueError("all component means must share dimensions")
        arrays = {"weights": w, "scales": s, "_cdf": np.cumsum(w), "_variances": s**2,
                  "mean_matrix": np.stack([m.flat() for m in self.means])}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
        return self._place(u, rng.normal((n, self.dim)))

    def _place(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        """mu_k + s_k * g, component k by inverse CDF of the uniforms u."""
        comp = np.minimum(np.searchsorted(self._cdf, u, side="right"), self.k - 1)
        return self.mean_matrix[comp] + self.scales[comp, None] * g

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
        # the gain first: an overflowing gain product also spoils a composed spread
        gain = np.atleast_1d(np.asarray(self.gain, dtype=np.float64))
        if gain.ndim != 1 or not gain.size or not np.isfinite(gain).all():
            raise ValueError("gain must be a finite scalar or per-channel vector")
        s = float(self.target_scale)
        if not (s >= 0 and math.isfinite(s * s)):  # the denoiser squares it
            raise ValueError(f"target_scale must be >= 0 with a finite square, got {s!r}")
        if not isinstance(self.bias, LatentGrid):
            if not np.isfinite(float(self.bias)):
                raise ValueError("bias must be finite")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)

    def gain_for(self, c: int) -> np.ndarray:
        if self.gain.size == 1:
            return np.full(c, self.gain[0])
        if self.gain.size != c:
            raise ValueError(f"gain has {self.gain.size} channels, grid has {c}")
        return self.gain

    def _bias_values(self):
        """The bias as grid data or a float."""
        return self.bias.data if isinstance(self.bias, LatentGrid) else float(self.bias)

    def target_mean(self, z_src: LatentGrid) -> LatentGrid:
        """mu_y = gain * z_src + bias, elementwise with channel broadcast."""
        a = self.gain_for(z_src.c)
        if isinstance(self.bias, LatentGrid) and self.bias.shape != z_src.shape:
            raise ValueError(f"bias grid {self.bias.shape} does not match latent {z_src.shape}")
        return LatentGrid(a[None, None, :] * z_src.data + self._bias_values())


def identity_edit(noise_scale: float) -> EditInstruction:
    """The null instruction: keep the latent, with the given target spread.

    A nonzero spread makes each denoising pass contribute the stochastic
    artifacts that iteration strategies are meant to manage; zero spread
    makes the pipeline exactly deterministic.
    """
    return EditInstruction(id="identity", gain=1.0, bias=0.0, target_scale=noise_scale)


# an overflow gives inf or NaN, which EditInstruction and LatentGrid reject
@np.errstate(over="ignore", invalid="ignore")
def compose_edits(edits, like: LatentGrid) -> EditInstruction:
    """Collapse a left-to-right chain of affine edits into one.

    Applying edit 1 then edit 2 to the same latent is the affine map with
    gain a2*a1 and bias a2*b1 + b2; target spreads propagate through the
    chain as s^2 = mean_c(a2^2) * s1^2 + s2^2.  The bias is a float if both
    biases are and a2 is a scalar, else a grid of ``like``'s shape.  A chain
    of one edit is returned unchanged, so it is interchangeable with it.
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
        a = nxt.gain[0] if nxt.gain.size == 1 else a2[None, None, :]
        bias = a * composed._bias_values() + nxt._bias_values()
        bias = float(bias) if np.ndim(bias) == 0 else LatentGrid(np.broadcast_to(bias, like.shape))
        scale = float(
            np.sqrt(np.mean(a2**2) * composed.target_scale**2 + nxt.target_scale**2)
        )
        composed = EditInstruction(
            id=f"{composed.id}+{nxt.id}", gain=a2 * a1, bias=bias, target_scale=scale
        )
    return composed


def _gmm_pull(
    z: np.ndarray,
    mean_mat: np.ndarray,
    weights: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """The pull, minus the score: -grad log of sum_k w_k N(z; mean_k, v_k I)
    = sum_k r_k (z - mean_k) / v_k with responsibilities r_k, for a batch of
    flat points.  Callers scale it or return it; none negates it.

    z is (m, D), mean_mat (K, D), variances (K,).  Each component k works in
    place on its own contiguous (m, D) difference and (m,) vectors, by the
    same operations in the same order as the (m, K, D) form over axis k, so
    the bits are that form's.  Responsibilities are computed in log space
    with max subtraction.  Where ssq overflows for every component (|z|
    beyond about 1e154), the components tied at the peak share the weight
    instead of giving NaN.
    """
    m, dim = z.shape
    diffs = [np.subtract(z, mean) for mean in mean_mat]
    with np.errstate(over="ignore"):  # as einsum, whose one product this is at D = 1
        cols = [np.multiply(d, d).reshape(m) if dim == 1 else np.einsum("md,md->m", d, d)
                for d in diffs]
    const = np.log(weights) - 0.5 * dim * np.log(2.0 * np.pi * variances)
    for k, col in enumerate(cols):  # ssq -> log r_k + log of the sum
        np.subtract(const[k], np.divide(col, 2.0 * variances[k], out=col), out=col)
    peak = functools.reduce(np.maximum, cols)
    # where ssq overflowed for every component, every column is -inf
    far = np.isneginf(peak) if peak.size and peak.min() == -np.inf else None
    with np.errstate(invalid="ignore"):  # -inf - -inf, replaced just below
        for col in cols:  # at K = 1 col is peak; elementwise, so in place is safe
            np.exp(np.subtract(col, peak, out=col), out=col)
    if far is not None:  # exp(-inf - -inf) is NaN there: the tied components get exp(0)
        for col in cols:
            col[far] = 1.0
    # below 8 terms numpy's row sum is sequential, as reduce is, and faster
    # for the ebm priors' K = 1, 2; from 8 on it uses interleaved accumulators
    total = (functools.reduce(np.add, cols) if len(cols) < 8
             else np.stack(cols, axis=1).sum(axis=1))
    for k, col in enumerate(cols):  # at K = 1 total is col: elementwise again
        np.divide(np.divide(col, total, out=col), variances[k], out=col)
    if len(cols) >= 3:  # einsum's order over k differs from a sum over k at D = 1
        return np.einsum("mk,mkd->md", np.stack(cols, axis=1), np.stack(diffs, axis=1))
    # einsum's sum over k starts at 0.0 and adds the terms in order below 3
    # components; the same sum, in place on the differences
    pull = np.add(0.0, np.multiply(cols[0][:, None], diffs[0], out=diffs[0]), out=diffs[0])
    if len(cols) == 2:
        np.add(pull, np.multiply(cols[1][:, None], diffs[1], out=diffs[1]), out=pull)
    return pull


def gmm_eps(z: np.ndarray, t: int, prior: GMMPrior, sched: NoiseSchedule) -> np.ndarray:
    """Bayes-optimal noise prediction for a batch of m flat points, (m, dim).

    The noised marginal is q_t(z) = sum_k w_k N(z; sqrt(abar) mu_k, v_k I)
    with v_k = abar s_k^2 + (1 - abar); the optimal prediction is
    -sqrt(1 - abar) * grad log q_t.
    """
    if z.ndim != 2 or z.shape[1] != prior.dim:
        raise ValueError(f"points {z.shape} do not match prior dim {prior.dim}")
    abar = sched.alpha_bar[sched._index(t)]
    variances = abar * prior._variances + (1.0 - abar)
    pull = _gmm_pull(z, sched._sqrt_abar[t] * prior.mean_matrix, prior.weights, variances)
    # sqrt(1 - abar) * pull: the bits of -sqrt(1 - abar) * score, as IEEE
    # negation is exact and multiplication sign-symmetric
    return np.multiply(sched._sqrt_1m_abar[t], pull, out=pull)


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
    return LatentGrid(edit_denoiser(edit, z_src, sched)(z_t.data, t))


def edit_denoiser(edit, z_src, sched: NoiseSchedule):
    """Denoiser callable conditioned on (z_src, edit); the target mean mu_y and
    the denominators abar_t s_y^2 + (1 - abar_t) of every t are computed
    once, not at every step.

    Given equal-length sequences of edits and source latents instead, it
    predicts for a (k, h, w, c) stack of members, member i conditioned on
    (z_src[i], edit[i]).  The arithmetic is elementwise, so each member's
    prediction equals its single-member one bit for bit.
    """
    if isinstance(edit, EditInstruction):
        mu, scale = edit.target_mean(z_src).data, [edit.target_scale]
    else:
        mu = np.stack([e.target_mean(z).data for e, z in zip(edit, z_src, strict=True)])
        scale = [e.target_scale for e in edit]
    # (T, members, 1, ..., 1): one row per t, broadcasting against mu
    abar = sched.alpha_bar.reshape(-1, *(1,) * mu.ndim)
    var = np.array([s**2 for s in scale], dtype=np.float64).reshape(-1, *(1,) * (mu.ndim - 1))
    denom = abar * var + (1.0 - abar)

    def predict(z_t: np.ndarray, t: int) -> np.ndarray:
        if z_t.shape != mu.shape:
            raise ValueError(f"latent {z_t.shape} does not match source {mu.shape}")
        i = sched._index(t)
        # sqrt(1 - abar) * (z_t - sqrt(abar) * mu) / denom, in the one array returned
        eps = np.multiply(sched._entries["_sqrt_abar"][t], mu)
        np.subtract(z_t, eps, out=eps)
        np.multiply(sched._entries["_sqrt_1m_abar"][t], eps, out=eps)
        return np.divide(eps, denom[i], out=eps)

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
    for u in _uniform_rows(rng, 2 * (n + half), count):
        g = _box_muller(u[:, n : n + half], nd).reshape(-1, n, prior.dim)
        z0 = prior._place(u[:, :n], g)
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
    z_t = sched._jump(t_draw[:, None], z0, eps)
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
        if (prior._variances <= 0).any():  # the score divides by them: s = 1e-200 is refused
            raise ValueError("energy requires strictly positive component scales "
                             "with a positive square")
        self.prior = prior

    def value(self, z: LatentGrid) -> float:
        flat = z.flat()[None, :]
        diff = flat[:, None, :] - self.prior.mean_matrix[None, :, :]
        ssq = np.einsum("mkd,mkd->mk", diff, diff)
        variances = self.prior._variances
        log_comp = (
            np.log(self.prior.weights)
            - 0.5 * self.prior.dim * np.log(2.0 * np.pi * variances)
            - ssq[0] / (2.0 * variances)
        )
        peak = log_comp.max()
        if peak == -np.inf:  # ssq overflowed for every component: -inf - -inf would be NaN
            return math.inf
        return float(-(peak + np.log(np.exp(log_comp - peak).sum())))

    def grad_chain(self, z: np.ndarray) -> np.ndarray:
        """Per-entry gradient for independent scalar chains (dim-1 prior); z
        may have any shape."""
        if self.prior.dim != 1:
            raise ValueError("chain gradients require a scalar (1x1x1) prior")
        z = np.asarray(z, dtype=np.float64)
        pull = _gmm_pull(
            z.reshape(-1, 1), self.prior.mean_matrix, self.prior.weights, self.prior._variances
        )
        return pull.reshape(z.shape)
