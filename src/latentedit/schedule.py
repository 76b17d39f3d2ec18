"""Diffusion variance schedules and their per-timestep lookup tables.

Timesteps are 1-indexed: index t in {1..T} addresses the t-th noising step,
and t = 0 denotes clean data (never stored in the public tables).  The
reverse step's per-t coefficients are private per-schedule rows, built once
by the same elementwise IEEE operations a per-step scalar recipe applies, so
they give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COSINE_OFFSET = 0.008
_COSINE_BETA_MIN = 1e-8
_COSINE_BETA_MAX = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep variance tables, all derived from the 1-d array ``beta``,
    each entry in [0, 1): alpha = 1 - beta, the running product alpha_bar,
    and sigma = sqrt(beta).  Array index i holds timestep t = i + 1.
    Immutable after construction.

    Private rows: ``_sqrt_abar`` and ``_sqrt_1m_abar`` hold sqrt(abar_t) and
    sqrt(1 - abar_t) at index t = 0..T (abar_0 = 1); the others hold step t
    at index t - 1: ddpm_full's beta_t / sqrt(1 - abar_t) and sqrt(alpha_t),
    euler_ancestral's sqrt(max(0, 1 - abar_{t-1} - v_t)) and sqrt(v_t), with
    v_t = (1 - abar_{t-1}) / (1 - abar_t) * beta_t.  Where abar_t = 1 these
    divide by zero (inf or NaN), so both methods diverge at that step.
    ``_entries[name][i]`` is ``name[i]`` (for ``sigma`` and these rows) as a
    read-only 0-d view, the operand form the reverse step and the edit
    denoiser read."""

    T: int = field(init=False)
    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    sigma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError(f"beta must be a nonempty 1-d array, got shape {beta.shape}")
        bad = np.flatnonzero(~((beta >= 0.0) & (beta < 1.0)))  # NaN fails both tests
        if bad.size:
            raise ValueError(f"beta[{bad[0]}] must be finite and in [0, 1), got {beta[bad[0]]}")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        abar = np.concatenate(([1.0], alpha_bar))  # abar_t at index t, abar_0 = 1
        sqrt_1m_abar = np.sqrt(1.0 - abar)
        with np.errstate(divide="ignore", invalid="ignore"):  # where abar_t = 1
            full_eps = beta / sqrt_1m_abar[1:]
            var = (1.0 - abar[:-1]) / (1.0 - abar[1:]) * beta
        tables = {"beta": beta, "alpha": alpha, "alpha_bar": alpha_bar, "sigma": np.sqrt(beta),
                  "_sqrt_abar": np.sqrt(abar), "_sqrt_1m_abar": sqrt_1m_abar,
                  "_full_eps": full_eps, "_sqrt_alpha": np.sqrt(alpha),
                  "_euler_eps": np.sqrt(np.maximum(0.0, 1.0 - abar[:-1] - var)),  # keeps NaN
                  "_euler_sigma": np.sqrt(var)}
        for name, arr in tables.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # The reverse step's rows again as tuples of 0-d views, one per entry:
        # a ufunc takes a 0-d array operand faster than the float64 scalar that
        # indexing a row returns, and the view holds the same value.
        object.__setattr__(self, "_entries", {
            name: tuple(tables[name][i, ...] for i in range(tables[name].size))
            for name in ("sigma", "_sqrt_abar", "_sqrt_1m_abar", "_full_eps", "_sqrt_alpha",
                         "_euler_eps", "_euler_sigma")})
        object.__setattr__(self, "T", beta.size)

    def _index(self, t: int) -> int:
        """The table index of timestep t in {1..T}."""
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} out of range [1, {self.T}]")
        return t - 1

    def query(self, t: int) -> tuple[float, float, float, float]:
        """Return (beta, alpha, alpha_bar, sigma) at timestep t in {1..T}."""
        i = self._index(t)
        return (
            float(self.beta[i]),
            float(self.alpha[i]),
            float(self.alpha_bar[i]),
            float(self.sigma[i]),
        )

    def alpha_bar_at(self, t: int) -> float:
        """alpha_bar extended to t = 0 (clean data), where it equals 1."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} out of range [0, {self.T}]")
        return float(self.alpha_bar[t - 1])

    def _jump(self, t, z0: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """The closed-form jump sqrt(abar_t) z0 + sqrt(1 - abar_t) eps, unchecked:
        ``t`` is a step in 0..T, or an index array that broadcasts against z0."""
        return self._sqrt_abar[t] * z0 + self._sqrt_1m_abar[t] * eps


def build_schedule(
    kind: str,
    T: int,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> NoiseSchedule:
    """Construct a schedule of the given kind.

    ``linear`` spaces beta evenly from beta_start to beta_end inclusive.
    ``cosine`` uses the squared-cosine alpha_bar curve with offset 0.008 and
    clips beta to [1e-8, 0.999]; beta_start/beta_end are ignored.
    """
    if not isinstance(T, int) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if kind == "linear":
        if not (0.0 < beta_start <= beta_end < 1.0):
            raise ValueError(
                f"linear schedule requires 0 < beta_start <= beta_end < 1, "
                f"got ({beta_start}, {beta_end})"
            )
        # 1 - beta_start rounding to 1 gives abar_1 = 1, where ddpm_full and
        # euler_ancestral divide by zero
        if 1.0 - beta_start == 1.0:
            raise ValueError(f"linear schedule requires 1 - beta_start < 1 in float64, "
                             f"got beta_start={beta_start}")
        beta = np.linspace(beta_start, beta_end, T)
    elif kind == "cosine":
        steps = np.arange(T + 1, dtype=np.float64)
        f = np.cos((steps / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * math.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], _COSINE_BETA_MIN, _COSINE_BETA_MAX)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return NoiseSchedule(beta)
