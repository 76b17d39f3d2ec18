"""Diffusion variance schedules and their per-timestep lookup tables.

Timesteps are 1-indexed: index t in {1..T} addresses the t-th noising step,
and t = 0 denotes clean data (never stored in the tables).
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
    """Per-timestep variance tables, all derived from the 1-d array ``beta``:
    alpha = 1 - beta, the running product alpha_bar, and sigma = sqrt(beta).
    Array index i holds timestep t = i + 1.  Immutable after construction."""

    T: int = field(init=False)
    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)
    sigma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError(f"beta must be a nonempty 1-d array, got shape {beta.shape}")
        alpha = 1.0 - beta
        tables = {"beta": beta, "alpha": alpha, "alpha_bar": np.cumprod(alpha),
                  "sigma": np.sqrt(beta)}
        for name, arr in tables.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "T", beta.size)

    def query(self, t: int) -> tuple[float, float, float, float]:
        """Return (beta, alpha, alpha_bar, sigma) at timestep t in {1..T}."""
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} out of range [1, {self.T}]")
        i = t - 1
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
        beta = np.linspace(beta_start, beta_end, T)
    elif kind == "cosine":
        steps = np.arange(T + 1, dtype=np.float64)
        f = np.cos((steps / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * math.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], _COSINE_BETA_MIN, _COSINE_BETA_MAX)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return NoiseSchedule(beta)
