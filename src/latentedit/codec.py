"""Deterministic lossy autoencoder: blur + block-average + quantize on the
way down, nearest-neighbor upsample + unsharp on the way up.

Pure quantization would be idempotent; the blur/unsharp pair is what makes
repeated round-trips keep moving, so iterated encode/decode accumulates
measurable drift.  All kernels use replicate padding at the borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import LatentGrid, rmse


@dataclass(frozen=True)
class CodecConfig:
    downsample: int = 2       # k: block size, must divide image dims
    levels: int = 32          # Q: quantization levels over [-clamp, clamp]
    clamp: float = 4.0        # R
    unsharp: float = 0.15     # u: post-upsample high-boost gain

    def __post_init__(self) -> None:
        if self.downsample < 1:
            raise ValueError(f"downsample factor must be >= 1, got {self.downsample}")
        if self.levels < 2:
            raise ValueError(f"quantization levels must be >= 2, got {self.levels}")
        if not self.clamp > 0 or not np.isfinite(self.cell):
            raise ValueError(f"clamp range must be > 0 with a finite cell 2 * clamp / levels, "
                             f"got {self.clamp}")
        if not 0.0 <= self.unsharp < 1.0:
            raise ValueError(f"unsharp gain must be in [0, 1), got {self.unsharp}")

    @property
    def cell(self) -> float:
        """Width of one quantization cell."""
        return 2.0 * self.clamp / self.levels

    def lattice(self) -> np.ndarray:
        """The Q midpoint reconstruction values in [-clamp, clamp]."""
        return -self.clamp + (np.arange(self.levels) + 0.5) * self.cell


def blur_grid(g: LatentGrid) -> LatentGrid:
    """One pass of the separable binomial [1,2,1]/4 kernel per channel."""
    return LatentGrid(_blur(g.data))


def _blur(arr: np.ndarray) -> np.ndarray:
    padded = np.pad(arr, ((1, 1), (1, 1), (0, 0)), mode="edge")
    rows = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
    return (rows[:, :-2] + 2.0 * rows[:, 1:-1] + rows[:, 2:]) / 4.0


def _quantize(arr: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    clipped = np.clip(arr, -cfg.clamp, cfg.clamp)
    idx = np.clip(np.floor((clipped + cfg.clamp) / cfg.cell), 0, cfg.levels - 1)
    return -cfg.clamp + (idx + 0.5) * cfg.cell


def encode(image: LatentGrid, cfg: CodecConfig) -> LatentGrid:
    """blur -> k x k block average -> clamp -> quantize to lattice midpoints."""
    k = cfg.downsample
    if image.h % k or image.w % k:
        raise ValueError(
            f"image dims {image.h}x{image.w} not divisible by downsample factor {k}"
        )
    blurred = _blur(image.data)
    pooled = blurred.reshape(image.h // k, k, image.w // k, k, image.c).mean(axis=(1, 3))
    return LatentGrid(_quantize(pooled, cfg))


def decode(latent: LatentGrid, cfg: CodecConfig) -> LatentGrid:
    """Nearest-neighbor k-fold upsample, then unsharp: x + u * (x - blur(x))."""
    k = cfg.downsample
    up = np.repeat(np.repeat(latent.data, k, axis=0), k, axis=1)
    return LatentGrid(up + cfg.unsharp * (up - _blur(up)))


def roundtrip_drift(image: LatentGrid, n: int, cfg: CodecConfig) -> list[float]:
    """Iterate x <- decode(encode(x)) n times; RMSE against the original
    after each pass."""
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    drift = []
    x = image
    for _ in range(n):
        x = decode(encode(x, cfg), cfg)
        drift.append(rmse(x, image))
    return drift
