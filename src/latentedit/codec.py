"""Deterministic lossy autoencoder: blur + block-average + quantize on the
way down, nearest-neighbor upsample + unsharp on the way up.

Pure quantization would be idempotent; the blur/unsharp pair is what makes
repeated round-trips keep moving, so iterated encode/decode accumulates
measurable drift.  All kernels use replicate padding at the borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import LatentGrid


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


def blur_grid(g: LatentGrid) -> LatentGrid:
    """One pass of the separable binomial [1,2,1]/4 kernel per channel."""
    return LatentGrid(_blur(g.data))


def _blur(arr: np.ndarray) -> np.ndarray:
    # Edges replicated one axis at a time: the vertical pass of a padded edge
    # column is the edge column of the vertical pass, so np.pad's bits.
    padded = np.concatenate((arr[:1], arr, arr[-1:]))
    rows = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
    padded = np.concatenate((rows[:, :1], rows, rows[:, -1:]), axis=1)
    return (padded[:, :-2] + 2.0 * padded[:, 1:-1] + padded[:, 2:]) / 4.0


def _quantize(arr: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    clipped = np.clip(arr, -cfg.clamp, cfg.clamp)
    idx = np.clip(np.floor((clipped + cfg.clamp) / cfg.cell), 0, cfg.levels - 1)
    return -cfg.clamp + (idx + 0.5) * cfg.cell


def _latent_shape(image: LatentGrid, cfg: CodecConfig) -> tuple[int, int, int]:
    """The (h, w, c) of ``image``'s latent; the block size must divide h and w."""
    k = cfg.downsample
    if image.h % k or image.w % k:
        raise ValueError(f"image dims {image.h}x{image.w} not divisible by downsample factor {k}")
    return image.h // k, image.w // k, image.c


def encode(image: LatentGrid, cfg: CodecConfig) -> LatentGrid:
    """blur -> k x k block average -> clamp -> quantize to lattice midpoints."""
    h, w, c = _latent_shape(image, cfg)
    k = cfg.downsample
    pooled = _blur(image.data).reshape(h, k, w, k, c).mean(axis=(1, 3))
    return LatentGrid(_quantize(pooled, cfg))


def decode(latent: LatentGrid, cfg: CodecConfig) -> LatentGrid:
    """Nearest-neighbor k-fold upsample, then unsharp: x + u * (x - blur(x))."""
    k = cfg.downsample
    up = np.repeat(np.repeat(latent.data, k, axis=0), k, axis=1)
    return LatentGrid(up + cfg.unsharp * (up - _blur(up)))

