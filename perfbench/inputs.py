"""Seeded input generation.

This module imports numpy but not latentedit: inputs are made by the
benchmark, and the program only receives them.
"""

from __future__ import annotations

import json
import os

import numpy as np

SESSION_EDITS = 4  # alternating unmasked / pin-masked, so two rounds per session


def _write_grid(arr: np.ndarray, path: str) -> None:
    h, w, c = arr.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"GRID {h} {w} {c}\n")
        for row in arr.reshape(h, w * c).tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def _write_mask(arr: np.ndarray, path: str) -> None:
    h, w = arr.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"MASK {h} {w}\n")
        for row in arr.astype(int).tolist():
            fh.write(" ".join(map(str, row)) + "\n")


def session_inputs(seed: int, size: dict, workdir: str) -> str:
    """Write a seeded image, a pin mask and a run-session config; return the
    config path.

    The image is a few low-frequency sinusoids per channel over a DC offset
    near 1.5, plus fine noise, so the latent mean stays well away from zero
    (mean-ratio renormalization is ill-conditioned near zero mean).
    """
    rng = np.random.default_rng([seed, 1])
    n = size["image"]
    yy, xx = np.mgrid[0:n, 0:n] / n
    image = np.empty((n, n, 3))
    for ch in range(3):
        field = np.full((n, n), 1.5 + rng.uniform(-0.3, 0.3))
        for _ in range(3):
            fx, fy = rng.integers(1, 6, size=2)
            px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
            amp = rng.uniform(0.3, 0.9)
            field += amp * np.sin(2 * np.pi * fx * xx + px) * np.sin(2 * np.pi * fy * yy + py)
        image[:, :, ch] = field + 0.15 * rng.standard_normal((n, n))

    lat = n // 2
    mask = np.zeros((lat, lat))
    mh, mw = rng.integers(lat // 4, lat // 2 + 1, size=2)
    top, left = rng.integers(0, lat - mh + 1), rng.integers(0, lat - mw + 1)
    mask[top : top + mh, left : left + mw] = 1.0

    _write_grid(image, os.path.join(workdir, "input.grid"))
    _write_mask(mask, os.path.join(workdir, "mask.grid"))
    edits = []
    for i in range(SESSION_EDITS):
        edit = {
            "id": f"edit{i + 1}",
            "gain": float(rng.uniform(0.85, 1.15)),
            "bias": float(rng.uniform(-0.4, 0.4)),
            "scale": 0.08,
        }
        if i % 2 == 1:
            edit["mask"] = "mask.grid"
        edits.append(edit)
    config = {
        "seed": int(seed),
        "schedule": {"kind": "linear", "T": size["T"]},
        "sampler": {"method": "ddpm_full", "mask_mode": "pin"},
        "session": {"input": "input.grid", "strategy": "latent_iteration", "edits": edits},
    }
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(config, fh, indent=2)
    return path
