"""Edit-session orchestration: apply a sequence of affine edits to an image
through the encode / denoise / decode pipeline under one of four iteration
strategies.

latent_iteration     condition each edit on the previous edit's output latent
                     (renormalized); the image is encoded exactly once.
image_iteration      re-encode the latest decoded output before each edit.
concat_instructions  always condition on the original image's latent, with
                     all edits so far collapsed into one composed operator.
blur_baseline        like image_iteration, but the output image gets one
                     binomial blur pass before re-encoding.

Each edit consumes random streams derived from (seed, edit index), so a
session is reproducible and partially-run sessions continue identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec as codec_mod
from . import sampler as sampler_mod
from .codec import CodecConfig
from .denoiser import EditInstruction, compose_edits, edit_denoiser
from .grid import LatentGrid, Mask, RngStream, mean_stat
from .sampler import SamplerConfig
from .schedule import NoiseSchedule

STRATEGIES = ("latent_iteration", "image_iteration", "concat_instructions", "blur_baseline")

RENORM_MEAN_FLOOR = 1e-8
# |mean| below this fraction of the latent's RMS also disables scaling: there
# the round-trip's own mean error would dominate the factor r / d.
RENORM_MEAN_REL_FLOOR = 0.05


class SessionExhausted(ValueError):
    """apply_edit was called after all edits were consumed."""


@dataclass
class EditSession:
    """Mutable state of one editing run; single-owner, not thread-safe."""

    original: LatentGrid
    edits: list[EditInstruction]
    masks: list[Mask | None] | None
    strategy: str
    sched: NoiseSchedule
    sampler_cfg: SamplerConfig
    codec_cfg: CodecConfig
    seed: int
    reuse_init: bool = False
    e: int = 0
    prev_latent: LatentGrid | None = None
    outputs: list[LatentGrid] = field(default_factory=list)
    f_history: list[float] = field(default_factory=list)
    z_init: LatentGrid | None = None
    original_latent: LatentGrid | None = None
    encode_calls: int = 0
    renorm_roundtrips: int = 0

    @property
    def done(self) -> bool:
        return self.e >= len(self.edits)


def open_session(
    image: LatentGrid,
    edits,
    masks=None,
    *,
    sched: NoiseSchedule,
    sampler_cfg: SamplerConfig,
    codec_cfg: CodecConfig,
    strategy: str = "latent_iteration",
    seed: int = 0,
    reuse_init: bool = False,
) -> EditSession:
    """Validate inputs and return a session at e = 0 with no outputs."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    edits = list(edits)
    k = codec_cfg.downsample
    if image.h % k or image.w % k:
        raise ValueError(
            f"image dims {image.h}x{image.w} not divisible by codec factor {k}"
        )
    lat_h, lat_w = image.h // k, image.w // k
    for i, edit in enumerate(edits):
        if edit.gain.size not in (1, image.c):
            raise ValueError(f"edit {i} gain has {edit.gain.size} channels, latent has {image.c}")
        if isinstance(edit.bias, LatentGrid) and edit.bias.shape != (lat_h, lat_w, image.c):
            raise ValueError(
                f"edit {i} bias grid is {edit.bias.shape}, latent is {(lat_h, lat_w, image.c)}"
            )
    if masks is not None:
        masks = list(masks)
        if len(masks) != len(edits):
            raise ValueError(f"got {len(masks)} masks for {len(edits)} edits")
        for i, m in enumerate(masks):
            if m is not None and (m.h, m.w) != (lat_h, lat_w):
                raise ValueError(
                    f"mask {i} is {m.h}x{m.w}, latent space is {lat_h}x{lat_w}"
                )
    return EditSession(
        original=image,
        edits=edits,
        masks=masks,
        strategy=strategy,
        sched=sched,
        sampler_cfg=sampler_cfg,
        codec_cfg=codec_cfg,
        seed=int(seed),
        reuse_init=reuse_init,
    )


def renormalize_latent(z: LatentGrid, codec_cfg: CodecConfig) -> tuple[LatentGrid, float]:
    """Rescale z so its mean matches the mean of one decode/encode round-trip
    of itself; returns (rescaled latent, factor).  The round-trip is used only
    for that scalar; the latent values themselves are never replaced.  Means
    below the absolute floor, or small against the latent's RMS, disable
    scaling (factor 1)."""
    d = mean_stat(z)
    if abs(d) < RENORM_MEAN_FLOOR or (
        abs(d) < RENORM_MEAN_REL_FLOOR * np.sqrt(np.mean(z.data**2))
    ):
        return z, 1.0
    r = mean_stat(codec_mod.encode(codec_mod.decode(z, codec_cfg), codec_cfg))
    f = r / d
    return LatentGrid(z.data * f), f


def _conditioning_latent(session: EditSession) -> tuple[LatentGrid, EditInstruction, float]:
    """Resolve (z_img, effective edit, renorm factor) for the current step."""
    e = session.e
    edit = session.edits[e]
    cfg = session.codec_cfg
    if session.strategy == "latent_iteration":
        if e == 0:
            session.encode_calls += 1
            return codec_mod.encode(session.original, cfg), edit, 1.0
        session.renorm_roundtrips += 1
        z_img, f = renormalize_latent(session.prev_latent, cfg)
        return z_img, edit, f
    if session.strategy == "image_iteration":
        source = session.original if e == 0 else session.outputs[-1]
        session.encode_calls += 1
        return codec_mod.encode(source, cfg), edit, 1.0
    if session.strategy == "blur_baseline":
        source = session.original if e == 0 else codec_mod.blur_grid(session.outputs[-1])
        session.encode_calls += 1
        return codec_mod.encode(source, cfg), edit, 1.0
    # concat_instructions: original latent (encoded once), composed condition
    if session.original_latent is None:
        session.encode_calls += 1
        session.original_latent = codec_mod.encode(session.original, cfg)
    z_img = session.original_latent
    composed = compose_edits(session.edits[: e + 1], like=z_img)
    return z_img, composed, 1.0


def apply_edit(session: EditSession) -> LatentGrid:
    """Run the next edit; appends the decoded image, stores the output latent
    as prev_latent, advances e, and returns the edited image."""
    if session.done:
        raise SessionExhausted(
            f"session has already applied all {len(session.edits)} edits"
        )
    e = session.e
    z_img, edit, f = _conditioning_latent(session)
    mask = session.masks[e] if session.masks is not None else None

    edit_rng = RngStream(session.seed).spawn("edit", e)
    if session.reuse_init:
        if session.z_init is None:
            session.z_init = LatentGrid(
                RngStream(session.seed).spawn("init").normal(z_img.shape)
            )
        z_init = session.z_init
    else:
        z_init = None

    recon = None
    if mask is not None and session.sampler_cfg.mask_mode == "direction":
        recon_edit = EditInstruction(
            id="recon", gain=1.0, bias=0.0, target_scale=edit.target_scale
        )
        recon = edit_denoiser(recon_edit, z_img, session.sched)

    z0 = sampler_mod.sample(
        edit_denoiser(edit, z_img, session.sched),
        z_img.shape,
        session.sched,
        session.sampler_cfg,
        edit_rng,
        mask=mask,
        z_src=z_img,
        recon_denoiser=recon,
        z_init=z_init,
    )
    out = codec_mod.decode(z0, session.codec_cfg)
    session.outputs.append(out)
    session.prev_latent = z0
    session.f_history.append(f)
    session.e += 1
    return out


def run_all(session: EditSession) -> list[LatentGrid]:
    """Apply all remaining edits in order; returns the full output list."""
    while not session.done:
        apply_edit(session)
    return list(session.outputs)
