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
    if strategy == "concat_instructions" and edits:
        # composing the whole chain builds every prefix the session composes
        # later, so a chain whose spread, gain or bias overflows fails here
        try:
            compose_edits(edits, like=LatentGrid.constant(0.0, lat_h, lat_w, image.c))
        except ValueError as exc:
            raise ValueError(f"the concat_instructions chain does not compose: {exc}") from None
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
    return _apply_edits([session])[0]


def _lockstep_fields(session: EditSession) -> dict:
    """What sessions must share to draw the same noise for the same latent
    shape in their next edit."""
    k = session.codec_cfg.downsample
    return {
        "seed": session.seed,
        "e": session.e,
        "latent shape": (session.original.h // k, session.original.w // k, session.original.c),
        "sched": session.sched,
        "sampler_cfg": session.sampler_cfg,
        "mask": session.masks[session.e] if session.masks is not None else None,
        "reuse_init": session.reuse_init,
    }


def _apply_edits(sessions) -> list[LatentGrid]:
    """``apply_edit`` for several sessions at once, stepped in lockstep.

    Sessions that share their seed, edit index, latent shape, schedule,
    sampler config, mask (the same object, or all None) and reuse_init
    draw the same noise for this edit, so one reverse loop over a leading
    member axis draws it once for all of them.  Each session ends in the
    state, and returns the image, that its own ``apply_edit`` would give,
    bit for bit.  A session whose sampled latent diverges fails them all.
    """
    for session in sessions:
        if session.done:
            raise SessionExhausted(
                f"session has already applied all {len(session.edits)} edits"
            )
    if not sessions:
        return []
    shared = _lockstep_fields(sessions[0])
    for session in sessions[1:]:
        for name, value in _lockstep_fields(session).items():
            want = shared[name]
            if not (value is want if name in ("sched", "mask") else value == want):
                raise ValueError(f"sessions cannot step in lockstep: their {name} differs")
    first, shape, mask = sessions[0], shared["latent shape"], shared["mask"]
    z_imgs, edits, factors = zip(*(_conditioning_latent(s) for s in sessions))

    z_init = None
    if first.reuse_init:
        for session in sessions:
            if session.z_init is None:
                session.z_init = LatentGrid(RngStream(session.seed).spawn("init").normal(shape))
        z_init = np.stack([s.z_init.data for s in sessions])

    recon = None
    if mask is not None and first.sampler_cfg.mask_mode == "direction":
        recon_edits = [
            EditInstruction(id="recon", gain=1.0, bias=0.0, target_scale=edit.target_scale)
            for edit in edits
        ]
        recon = edit_denoiser(recon_edits, z_imgs, first.sched)

    z0 = sampler_mod._sample(
        edit_denoiser(edits, z_imgs, first.sched),
        shape,
        first.sched,
        first.sampler_cfg,
        RngStream(first.seed).spawn("edit", first.e),
        md=mask.data[:, :, None] if mask is not None else None,
        src=np.stack([z.data for z in z_imgs]) if mask is not None else None,
        recon=recon,
        z_init=z_init,
        members=(len(sessions),),
    )
    outs = []
    for session, z, f in zip(sessions, z0, factors):
        latent = LatentGrid(z)
        out = codec_mod.decode(latent, session.codec_cfg)
        session.outputs.append(out)
        session.prev_latent = latent
        session.f_history.append(f)
        session.e += 1
        outs.append(out)
    return outs


def run_all(session: EditSession) -> list[LatentGrid]:
    """Apply all remaining edits in order; returns the full output list."""
    while not session.done:
        apply_edit(session)
    return list(session.outputs)
