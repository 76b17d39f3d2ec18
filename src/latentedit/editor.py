"""Edit-session orchestration: apply a sequence of affine edits to an image
through the encode / denoise / decode pipeline under one of four iteration
strategies.

latent_iteration     condition each edit on the previous edit's output latent, renormalized
                     against the decoded image recorded for it; the input is encoded once.
image_iteration      re-encode the latest decoded output before each edit.
concat_instructions  always condition on the original image's latent, with
                     all edits so far as one composed operator, built at open.
blur_baseline        like image_iteration, but the output image gets one
                     binomial blur pass before re-encoding.

Each edit consumes random streams derived from (seed, edit index), so a
session is reproducible and partially-run sessions continue identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import codec as codec_mod
from . import sampler as sampler_mod
from .codec import CodecConfig
from .denoiser import EditInstruction, compose_edits, edit_denoiser, identity_edit
from .grid import LatentGrid, Mask, RngStream, _NonFiniteGrid, mean_stat
from .sampler import DivergenceError, SamplerConfig
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
    masks: list[Mask | None]
    strategy: str
    sched: NoiseSchedule
    sampler_cfg: SamplerConfig
    codec_cfg: CodecConfig
    seed: int
    reuse_init: bool = False
    e: int = 0
    prev_latent: LatentGrid | None = None
    # one record per applied edit: image, renorm factor, output latent (mean, std)
    outputs: list[LatentGrid] = field(default_factory=list)
    f_history: list[float] = field(default_factory=list)
    latent_stats: list[tuple[float, float]] = field(default_factory=list)
    prefixes: list[EditInstruction] = field(default_factory=list)
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
    """Validate inputs and return a session at e = 0 with no outputs; no
    ``masks`` is a list of one None per edit."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    edits = list(edits)
    shape = codec_mod._latent_shape(image, codec_cfg)
    for i, edit in enumerate(edits):
        if edit.gain.size not in (1, image.c):
            raise ValueError(f"edit {i} gain has {edit.gain.size} channels, latent has {image.c}")
        if isinstance(edit.bias, LatentGrid) and edit.bias.shape != shape:
            raise ValueError(f"edit {i} bias grid is {edit.bias.shape}, latent is {shape}")
    prefixes = []
    if strategy == "concat_instructions":
        # every prefix the session conditions on; a chain that overflows fails here
        like = LatentGrid.constant(0.0, *shape)
        try:
            prefixes = list(accumulate(edits, lambda a, b: compose_edits([a, b], like=like)))
        except ValueError as exc:
            raise ValueError(f"the concat_instructions chain does not compose: {exc}") from None
    masks = [None] * len(edits) if masks is None else list(masks)
    if len(masks) != len(edits):
        raise ValueError(f"got {len(masks)} masks for {len(edits)} edits")
    for i, m in enumerate(masks):
        if m is not None and (m.h, m.w) != shape[:2]:
            raise ValueError(f"mask {i} is {m.h}x{m.w}, latent space is {shape[0]}x{shape[1]}")
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
        prefixes=prefixes,
    )


def renormalize_latent(z: LatentGrid, image: LatentGrid,
                       codec_cfg: CodecConfig) -> tuple[LatentGrid, float]:
    """Rescale z so its mean matches the mean of ``image``, z's decoded image
    (a session passes the one it recorded), encoded again: one decode/encode
    round trip of z; returns (rescaled latent, factor).  The round trip gives
    only that scalar; the latent values are never replaced.  Means below the
    absolute floor, or small against the latent's RMS, disable scaling (factor 1)."""
    d = mean_stat(z)
    if abs(d) < RENORM_MEAN_FLOOR or (
        abs(d) < RENORM_MEAN_REL_FLOOR * np.sqrt(np.mean(z.data**2))
    ):
        return z, 1.0
    r = mean_stat(codec_mod.encode(image, codec_cfg))
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
        z_img, f = renormalize_latent(session.prev_latent, session.outputs[-1], cfg)
        return z_img, edit, f
    if session.strategy in ("image_iteration", "blur_baseline"):
        source = session.original if e == 0 else session.outputs[-1]
        if e and session.strategy == "blur_baseline":
            source = codec_mod.blur_grid(source)
        session.encode_calls += 1
        return codec_mod.encode(source, cfg), edit, 1.0
    # concat_instructions: original latent (encoded once), composed condition
    if session.original_latent is None:
        session.encode_calls += 1
        session.original_latent = codec_mod.encode(session.original, cfg)
    return session.original_latent, session.prefixes[e], 1.0


def apply_edit(session: EditSession) -> LatentGrid:
    """Run the next edit; appends the decoded image, stores the output latent
    as prev_latent, advances e, and returns the edited image."""
    return _apply_edits([session])[0]


def _lockstep_fields(session: EditSession) -> dict:
    """What sessions must share to draw the same noise for the same latent
    shape in their next edit."""
    return {
        "seed": session.seed,
        "e": session.e,
        "latent shape": codec_mod._latent_shape(session.original, session.codec_cfg),
        "sched": session.sched,
        "sampler_cfg": session.sampler_cfg,
        "mask": session.masks[session.e],
        "reuse_init": session.reuse_init,
    }


# overflow on the way to a non-finite grid is reported by DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def _apply_edits(sessions) -> list[LatentGrid]:
    """``apply_edit`` for several sessions at once, stepped in lockstep.

    Sessions that share their seed, edit index, latent shape, schedule,
    sampler config, mask (the same object, or all None) and reuse_init
    draw the same noise for this edit, so one reverse loop over a leading
    member axis draws it once for all of them.  Each session ends in the
    state, and returns the image, that its own ``apply_edit`` would give,
    bit for bit.  A session whose sampled latent diverges fails them all,
    as does one whose target mean, renormalized latent or decoded image
    overflows, or whose output latent's mean or spread does; that
    DivergenceError names the edit, and no session advances.
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
    e = first.e
    try:
        z_imgs, edits, factors = zip(*(_conditioning_latent(s) for s in sessions))

        # members share their seed, so one draw serves them all
        z_init = RngStream(first.seed).spawn("init").normal(shape) if first.reuse_init else None

        recon = None
        if mask is not None and first.sampler_cfg.mask_mode == "direction":
            recon_edits = [identity_edit(edit.target_scale) for edit in edits]
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
        latents = [LatentGrid(z) for z in z0]
        stats = [(mean_stat(latent), float(latent.data.std())) for latent in latents]
        # a finite spread implies a finite mean, which renormalize_latent divides by
        if not all(np.isfinite(std) for _, std in stats):
            raise _NonFiniteGrid("an output latent's mean or spread overflows")
        outs = [codec_mod.decode(latent, s.codec_cfg) for s, latent in zip(sessions, latents)]
        for session, latent, out, f, stat in zip(sessions, latents, outs, factors, stats):
            session.outputs.append(out)
            session.prev_latent = latent
            session.f_history.append(f)
            session.latent_stats.append(stat)
            session.e += 1
        return outs
    except _NonFiniteGrid:
        raise DivergenceError(f"edit {e + 1} ({first.edits[e].id}) overflows: "
                              "its target mean, latent or image is not finite") from None


def run_all(session: EditSession) -> list[LatentGrid]:
    """Apply all remaining edits in order; returns the full output list."""
    while not session.done:
        apply_edit(session)
    return list(session.outputs)
