"""Desk-scale engine for iterative, multi-granular latent editing with
diffusion sampling: variance schedules, exact closed-form denoisers, forward
and reverse sampling loops, a deterministic lossy codec, an edit-session
orchestrator, and quantitative drift/locality/equivalence experiments."""

from .codec import CodecConfig, blur_grid, decode, encode
from .denoiser import (
    EditInstruction,
    GMMEnergy,
    GMMPrior,
    bayes_loss_estimate,
    edit_conditional_eps,
    edit_denoiser,
    gmm_denoiser,
    gmm_eps,
)
from .editor import EditSession, apply_edit, open_session, renormalize_latent, run_all
from .grid import (
    LatentGrid,
    Mask,
    RngStream,
    masked_combine,
    mean_stat,
    read_grid,
    read_mask,
    rmse,
    write_grid,
    write_mask,
)
from .sampler import (
    LangevinConfig,
    SamplerConfig,
    forward_step,
    masked_reverse_step,
    noise_to,
    reverse_step,
    sample,
)
from .schedule import NoiseSchedule, build_schedule
from .training import TinyDenoiser, TrainConfig, train

__all__ = [
    "CodecConfig",
    "EditInstruction",
    "EditSession",
    "GMMEnergy",
    "GMMPrior",
    "LangevinConfig",
    "LatentGrid",
    "Mask",
    "NoiseSchedule",
    "RngStream",
    "SamplerConfig",
    "TinyDenoiser",
    "TrainConfig",
    "apply_edit",
    "bayes_loss_estimate",
    "blur_grid",
    "build_schedule",
    "decode",
    "edit_conditional_eps",
    "edit_denoiser",
    "encode",
    "forward_step",
    "gmm_denoiser",
    "gmm_eps",
    "masked_combine",
    "masked_reverse_step",
    "mean_stat",
    "noise_to",
    "open_session",
    "read_grid",
    "read_mask",
    "renormalize_latent",
    "reverse_step",
    "rmse",
    "run_all",
    "sample",
    "train",
    "write_grid",
    "write_mask",
]
