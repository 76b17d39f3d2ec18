"""Quantitative experiments: drift across iteration strategies, edit
locality across mask modes, and the Langevin/diffusion moment-equivalence
check.  All experiments are deterministic functions of their seeds and
emit fixed-schema reports.

Report CSV schemas:
  drift     strategy,step,rmse_vs_origin,rmse_vs_prev,latent_mean,latent_std
  locality  mode,inside_rms,outside_rms,ratio
  ebm       prior,chains,diffusion_mean,diffusion_var,langevin_mean,
            langevin_var,mean_gap,var_gap_rel,pass
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import editor as editor_mod
from . import sampler as sampler_mod
from .codec import CodecConfig
from .denoiser import EditInstruction, GMMEnergy, GMMPrior, gmm_chain_denoiser
from .grid import LatentGrid, Mask, RngStream, mean_stat, rmse
from .sampler import LangevinConfig, SamplerConfig
from .schedule import NoiseSchedule

EBM_MEAN_TOL = 0.1
EBM_VAR_REL_TOL = 0.10
DEFAULT_EDIT_NOISE = 0.08


class Report:
    """Ordered rows under a fixed column schema; CSV/JSON serializable."""

    columns: tuple[str, ...] = ()

    def __init__(self, rows=()):
        self.rows = [tuple(r) for r in rows]
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError(f"row {r} does not match columns {self.columns}")

    def __len__(self):
        return len(self.rows)


class DriftReport(Report):
    columns = ("strategy", "step", "rmse_vs_origin", "rmse_vs_prev", "latent_mean", "latent_std")


class LocalityReport(Report):
    columns = ("mode", "inside_rms", "outside_rms", "ratio")


class EbmReport(Report):
    columns = (
        "prior", "chains", "diffusion_mean", "diffusion_var",
        "langevin_mean", "langevin_var", "mean_gap", "var_gap_rel", "pass",
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(report: Report, path: str, fmt: str = "csv") -> None:
    """Write a report as CSV (documented header, one line per row) or as a
    JSON array of row objects.  Field order is the schema order."""
    if fmt == "csv":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(report.columns) + "\n")
            for row in report.rows:
                fh.write(",".join(_format_cell(v) for v in row) + "\n")
    elif fmt == "json":
        payload = [dict(zip(report.columns, row)) for row in report.rows]
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def identity_edit(noise_scale: float) -> EditInstruction:
    """The null instruction: keep the latent, with the given target spread.

    A nonzero spread makes each denoising pass contribute the stochastic
    artifacts that iteration strategies are meant to manage; zero spread
    makes the pipeline exactly deterministic.
    """
    return EditInstruction(id="identity", gain=1.0, bias=0.0, target_scale=noise_scale)


def drift_experiment(
    fixture: LatentGrid,
    strategies,
    steps: int,
    *,
    sched: NoiseSchedule,
    sampler_cfg: SamplerConfig,
    codec_cfg: CodecConfig,
    seed: int = 0,
    edit_noise: float = DEFAULT_EDIT_NOISE,
) -> DriftReport:
    """Run one session per strategy with ``steps`` identity edits under a
    shared seed; report per-step RMSE against the original image and the
    previous output, plus latent statistics."""
    if steps < 2:
        raise ValueError(f"drift experiment needs steps >= 2, got {steps}")
    rows = []
    for strategy in strategies:
        session = editor_mod.open_session(
            fixture,
            [identity_edit(edit_noise) for _ in range(steps)],
            sched=sched,
            sampler_cfg=sampler_cfg,
            codec_cfg=codec_cfg,
            strategy=strategy,
            seed=seed,
        )
        prev = fixture
        for step in range(1, steps + 1):
            out = editor_mod.apply_edit(session)
            latent = session.prev_latent
            rows.append((
                strategy,
                step,
                rmse(out, fixture),
                rmse(out, prev),
                mean_stat(latent),
                float(latent.data.std()),
            ))
            prev = out
    return DriftReport(rows)


def locality_experiment(
    fixture: LatentGrid,
    edit: EditInstruction,
    mask: Mask,
    modes,
    *,
    sched: NoiseSchedule,
    sampler_cfg: SamplerConfig,
    codec_cfg: CodecConfig,
    seed: int = 0,
) -> LocalityReport:
    """Apply one edit per mask mode plus an unmasked control; measure RMS
    latent change inside and outside the mask region."""

    from .codec import encode

    z_src = encode(fixture, codec_cfg)

    def run(mode: str | None) -> LatentGrid:
        cfg = sampler_cfg if mode is None else dataclasses.replace(sampler_cfg, mask_mode=mode)
        session = editor_mod.open_session(
            fixture,
            [edit],
            None if mode is None else [mask],
            sched=sched,
            sampler_cfg=cfg,
            codec_cfg=codec_cfg,
            strategy="latent_iteration",
            seed=seed,
        )
        editor_mod.apply_edit(session)
        return session.prev_latent

    def region_rms(delta: np.ndarray, sel: np.ndarray) -> float:
        values = delta[np.broadcast_to(sel, delta.shape)]
        return float(np.sqrt(np.mean(values**2))) if values.size else 0.0

    rows = []
    for mode in (*modes, None):
        z_out = run(mode)
        delta = z_out.data - z_src.data
        inside_sel = mask.data[:, :, None] > 0.5
        inside = region_rms(delta, inside_sel)
        outside = region_rms(delta, ~inside_sel)
        ratio = outside / inside if inside > 0 else None
        rows.append((mode if mode is not None else "unmasked", inside, outside, ratio))
    return LocalityReport(rows)


def ebm_equivalence_experiment(
    prior: GMMPrior,
    sched: NoiseSchedule,
    langevin_cfg: LangevinConfig,
    n_chains: int,
    *,
    sampler_cfg: SamplerConfig | None = None,
    seed: int = 0,
    label: str = "prior",
) -> EbmReport:
    """Compare moments of diffusion sampling (analytic denoiser, prior-matched
    start) against Langevin sampling of the exact energy."""
    if n_chains < 1:
        raise ValueError(f"chain count must be >= 1, got {n_chains}")
    if prior.dim != 1:
        raise ValueError("equivalence experiment uses scalar (1x1x1) priors")
    cfg = sampler_cfg or SamplerConfig()
    rng = RngStream(seed)
    diff = sampler_mod.sample_chains(
        gmm_chain_denoiser(prior, sched), n_chains, sched, cfg,
        rng.spawn("diffusion"), prior_init=prior,
    )
    energy = GMMEnergy(prior)
    init = rng.spawn("langevin-init").normal((n_chains,))
    lang = sampler_mod.langevin_chains(energy.grad_chain, langevin_cfg, init, rng.spawn("langevin"))
    d_mean, d_var = float(diff.mean()), float(diff.var())
    l_mean, l_var = float(lang.mean()), float(lang.var())
    mean_gap = abs(d_mean - l_mean)
    var_gap = abs(d_var - l_var) / d_var
    ok = mean_gap <= EBM_MEAN_TOL and var_gap <= EBM_VAR_REL_TOL
    row = (label, n_chains, d_mean, d_var, l_mean, l_var, mean_gap, var_gap, ok)
    return EbmReport([row])
