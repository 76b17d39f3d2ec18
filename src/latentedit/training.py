"""A tiny trainable noise predictor with hand-derived gradients.

Two-layer tanh MLP over the flattened latent concatenated with a fixed
sinusoidal timestep embedding.  The loss is the per-coordinate squared
noise-prediction error, so trained models compare directly against
``denoiser.bayes_loss_estimate``.  Gradients are analytic and validated by
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import GMMPrior, _diffusion_batches
from .grid import RngStream, _write_block
from .sampler import DivergenceError
from .schedule import NoiseSchedule

PARAM_NAMES = ("W1", "b1", "W2", "b2")
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def _time_embedding(T: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal table, row t-1 holds the embedding of timestep t."""
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    t = np.arange(1, T + 1, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freq = np.exp(-np.log(10000.0) * (np.arange(half) / half))[None, :]
    emb = np.empty((T, dim))
    emb[:, 0::2] = np.sin(t * freq)
    emb[:, 1::2] = np.cos(t * freq[:, : dim // 2])
    return emb


@dataclass
class TinyDenoiser:
    """eps_hat = W2 tanh(W1 [z; emb(t)] + b1) + b2 on flattened latents."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    time_embed: np.ndarray

    @property
    def d(self) -> int:
        return self.W2.shape[0]

    @property
    def T(self) -> int:
        return self.time_embed.shape[0]

    @classmethod
    def init(
        cls, d: int, T: int, hidden: int = 64, embed_dim: int = 8, seed: int = 0
    ) -> "TinyDenoiser":
        """Gaussian init, scale 1/sqrt(fan-in), from a dedicated stream."""
        if d < 1 or d > 64:
            raise ValueError(f"flattened latent dim must be in [1, 64], got {d}")
        rng = RngStream(seed).spawn("model-init")
        fan1 = d + embed_dim
        return cls(
            W1=rng.normal((hidden, fan1)) / np.sqrt(fan1),
            b1=np.zeros(hidden),
            W2=rng.normal((d, hidden)) / np.sqrt(hidden),
            b2=np.zeros(d),
            time_embed=_time_embedding(T, embed_dim),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    steps: int
    optimizer: str  # sgd | adam
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


def _check_schedule(model: TinyDenoiser, sched: NoiseSchedule) -> None:
    """The schedule must have the model's T: its rows pair with the time table's."""
    if sched.T != model.T:
        raise ValueError(f"schedule T={sched.T} does not match model T={model.T}")


def _time_rows(model: TinyDenoiser, t: np.ndarray) -> np.ndarray:
    """The time table's rows for timesteps t, after checking each is in {1..T}."""
    bad = t[(t < 1) | (t > model.T)]
    if bad.size:
        raise ValueError(f"timestep {bad[0]} out of range [1, {model.T}]")
    return model.time_embed[t - 1]


def _layers(model: TinyDenoiser, z: np.ndarray, emb: np.ndarray):
    """(x, hidden, pred): the input [z; emb], the tanh layer and the prediction."""
    x = np.concatenate([z, emb], axis=1)
    hidden = np.tanh(x @ model.W1.T + model.b1)
    return x, hidden, hidden @ model.W2.T + model.b2


def forward(model: TinyDenoiser, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Batched forward pass: z is (B, d), t is (B,) timesteps in {1..T}."""
    if z.ndim != 2 or z.shape[1] != model.d:
        raise ValueError(f"latent has shape {z.shape}, model expects {model.d} values a row")
    return _layers(model, z, _time_rows(model, t))[2]


def loss_and_grad(
    model: TinyDenoiser,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    sched: NoiseSchedule,
) -> tuple[float, dict[str, np.ndarray]]:
    """Per-coordinate squared-error loss and exact analytic gradients.

    ``batch`` is (z0, t, eps) with z0, eps of shape (B, d) and integer
    timesteps t in {1..T} of shape (B,); z_t is formed by the closed-form jump
    of ``sched``, which must have the model's T.
    """
    z0, t, eps = batch
    if z0.ndim != 2 or z0.shape != eps.shape or t.shape != (z0.shape[0],):
        raise ValueError("batch must be (z0 (B,d), t (B,), eps (B,d))")
    if z0.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    B, d = z0.shape
    _check_schedule(model, sched)
    emb = _time_rows(model, t)  # checks t before _jump reads a row
    x, hidden, pred = _layers(model, sched._jump(t[:, None], z0, eps), emb)

    resid = pred - eps
    loss = float(np.add.reduce(resid**2, axis=None) / resid.size)  # np.mean minus its wrapper

    d_pred = 2.0 * resid / (B * d)                               # dL/dpred
    g_W2 = d_pred.T @ hidden
    g_b2 = np.add.reduce(d_pred, axis=0)  # .sum(axis=0) minus its wrapper
    d_hidden = d_pred @ model.W2
    d_pre = d_hidden * (1.0 - hidden**2)
    g_W1 = d_pre.T @ x
    g_b1 = np.add.reduce(d_pre, axis=0)
    return loss, {"W1": g_W1, "b1": g_b1, "W2": g_W2, "b2": g_b2}


def train(
    model: TinyDenoiser,
    prior: GMMPrior,
    sched: NoiseSchedule,
    cfg: TrainConfig,
) -> tuple[TinyDenoiser, np.ndarray]:
    """Optimize on freshly sampled batches; returns (trained copy, loss trace).
    SGD and Adam step one flat vector that the parameters are views of."""
    if prior.dim != model.d:
        raise ValueError(f"prior dim {prior.dim} does not match model dim {model.d}")
    _check_schedule(model, sched)
    params = [getattr(model, name) for name in PARAM_NAMES]
    flat = np.concatenate([p.ravel() for p in params])
    parts = np.split(flat, np.cumsum([p.size for p in params])[:-1])
    work = TinyDenoiser(*(part.reshape(p.shape) for part, p in zip(parts, params)),
                        model.time_embed.copy())
    rng = RngStream(cfg.seed).spawn("train")
    trace = np.empty(cfg.steps)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    batches = _diffusion_batches(prior, sched, cfg.batch_size, rng, cfg.steps)
    # overflow on the way to a non-finite loss is reported by DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch in enumerate(batches):
            loss, grads = loss_and_grad(work, batch, sched)
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became non-finite at step {step + 1}")
            trace[step] = loss
            g = np.concatenate([grads[name].ravel() for name in PARAM_NAMES])
            if cfg.optimizer == "sgd":
                flat -= cfg.learning_rate * g
            else:
                k = step + 1
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g**2
                flat -= cfg.learning_rate * (m / (1 - b1**k)) / (np.sqrt(v / (1 - b2**k)) + _ADAM_EPS)
    # a loss is checked before each update, so only the last update can go unseen
    if not np.isfinite(flat).all():
        raise DivergenceError(f"training parameters became non-finite at step {cfg.steps}")
    return TinyDenoiser(*(p.copy() for p in work.params().values()), work.time_embed), trace


def heldout_loss(
    model: TinyDenoiser,
    prior: GMMPrior,
    sched: NoiseSchedule,
    n: int,
    rng: RngStream,
) -> float:
    """Loss on a fresh evaluation batch (no gradient step); ``sched`` must
    have the model's T."""
    loss, _ = loss_and_grad(model, next(_diffusion_batches(prior, sched, n, rng, 1)), sched)
    return loss


def save_model(model: TinyDenoiser, path: str) -> None:
    """Serialize as named GRID blocks: ``PARAM <name>`` then the tensor."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for name in (*PARAM_NAMES, "time_embed"):
            arr = getattr(model, name)
            mat = arr if arr.ndim == 2 else arr[None, :]
            fh.write(f"PARAM {name}\n")
            _write_block(fh, f"GRID {mat.shape[0]} {mat.shape[1]} 1", mat)

