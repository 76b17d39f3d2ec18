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
from .grid import (
    GridParseError, RngStream, _parse_header, _parse_values, _read_tokens, _write_rows,
)
from .sampler import DivergenceError
from .schedule import NoiseSchedule

PARAM_NAMES = ("W1", "b1", "W2", "b2")
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def time_embedding(T: int, dim: int) -> np.ndarray:
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
            time_embed=time_embedding(T, embed_dim),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    steps: int
    seed: int = 0
    optimizer: str = "sgd"  # sgd | adam

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


def forward(model: TinyDenoiser, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Batched forward pass: z is (B, d), t is (B,) timesteps in {1..T}."""
    x = np.concatenate([z, model.time_embed[t - 1]], axis=1)
    hidden = np.tanh(x @ model.W1.T + model.b1)
    return hidden @ model.W2.T + model.b2


def loss_and_grad(
    model: TinyDenoiser,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    sched: NoiseSchedule,
) -> tuple[float, dict[str, np.ndarray]]:
    """Per-coordinate squared-error loss and exact analytic gradients.

    ``batch`` is (z0, t, eps) with z0, eps of shape (B, d) and integer
    timesteps t of shape (B,); z_t is formed by the closed-form jump.
    """
    z0, t, eps = batch
    if z0.ndim != 2 or z0.shape != eps.shape or t.shape != (z0.shape[0],):
        raise ValueError("batch must be (z0 (B,d), t (B,), eps (B,d))")
    if z0.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    B, d = z0.shape
    abar = sched.alpha_bar[t - 1][:, None]
    z_t = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps

    x = np.concatenate([z_t, model.time_embed[t - 1]], axis=1)  # (B, d+E)
    pre = x @ model.W1.T + model.b1                              # (B, H)
    hidden = np.tanh(pre)
    pred = hidden @ model.W2.T + model.b2                        # (B, d)

    resid = pred - eps
    loss = float(np.add.reduce(resid**2, axis=None) / resid.size)  # np.mean minus its wrapper

    d_pred = 2.0 * resid / (B * d)                               # dL/dpred
    g_W2 = d_pred.T @ hidden
    g_b2 = d_pred.sum(axis=0)
    d_hidden = d_pred @ model.W2
    d_pre = d_hidden * (1.0 - hidden**2)
    g_W1 = d_pre.T @ x
    g_b1 = d_pre.sum(axis=0)
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
    if sched.T != model.T:
        raise ValueError(f"schedule T={sched.T} does not match model T={model.T}")
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
    """Loss on a fresh evaluation batch (no gradient step)."""
    loss, _ = loss_and_grad(model, next(_diffusion_batches(prior, sched, n, rng, 1)), sched)
    return loss


def model_denoiser(model: TinyDenoiser):
    """Denoiser callable for ``sampler.sample`` (a latent of d values) and,
    for a dim-1 model, ``sampler.sample_chains`` (a vector of chains)."""

    def predict(z: np.ndarray, t: int) -> np.ndarray:
        if z.size != model.d and not (model.d == 1 and z.ndim == 1):
            raise ValueError(f"latent has {z.size} values, model expects {model.d}")
        if not 1 <= t <= model.T:
            raise ValueError(f"timestep {t} out of range [1, {model.T}]")
        batch = z.size // model.d
        steps = np.full(batch, t, dtype=np.int64)
        return forward(model, z.reshape(batch, model.d), steps).reshape(z.shape)

    return predict


def save_model(model: TinyDenoiser, path: str) -> None:
    """Serialize as named GRID blocks: ``PARAM <name>`` then the tensor."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for name in (*PARAM_NAMES, "time_embed"):
            arr = getattr(model, name)
            mat = arr if arr.ndim == 2 else arr[None, :]
            fh.write(f"PARAM {name}\n")
            fh.write(f"GRID {mat.shape[0]} {mat.shape[1]} 1\n")
            _write_rows(fh, mat)


def load_model(path: str) -> TinyDenoiser:
    """Read a file written by ``save_model``; raises GridParseError with line context."""
    tensors: dict[str, np.ndarray] = {}
    tokens = _read_tokens(path)
    for lineno, word in tokens:
        _, name = next(tokens, (lineno, None))
        if word != "PARAM" or name is None:
            raise GridParseError(f"{path}: line {lineno}: expected 'PARAM <name>' block")
        rows, cols, chans = _parse_header(tokens, path, "GRID", 3)
        if chans != 1:
            raise GridParseError(f"{path}: parameter {name} must have c=1")
        tensors[name] = _parse_values(tokens, path, rows * cols).reshape(rows, cols)
    missing = {*PARAM_NAMES, "time_embed"} - tensors.keys()
    if missing:
        raise GridParseError(f"{path}: missing parameters {sorted(missing)}")
    return TinyDenoiser(
        W1=tensors["W1"],
        b1=tensors["b1"][0],
        W2=tensors["W2"],
        b2=tensors["b2"][0],
        time_embed=tensors["time_embed"],
    )
