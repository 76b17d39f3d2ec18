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

from .denoiser import GMMPrior
from .grid import (
    GridParseError, LatentGrid, RngStream, _parse_header, _parse_values, _read_tokens, _write_rows,
)
from .sampler import DivergenceError
from .schedule import NoiseSchedule

PARAM_NAMES = ("W1", "b1", "W2", "b2")


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
    def hidden(self) -> int:
        return self.W1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.time_embed.shape[1]

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

    def copy(self) -> "TinyDenoiser":
        return TinyDenoiser(
            self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy(),
            self.time_embed.copy(),
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    steps: int
    seed: int = 0
    optimizer: str = "sgd"  # sgd | adam
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


def forward_batch(model: TinyDenoiser, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized forward pass: z is (B, d), t is (B,) timesteps in {1..T}."""
    x = np.concatenate([z, model.time_embed[t - 1]], axis=1)
    hidden = np.tanh(x @ model.W1.T + model.b1)
    return hidden @ model.W2.T + model.b2


def forward(model: TinyDenoiser, z_t: LatentGrid, t: int) -> LatentGrid:
    """Grid-level prediction; flattened length must equal the model dim."""
    return LatentGrid(_forward_array(model, z_t.data, t))


def _forward_array(model: TinyDenoiser, z_t: np.ndarray, t: int) -> np.ndarray:
    if z_t.size != model.d:
        raise ValueError(f"latent has {z_t.size} values, model expects {model.d}")
    if not 1 <= t <= model.T:
        raise ValueError(f"timestep {t} out of range [1, {model.T}]")
    return forward_batch(model, z_t.reshape(1, -1), np.array([t])).reshape(z_t.shape)


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
    loss = float(np.mean(resid**2))

    d_pred = 2.0 * resid / (B * d)                               # dL/dpred
    g_W2 = d_pred.T @ hidden
    g_b2 = d_pred.sum(axis=0)
    d_hidden = d_pred @ model.W2
    d_pre = d_hidden * (1.0 - hidden**2)
    g_W1 = d_pre.T @ x
    g_b1 = d_pre.sum(axis=0)
    return loss, {"W1": g_W1, "b1": g_b1, "W2": g_W2, "b2": g_b2}


def _sample_batch(
    prior: GMMPrior, sched: NoiseSchedule, n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z0 = prior.sample_flat(rng, n)
    t = np.minimum((rng.uniform((n,)) * sched.T).astype(np.int64) + 1, sched.T)
    eps = rng.normal((n, prior.dim))
    return z0, t, eps


def train(
    model: TinyDenoiser,
    prior: GMMPrior,
    sched: NoiseSchedule,
    cfg: TrainConfig,
) -> tuple[TinyDenoiser, np.ndarray]:
    """Optimize on freshly sampled batches; returns (trained copy, loss trace)."""
    if prior.dim != model.d:
        raise ValueError(f"prior dim {prior.dim} does not match model dim {model.d}")
    if sched.T != model.T:
        raise ValueError(f"schedule T={sched.T} does not match model T={model.T}")
    model = model.copy()
    rng = RngStream(cfg.seed).spawn("train")
    trace = np.empty(cfg.steps)
    moments1 = {k: np.zeros_like(v) for k, v in model.params().items()}
    moments2 = {k: np.zeros_like(v) for k, v in model.params().items()}
    for step in range(cfg.steps):
        batch = _sample_batch(prior, sched, cfg.batch_size, rng)
        loss, grads = loss_and_grad(model, batch, sched)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at step {step + 1}")
        trace[step] = loss
        if cfg.optimizer == "sgd":
            for name, g in grads.items():
                getattr(model, name)[...] -= cfg.learning_rate * g
        else:
            k = step + 1
            for name, g in grads.items():
                m = moments1[name] = cfg.adam_beta1 * moments1[name] + (1 - cfg.adam_beta1) * g
                v = moments2[name] = cfg.adam_beta2 * moments2[name] + (1 - cfg.adam_beta2) * g**2
                m_hat = m / (1 - cfg.adam_beta1**k)
                v_hat = v / (1 - cfg.adam_beta2**k)
                getattr(model, name)[...] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return model, trace


def heldout_loss(
    model: TinyDenoiser,
    prior: GMMPrior,
    sched: NoiseSchedule,
    n: int,
    rng: RngStream,
) -> float:
    """Loss on a fresh evaluation batch (no gradient step)."""
    batch = _sample_batch(prior, sched, n, rng)
    loss, _ = loss_and_grad(model, batch, sched)
    return loss


def model_denoiser(model: TinyDenoiser):
    """Denoiser callable for ``sampler.sample``: latent array in, array out."""

    def predict(z_t: np.ndarray, t: int) -> np.ndarray:
        return _forward_array(model, z_t, t)

    return predict


def chain_denoiser(model: TinyDenoiser):
    """Vectorized chain denoiser for dim-1 models."""
    if model.d != 1:
        raise ValueError("chain denoising requires a dim-1 model")

    def predict(z: np.ndarray, t: int) -> np.ndarray:
        return forward_batch(model, z[:, None], np.full(z.shape, t, dtype=np.int64))[:, 0]

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
