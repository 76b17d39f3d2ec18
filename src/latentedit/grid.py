"""Dense latent/image grids, binary masks, seeded Gaussian streams, and grid file I/O.

Grid file format (text, bit-exact):
  line 1:   ``GRID h w c``  (ASCII, space-separated positive integers)
  then:     exactly h*w*c whitespace-separated finite decimal floats, row-major
            (h outer, then w, then c).
Masks use ``MASK h w`` followed by h*w values, each exactly 0 or 1.

Floats are written with ``repr`` (shortest digits that round-trip float64,
up to 17 significant digits), so write->read is lossless.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


class GridParseError(ValueError):
    """A grid/mask file does not follow the documented format."""


@dataclass(frozen=True)
class LatentGrid:
    """A dense h x w x c grid of finite float64 values with value semantics.

    The backing array is copied on construction and marked read-only, so a
    grid can be shared freely across threads and sessions.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 3:
            raise ValueError(f"grid data must be 3-d (h, w, c), got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError(f"grid dimensions must be positive, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("grid contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def flat(self) -> np.ndarray:
        """Row-major flattened copy of the values."""
        return self.data.reshape(-1).copy()

    @staticmethod
    def constant(value: float, h: int, w: int, c: int) -> "LatentGrid":
        return LatentGrid(np.full((h, w, c), float(value)))


@dataclass(frozen=True)
class Mask:
    """A binary h x w mask, broadcast across channels wherever it is applied."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"mask data must be 2-d (h, w), got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("mask dimensions must be positive")
        if not np.isin(arr, (0.0, 1.0)).all():
            raise ValueError("mask values must be exactly 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @staticmethod
    def ones(h: int, w: int) -> "Mask":
        return Mask(np.ones((h, w)))

    @staticmethod
    def zeros(h: int, w: int) -> "Mask":
        return Mask(np.zeros((h, w)))


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (pure 64-bit integer arithmetic)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class RngStream:
    """Deterministic random source: counter-based Philox uniforms + Box-Muller.

    The generator key is derived from ``(seed, derivation path)`` via
    splitmix64, so spawned streams are statistically independent and never
    consume state from their parent.  Normals come from the Box-Muller
    transform over Philox uniform doubles; both are fixed integer/float
    recipes, so the same seed yields the same sequence on every platform
    (up to the platform's transcendental functions; see the README).  Each
    ``normal`` call consumes ``2 * ceil(n / 2)`` uniforms.  The numpy
    generator is built on the first draw, so a stream used only for its
    ``key`` costs no generator.
    """

    def __init__(self, seed: int, _key: int | None = None):
        self.seed = int(seed) & _MASK64
        self.key = _splitmix64(self.seed) if _key is None else _key
        self._gen = None
        self.position = 0

    def spawn(self, *path: int | str) -> "RngStream":
        """Derive an independent stream; does not advance this stream."""
        key = self.key
        for p in path:
            part = _fnv1a64(p) if isinstance(p, str) else int(p) & _MASK64
            key = _splitmix64(key ^ _splitmix64(part))
        return RngStream(self.seed, _key=key)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self.key))
        out = self._gen.random(size=shape)
        self.position += int(np.size(out))
        return out

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws via Box-Muller (see ``_box_muller``)."""
        n = math.prod(shape) if isinstance(shape, tuple) else int(np.prod(shape))
        z = _box_muller(self.uniform((2 * ((n + 1) // 2),)), n)
        if shape == ():
            return z[0]
        return z.reshape(shape)


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from 2 * ceil(n / 2) uniforms along the last axis.

    The first half of the uniforms give radii (log uses 1-u in (0, 1]), the
    second half angles; the cosines come first, then the sines.
    """
    m = (n + 1) // 2
    radius = np.sqrt(-2.0 * np.log1p(-u[..., :m]))
    angle = 2.0 * math.pi * u[..., m : 2 * m]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :n]


_NORMAL_BLOCK = 1 << 14  # uniforms per block draw; bounds _uniform_rows' scratch memory
_AHEAD = 2  # blocks whose Box-Muller a pool may compute before their rows are taken
# per-row draws at which Box-Muller moves to worker threads; below it the
# pool was measured no faster (10k Langevin chains) or slower (324 values)
_POOL_MIN_VALUES = 1 << 15


def _uniform_rows(rng: RngStream, width: int, count: int):
    """Yield ``rng``'s next ``count * width`` uniforms as (b, width) blocks,
    b as large as ``_NORMAL_BLOCK`` uniforms allow and at least 1.

    ``Generator.random`` consumes its stream in order, so row j of the
    blocks holds what the j-th of ``count`` successive ``uniform((width,))``
    calls would draw.
    """
    rows = max(1, _NORMAL_BLOCK // max(2, width))  # width 0: an empty Langevin state
    for lo in range(0, count, rows):
        yield rng.uniform((min(rows, count - lo), width))


def _normal_rows(rng: RngStream, shape: tuple, count: int, pool=None):
    """Yield ``count`` arrays of standard normals of the given shape, equal
    bit for bit to ``count`` successive ``rng.normal(shape)`` calls; once
    every row is taken, ``rng.position`` has advanced by the same amount.
    Each row of a ``_uniform_rows`` block holds one call's
    2 * ceil(n / 2) uniforms, n the number of values in ``shape``.

    With an executor ``pool``, each block's ``_box_muller`` (a pure function
    of its uniforms) is submitted to it, at most ``_AHEAD`` blocks ahead of
    the block being yielded, so the transform runs while the caller works
    on earlier rows.  The uniforms are still drawn on the calling thread, in
    stream order, and a worker's exception re-raises here.
    """
    blocks = _uniform_rows(rng, 2 * ((math.prod(shape) + 1) // 2), count)
    if pool is None:
        for u in blocks:
            yield from _shaped_normals(u, shape)
        return
    pending = collections.deque()
    for u in blocks:
        pending.append(pool.submit(_shaped_normals, u, shape))
        if len(pending) > _AHEAD:
            yield from pending.popleft().result()
    while pending:
        yield from pending.popleft().result()


def _shaped_normals(u: np.ndarray, shape: tuple) -> np.ndarray:
    """``_box_muller`` of each row of a (b, width) uniform block, shaped (b, *shape)."""
    return _box_muller(u, math.prod(shape)).reshape(len(u), *shape)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _noise_pool(n: int):
    """A 2-thread pool for ``_normal_rows`` when each step draws at least
    ``_POOL_MIN_VALUES`` normals and a second CPU is usable, else None.

    Leaving the block waits for the transforms still pending (at most
    ``_AHEAD`` per stream) and joins the threads, so none outlives the
    caller, on return or on raise.
    """
    if n < _POOL_MIN_VALUES or _usable_cpus() < 2:
        yield None
        return
    with ThreadPoolExecutor(2) as pool:
        yield pool


_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)  # bits in a half word


def _mulhilo64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> _HALF
    b_lo, b_hi = b & _LO32, b >> _HALF
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _HALF) + (lh & _LO32) + (hl & _LO32)
    return a_hi * b_hi + (lh >> _HALF) + (hl >> _HALF) + (mid >> _HALF), a * b


def _philox_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uniforms of ``RngStream``-style Philox4x64-10
    streams, one row per key: row i equals
    ``Generator(Philox(key=keys[i])).random(count)`` bit for bit.

    Block b of a stream is Philox4x64-10 of counter (b + 1, 0, 0, 0) (numpy
    increments the counter before generating) under key (keys[i], 0); its
    four 64-bit words give four uniforms ``(x >> 11) * 2**-53``.  See Salmon
    et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11.
    """
    blocks = (count + 3) // 4
    shape = (len(keys), blocks)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    k0 = np.asarray(keys, dtype=np.uint64)[:, None]
    k1 = np.uint64(0)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo64(x0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo64(x2, _PHILOX_M[1])
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(len(keys), 4 * blocks)[:, :count]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def mean_stat(g: LatentGrid) -> float:
    """Arithmetic mean over all h*w*c entries."""
    return float(g.data.mean())


def rmse(a: LatentGrid, b: LatentGrid) -> float:
    """Root-mean-square difference between two same-shaped grids."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a.data - b.data) ** 2)))


def masked_combine(a: LatentGrid, b: LatentGrid, m: Mask) -> LatentGrid:
    """Elementwise m*a + (1-m)*b with the mask broadcast over channels."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if (m.h, m.w) != (a.h, a.w):
        raise ValueError(f"mask {m.h}x{m.w} does not match grid {a.h}x{a.w}")
    md = m.data[:, :, None]
    return LatentGrid(md * a.data + (1.0 - md) * b.data)


def _read_tokens(path: str):
    """Yield (line_number, token) pairs from a whitespace-separated text file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                for token in line.split():
                    yield lineno, token
    except UnicodeDecodeError as exc:
        raise GridParseError(f"{path}: not an ASCII grid file ({exc})") from None


def _parse_header(tokens, path: str, magic: str, n_dims: int) -> tuple[int, ...]:
    fields = []
    try:
        lineno, word = next(tokens)
    except StopIteration:
        raise GridParseError(f"{path}: line 1: empty file, expected '{magic}' header") from None
    if word != magic:
        raise GridParseError(f"{path}: line {lineno}: expected '{magic}' header, got {word!r}")
    for _ in range(n_dims):
        try:
            lineno, tok = next(tokens)
            fields.append(int(tok))
        except StopIteration:
            raise GridParseError(f"{path}: line {lineno}: truncated {magic} header") from None
        except ValueError:
            raise GridParseError(
                f"{path}: line {lineno}: bad {magic} dimension {tok!r}"
            ) from None
    if any(d < 1 for d in fields):
        raise GridParseError(f"{path}: line {lineno}: dimensions must be positive, got {fields}")
    return tuple(fields)


def _parse_values(tokens, path: str, count: int) -> np.ndarray:
    """Parse the next ``count`` tokens as finite floats."""
    values = np.empty(count)
    got = 0
    last_line = 1
    for lineno, tok in itertools.islice(tokens, count):
        last_line = lineno
        try:
            value = float(tok)
        except ValueError:
            raise GridParseError(
                f"{path}: line {lineno}: value {got + 1}: bad float {tok!r}"
            ) from None
        if not math.isfinite(value):
            raise GridParseError(f"{path}: line {lineno}: value {got + 1}: non-finite {tok!r}")
        values[got] = value
        got += 1
    if got != count:
        raise GridParseError(f"{path}: line {last_line}: expected {count} values, got {got}")
    return values


def _expect_end(tokens, path: str, count: int) -> None:
    extra = next(tokens, None)
    if extra is not None:
        raise GridParseError(f"{path}: line {extra[0]}: expected {count} values, found more")


def read_grid(path: str) -> LatentGrid:
    """Parse a GRID file; raises GridParseError with line/position context."""
    tokens = _read_tokens(path)
    h, w, c = _parse_header(tokens, path, "GRID", 3)
    values = _parse_values(tokens, path, h * w * c)
    _expect_end(tokens, path, h * w * c)
    return LatentGrid(values.reshape(h, w, c))


def write_grid(g: LatentGrid, path: str) -> None:
    """Write a GRID file, one image row per line, lossless float formatting."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"GRID {g.h} {g.w} {g.c}\n")
        _write_rows(fh, g.data.reshape(g.h, g.w * g.c))


def _write_rows(fh, rows: np.ndarray) -> None:
    """The value lines of a GRID block: one line per row of a 2-d array."""
    for row in rows:
        fh.write(" ".join(repr(v) for v in row.tolist()))
        fh.write("\n")


def read_mask(path: str) -> Mask:
    tokens = _read_tokens(path)
    h, w = _parse_header(tokens, path, "MASK", 2)
    values = _parse_values(tokens, path, h * w)
    _expect_end(tokens, path, h * w)
    if not np.isin(values, (0.0, 1.0)).all():
        raise GridParseError(f"{path}: mask values must be exactly 0 or 1")
    return Mask(values.reshape(h, w))


def write_mask(m: Mask, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"MASK {m.h} {m.w}\n")
        for row in m.data:
            fh.write(" ".join(str(int(v)) for v in row.tolist()))
            fh.write("\n")
