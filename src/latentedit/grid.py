"""Dense latent/image grids, binary masks, seeded Gaussian streams, and grid file I/O.

Grid file format (text, bit-exact):
  line 1:   ``GRID h w c``  (ASCII, space-separated positive integers)
  then:     exactly h*w*c whitespace-separated finite decimal floats, row-major
            (h outer, then w, then c).
Masks use ``MASK h w`` followed by h*w values, each exactly 0 or 1.  A
model file is a sequence of ``PARAM <name>`` lines, each followed by one
GRID block.  All three share one block writer; grid and mask files, which
hold one block each, share one reader.

Floats are written with ``repr`` (shortest digits that round-trip float64,
up to 17 significant digits), so write->read is lossless.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


class GridParseError(ValueError):
    """A grid/mask file does not follow the documented format."""


class _NonFiniteGrid(ValueError):
    """A grid would hold a non-finite value."""


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
            raise _NonFiniteGrid("grid contains non-finite values")
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


@functools.lru_cache  # spawn hashes the same few path strings, once per chain
def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _child_key(key: int, part: int | str) -> int:
    """The key ``spawn`` derives from ``key`` for one part of a derivation path."""
    part = _fnv1a64(part) if isinstance(part, str) else int(part) & _MASK64
    return _splitmix64(key ^ _splitmix64(part))


class RngStream:
    """Deterministic random source: counter-based Philox uniforms + Box-Muller.

    The generator key is derived from ``(seed, derivation path)`` via
    splitmix64, so spawned streams are statistically independent and never
    consume state from their parent.  Normals come from the Box-Muller
    transform over Philox uniform doubles; both are fixed integer/float
    recipes, so the same seed yields the same sequence on every platform
    (up to the platform's transcendental functions; see the README).  Each
    ``normal`` call consumes ``2 * ceil(n / 2)`` uniforms.  The next draw is
    uniform number ``position`` of the key, so setting ``position`` seeks: the
    generator, built lazily, is rebuilt wherever its own position ``_at`` differs.
    """

    def __init__(self, seed: int, _key: int | None = None):
        self.key = _splitmix64(int(seed) & _MASK64) if _key is None else _key
        self._gen = self._at = None
        self.position = 0

    def spawn(self, *path: int | str) -> "RngStream":
        """Derive an independent stream; does not advance this stream."""
        return RngStream(0, _key=functools.reduce(_child_key, path, self.key))

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        if self._at != self.position:
            self._gen = _philox_at(self.key, self.position)
        out = self._gen.random(size=shape)
        self.position = self._at = self.position + int(np.size(out))
        return out

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws: one row of the blocks ``_normal_rows`` draws
        (Box-Muller over one ``uniform((1, 2 * ceil(n / 2)))`` row)."""
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        return _shaped_normals(self.uniform((1, 2 * ((math.prod(shape) + 1) // 2))), shape)[0]


def _box_muller(u: np.ndarray, n: int, use: np.ndarray | None = None) -> np.ndarray:
    """n standard normals from 2 * ceil(n / 2) uniforms along the last axis.

    The first half of the uniforms give radii (log uses 1-u in (0, 1]), the
    second half angles; the cosines come first, then the sines.  With a boolean
    ``use`` over the n values, it makes only those marked (and their pairs'
    radii and angles) by the same operations, in place over ``u``; the rest are 0.0.
    """
    m = (n + 1) // 2
    if use is None:
        radius = np.sqrt(-2.0 * np.log1p(-u[..., :m]))
        angle = 2.0 * math.pi * u[..., m : 2 * m]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :n]
    first, second = use[:m], np.pad(use[m:], (0, 2 * m - n))
    pair, radius, angle = first | second, u[..., :m], u[..., m : 2 * m]
    np.negative(radius, out=radius, where=pair)
    np.log1p(radius, out=radius, where=pair)
    np.multiply(-2.0, radius, out=radius, where=pair)
    np.sqrt(radius, out=radius, where=pair)
    np.multiply(2.0 * math.pi, angle, out=angle, where=pair)
    out = np.zeros(u.shape)
    for trig, half, where in [(np.cos, out[..., :m], first), (np.sin, out[..., m:], second)]:
        trig(angle, out=half, where=where)
        np.multiply(radius, half, out=half, where=where)
    return out[..., :n]


# uniforms per block draw; bounds _uniform_rows' scratch memory.  drift's
# inline 324-value steps measured 4-8% slower at 2^15
_NORMAL_BLOCK = 1 << 14
# uniforms per block a pool's worker draws: each hand-over to a worker costs the
# caller GIL switches, so a pooled block holds more rows (6 at ebm's 10k
# Langevin chains, half the hand-overs of 2^15; 2^17 was faster again but
# added 8% to ebm's peak RSS), and still 1 at a 128x128x3 session latent
_POOL_BLOCK = 1 << 16
_AHEAD = 2  # blocks a pool may draw before their rows are taken
# per-row draws (or chains, for sample_chains' Box-Muller) at which the noise
# moves to worker threads; ebm's 10k Langevin chains measured faster pooled,
# drift's 324 values slower
_POOL_MIN_VALUES = 1 << 13


def _philox_at(key: int, position: int) -> np.random.Generator:
    """A generator whose next draw is uniform number ``position`` of the
    stream keyed ``key``.  Philox is counter-based: each counter value gives
    4 doubles, and the generator steps its counter before it draws."""
    gen = np.random.Generator(np.random.Philox(key=key, counter=position // 4))
    gen.random(position % 4)
    return gen


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


def _normal_block(key: int, position: int, rows: int, width: int, shape: tuple,
                  *use: np.ndarray) -> np.ndarray:
    """``_shaped_normals`` of the (rows, width) uniforms at ``position`` of
    the stream keyed ``key``; a pure function, so a worker can run it.  A full
    block is the masked form with every value used: it transforms in place."""
    use = use or (np.ones(math.prod(shape), dtype=bool),)
    return _shaped_normals(_philox_at(key, position).random((rows, width)), shape, *use)


def _normal_rows(rng: RngStream, shape: tuple, count: int, pool=None, use=None):
    """Yield ``count`` arrays of standard normals of the given shape, equal
    bit for bit to ``count`` successive ``rng.normal(shape)`` calls; once
    every row is taken, ``rng.position`` has advanced by the same amount.
    Each row of a block (inline, sized as ``_uniform_rows`` sizes them) holds
    one call's 2 * ceil(n / 2) uniforms, n the values in ``shape``.  Given a
    boolean ``use`` over the n values, every block but the first and the last
    makes only the values it marks, and 0.0 in the rest (``_box_muller``).

    With an executor ``pool``, the rows come in blocks of up to
    ``_POOL_BLOCK`` uniforms, and each block is a ``_normal_block`` task
    submitted to it, at most ``_AHEAD`` blocks ahead of the block being
    yielded, so a worker draws the block's uniforms from a Philox at the
    block's counter and transforms them while the caller works on earlier
    rows.  The caller only advances ``rng.position`` past each block it
    submits; a worker's exception re-raises here.
    """
    width = 2 * ((math.prod(shape) + 1) // 2)
    rows = max(1, (_NORMAL_BLOCK if pool is None else _POOL_BLOCK) // max(2, width))
    pending = collections.deque()
    for lo in range(0, count, rows):
        b = min(rows, count - lo)
        inner = () if use is None or lo == 0 or lo + b == count else (use,)
        if pool is None:
            yield from _shaped_normals(rng.uniform((b, width)), shape, *inner)
            continue
        pending.append(pool.submit(_normal_block, rng.key, rng.position, b, width, shape, *inner))
        rng.position += b * width
        if len(pending) > _AHEAD:
            yield from pending.popleft().result()
    while pending:
        yield from pending.popleft().result()


def _shaped_normals(u: np.ndarray, shape: tuple, *use: np.ndarray) -> np.ndarray:
    """``_box_muller`` of each row of a (b, width) uniform block, shaped (b, *shape)."""
    return _box_muller(u, math.prod(shape), *use).reshape(len(u), *shape)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _noise_pool(n: int):
    """A 2-thread pool for ``_normal_rows`` (and ``sample_chains``'
    Box-Muller) when each step draws at least ``_POOL_MIN_VALUES`` normals
    and a second CPU is usable, else None.

    Leaving the block waits for the tasks still pending (at most ``_AHEAD``
    blocks per stream) and joins the threads, so none outlives the caller,
    on return or on raise.
    """
    if n < _POOL_MIN_VALUES or _usable_cpus() < 2:
        yield None
        return
    with ThreadPoolExecutor(2) as pool:
        yield pool


def _keyed_uniforms(keys, count: int, block: int):
    """Yield ``count`` uniforms for each key of the iterable ``keys``, as
    (b, count) blocks of ``block`` rows (fewer at the end): row i equals
    ``Generator(Philox(key=keys[i])).random(count)`` bit for bit.

    One Philox serves every row.  Before each row its public ``state``
    setter puts it in the state ``Philox(key=k)`` starts in: key (k, 0), a
    zero counter and an empty 4-word output buffer, so no word left over
    from the previous row is used.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = iter(keys)
    while chunk := list(itertools.islice(keys, block)):
        out = np.empty((len(chunk), count))
        for key, row in zip(chunk, out):
            fresh["state"]["key"][0] = key
            bits.state = fresh
            gen.random(out=row)
        yield out


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


def _read_file(path: str, magic: str, n_dims: int) -> np.ndarray:
    """Parse a file that holds one block: a ``magic`` header of ``n_dims``
    positive integers, then as many finite floats as they multiply to, shaped
    by the header, and nothing after them.  The array is sized by the values
    read, not by the header's claim."""
    tokens = _read_tokens(path)
    try:
        lineno, word = next(tokens)
    except StopIteration:
        raise GridParseError(f"{path}: line 1: empty file, expected '{magic}' header") from None
    if word != magic:
        raise GridParseError(f"{path}: line {lineno}: expected '{magic}' header, got {word!r}")
    dims = []
    for _ in range(n_dims):
        try:
            lineno, tok = next(tokens)
            dims.append(int(tok))
        except StopIteration:
            raise GridParseError(f"{path}: line {lineno}: truncated {magic} header") from None
        except ValueError:
            raise GridParseError(
                f"{path}: line {lineno}: bad {magic} dimension {tok!r}"
            ) from None
    if any(d < 1 for d in dims):
        raise GridParseError(f"{path}: line {lineno}: dimensions must be positive, got {dims}")
    count = math.prod(dims)

    def floats():
        nonlocal lineno
        # islice stops at sys.maxsize at most; no file holds that many tokens
        for i, (lineno, tok) in enumerate(itertools.islice(tokens, min(count, sys.maxsize)), 1):
            try:
                value = float(tok)
            except ValueError:
                raise GridParseError(
                    f"{path}: line {lineno}: value {i}: bad float {tok!r}") from None
            if not math.isfinite(value):
                raise GridParseError(f"{path}: line {lineno}: value {i}: non-finite {tok!r}")
            yield value

    values = np.fromiter(floats(), dtype=np.float64)
    if values.size != count:
        raise GridParseError(f"{path}: line {lineno}: expected {count} values, got {values.size}")
    extra = next(tokens, None)
    if extra is not None:
        raise GridParseError(f"{path}: line {extra[0]}: expected {values.size} values, found more")
    return values.reshape(dims)


def _write_block(fh, header: str, rows: np.ndarray) -> None:
    """A block: the header line, then one line of ``repr`` values per row of a 2-d array."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(" ".join(map(repr, row.tolist())))
        fh.write("\n")


def read_grid(path: str) -> LatentGrid:
    """Parse a GRID file; raises GridParseError with line/position context."""
    return LatentGrid(_read_file(path, "GRID", 3))


def write_grid(g: LatentGrid, path: str) -> None:
    """Write a GRID file, one image row per line, lossless float formatting."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_block(fh, f"GRID {g.h} {g.w} {g.c}", g.data.reshape(g.h, g.w * g.c))


def read_mask(path: str) -> Mask:
    values = _read_file(path, "MASK", 2)
    if not np.isin(values, (0.0, 1.0)).all():
        raise GridParseError(f"{path}: mask values must be exactly 0 or 1")
    return Mask(values)


def write_mask(m: Mask, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_block(fh, f"MASK {m.h} {m.w}", m.data.astype(np.int64))
