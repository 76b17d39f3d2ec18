"""Grids, masks, random streams, and the grid file format."""

import contextlib
import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from latentedit.grid import (
    GridParseError,
    LatentGrid,
    Mask,
    RngStream,
    _NORMAL_BLOCK,
    _POOL_BLOCK,
    _POOL_MIN_VALUES,
    _box_muller,
    _keyed_uniforms,
    _normal_block,
    _normal_rows,
    _shaped_normals,
    masked_combine,
    mean_stat,
    read_grid,
    read_mask,
    rmse,
    write_grid,
    write_mask,
)


# rows a pooled block holds at n = _POOL_MIN_VALUES + 1 (width 2 mod 4): an odd count
ROWS_ODD = _POOL_BLOCK // (_POOL_MIN_VALUES + 2)
assert ROWS_ODD % 2 == 1 and (_POOL_MIN_VALUES + 2) % 4 == 2


@st.composite
def uniform_blocks(draw):
    """(n, u): 1-4 rows of 2 * ceil(n / 2) uniforms, some exactly 0.0 or a few ulp below 1."""
    n, rows = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    edges = st.sampled_from([0.0, 1.0 - 2**-53, 1.0 - 2**-52, 1.0 - 3 * 2**-53])
    values = st.one_of(st.floats(0.0, 1.0, exclude_max=True), edges)
    return n, draw(arrays(np.float64, (rows, 2 * ((n + 1) // 2)), elements=values))


class TestLatentGrid:
    def test_shape_properties(self):
        g = LatentGrid(np.zeros((3, 5, 2)))
        assert (g.h, g.w, g.c) == (3, 5, 2)
        assert g.size == 30

    def test_rejects_nan_and_inf(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LatentGrid(data)
        data[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            LatentGrid(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3-d"):
            LatentGrid(np.zeros((4, 4)))

    def test_value_semantics(self):
        source = np.ones((2, 2, 1))
        g = LatentGrid(source)
        source[0, 0, 0] = 99.0
        assert g.data[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 5.0


class TestMask:
    def test_values_must_be_binary(self):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            Mask(np.full((2, 2), 0.5))

    @pytest.mark.parametrize("data, message", [
        (np.ones(3), "must be 2-d"), (np.ones((2, 2, 1)), "must be 2-d"),
        (np.ones((0, 2)), "dimensions must be positive"),
    ], ids=["1-d", "3-d", "empty"])
    def test_rejects_wrong_rank_and_empty(self, data, message):
        with pytest.raises(ValueError, match=message):
            Mask(data)

    def test_ones_zeros(self):
        assert Mask.ones(3, 3).data.sum() == 9
        assert Mask.zeros(3, 3).data.sum() == 0


class TestRngStream:
    def test_reseed_reproduces_sequence(self):
        a = RngStream(7)
        first, second = a.normal((1, 1, 1)), a.normal((1, 1, 1))
        assert first[0, 0, 0] != second[0, 0, 0]
        b = RngStream(7)
        assert np.array_equal(b.normal((1, 1, 1)), first)
        assert np.array_equal(b.normal((1, 1, 1)), second)

    def test_spawn_is_independent_of_parent_state(self):
        a = RngStream(7)
        child_before = a.spawn("x").normal((4,))
        a.normal((100,))
        child_after = a.spawn("x").normal((4,))
        assert np.array_equal(child_before, child_after)

    def test_spawn_paths_differ(self):
        a = RngStream(7)
        assert not np.array_equal(a.spawn(1).normal((4,)), a.spawn(2).normal((4,)))

    def test_position_tracks_consumption(self):
        a = RngStream(7)
        a.normal((3,))  # box-muller consumes 2*ceil(3/2) = 4 uniforms
        assert a.position == 4

    @given(seed=st.integers(0, 2**64 - 1), a=st.integers(0, 40), p=st.integers(0, 300),
           b=st.integers(0, 40))
    @example(seed=0, a=3, p=0, b=3)  # a rewind
    @example(seed=0, a=3, p=7, b=3)  # a seek past the generator's counter
    @settings(max_examples=60, deadline=None)
    def test_setting_position_seeks_the_stream(self, seed, a, p, b):
        r = RngStream(seed)
        r.uniform((a,))
        r.position = p
        fresh = RngStream(seed).uniform((p + b + 2,))
        assert r.uniform((b,)).tobytes() == fresh[p : p + b].tobytes()
        assert r.position == p + b
        gen = r._gen  # a draw from where the last one ended builds no generator
        assert r.uniform((2,)).tobytes() == fresh[p + b :].tobytes() and r._gen is gen

    def test_int_shape_equals_one_tuple(self):
        assert np.array_equal(RngStream(7).normal(3), RngStream(7).normal((3,)))

    @given(n=st.integers(0, 700), count=st.integers(0, 60), seed=st.integers(0, 2**64 - 1),
           pooled=st.booleans(), k=st.integers(0, 3))
    @example(n=1, count=2 * _NORMAL_BLOCK + 3, seed=0, pooled=False, k=0)
    @example(n=1, count=2 * _NORMAL_BLOCK + 3, seed=0, pooled=True, k=1)
    @example(n=_NORMAL_BLOCK + 1, count=3, seed=1, pooled=False, k=2)
    # _POOL_BLOCK // n rows a pooled block: several blocks
    @example(n=_POOL_MIN_VALUES, count=3 * _POOL_BLOCK // _POOL_MIN_VALUES - 4, seed=2,
             pooled=True, k=3)
    @example(n=0, count=3, seed=3, pooled=False, k=0)  # an empty Langevin state
    # odd n, width 2 mod 4, an odd row count a pooled block: blocks that start at
    # offsets 0, 2, 0, 2 mod 4 of a Philox counter's 4 doubles, then at 3, 1, 3
    @example(n=_POOL_MIN_VALUES + 1, count=4 * ROWS_ODD + 2, seed=4, pooled=True, k=0)
    @example(n=_POOL_MIN_VALUES + 1, count=3 * ROWS_ODD - 1, seed=5, pooled=True, k=3)
    @example(n=10_001, count=7, seed=5, pooled=True, k=3)
    @settings(max_examples=40, deadline=None)
    def test_normal_rows_equal_successive_normal_calls(self, n, count, seed, pooled, k):
        rows, calls = RngStream(seed), RngStream(seed)
        assert np.array_equal(rows.uniform((k,)), calls.uniform((k,)))  # the rows start at k
        with ThreadPoolExecutor(2) if pooled else contextlib.nullcontext() as pool:
            for row in _normal_rows(rows, (n,), count, pool):
                assert np.array_equal(row, calls.normal((n,)))
        assert rows.position == calls.position
        assert np.array_equal(rows.normal((5,)), calls.normal((5,)))

    @given(use=st.lists(st.booleans(), min_size=1, max_size=300), rows=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), zero=st.booleans())
    @example(use=[True], rows=1, seed=0, zero=True)  # n = 1: a cosine and no sine
    @example(use=[False], rows=2, seed=1, zero=False)
    @example(use=[True] * 7, rows=2, seed=2, zero=True)  # odd n, all marked
    @example(use=[True] * 8, rows=1, seed=3, zero=False)
    @example(use=[False] * 9, rows=3, seed=4, zero=True)
    @example(use=[False, True] * 5, rows=1, seed=5, zero=False)  # cosines off, sines on
    @settings(max_examples=60, deadline=None)
    def test_box_muller_with_use_makes_only_the_marked_values(self, use, rows, seed, zero):
        n, use = len(use), np.array(use)
        u = RngStream(seed).uniform((rows, 2 * ((n + 1) // 2)))
        if zero:  # a zero uniform gives a zero radius, so the sign of a zero counts
            u[:, ::3] = 0.0
        want = np.where(use, _box_muller(u.copy(), n), 0.0)
        assert _box_muller(u.copy(), n, use).tobytes() == want.tobytes()

    @given(block=uniform_blocks())
    @example(block=(1, np.array([[0.0, 1.0 - 2**-53]])))  # n = 1: a cosine and no sine
    @example(block=(7, np.full((2, 8), 1.0 - 2**-53)))  # odd n; the largest double below 1
    @example(block=(8, np.tile([0.0, 1.0 - 2**-52, 0.5, 1.0 - 2**-51], (4, 2))))  # even n
    @settings(max_examples=60, deadline=None)
    def test_box_muller_in_place_full_form_equals_the_allocating_one(self, block):
        # a pooled full block is the masked form with every value used
        n, u = block
        want = _box_muller(u.copy(), n)
        assert _box_muller(u.copy(), n, np.ones(n, dtype=bool)).tobytes() == want.tobytes()

    # odd n: 1-row inline blocks, and pooled ones of ROWS_ODD rows: two whole
    # blocks, an inner one and a last one of 3 rows
    @pytest.mark.parametrize("pooled, full", [
        (False, {0, 2 * ROWS_ODD + 2}),
        (True, {*range(ROWS_ODD), *range(2 * ROWS_ODD, 2 * ROWS_ODD + 3)}),
    ])
    def test_normal_rows_with_use_transform_inner_blocks_only_where_used(self, pooled, full):
        # the first and last blocks are whole; the rows, the stream's position
        # and its next draw are those of successive normal calls
        n, count = _POOL_MIN_VALUES + 1, 2 * ROWS_ODD + 3
        use = RngStream(8).uniform((n,)) < 0.3
        rows, calls = RngStream(9), RngStream(9)
        with ThreadPoolExecutor(2) if pooled else contextlib.nullcontext() as pool:
            got = list(_normal_rows(rows, (n,), count, pool, use))
        assert len(got) == count
        for i, row in enumerate(got):
            want = calls.normal((n,))
            assert row.tobytes() == (want if i in full else np.where(use, want, 0.0)).tobytes()
        assert rows.position == calls.position
        assert rows.normal((5,)).tobytes() == calls.normal((5,)).tobytes()

    def test_draws_are_numpy_philox_from_the_stream_key(self):
        # a stream, and a pooled block drawn at its counter, read a plain numpy Philox
        rng = RngStream(7)
        ref = np.random.Generator(np.random.Philox(key=rng.key)).random(13)
        assert np.array_equal(np.concatenate([rng.uniform((k,)) for k in (1, 2, 3)]), ref[:6])
        assert np.array_equal(_normal_block(rng.key, 5, 2, 4, (3,)),
                              _shaped_normals(ref[5:13].reshape(2, 4), (3,)))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_normal_rows_blocks_are_larger_pooled(self, pooled):
        # ebm's 10k Langevin chains: 1 row a block inline, _POOL_BLOCK // 10_000 pooled
        rows, count = _POOL_BLOCK // 10_000, 13
        assert 1 < rows and 2 * rows < count  # two full pooled blocks, then the rest
        rng, shapes = RngStream(4), []
        with ThreadPoolExecutor(2) if pooled else contextlib.nullcontext() as pool:
            if pooled:  # a pooled block is a task (key, position, rows, width, shape)
                submit = pool.submit
                pool.submit = lambda fn, *task: shapes.append(task[2:4]) or submit(fn, *task)
            else:
                uniform = rng.uniform
                rng.uniform = lambda shape: shapes.append(shape) or uniform(shape)
            got = list(_normal_rows(rng, (10_000,), count, pool))
        full, rest = divmod(count, rows)
        assert shapes == ([(rows, 10_000)] * full + [(rest, 10_000)] if pooled
                          else [(1, 10_000)] * count)
        calls = RngStream(4)
        assert all(np.array_equal(row, calls.normal((10_000,))) for row in got)

    def test_gaussian_moments(self):
        g = LatentGrid(RngStream(7).normal((64, 64, 4)))
        n = g.size
        assert abs(g.data.mean()) < 0.03
        assert 0.95 < g.data.var() < 1.05
        assert n == 16384

    def test_gaussian_grid_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="positive"):
            LatentGrid(RngStream(1).normal((0, 4, 1)))

    def test_nested_spawn_equals_one_spawn_with_the_whole_path(self):
        a = RngStream(7)
        nested = a.spawn("chain").spawn(3)
        assert nested.key == a.spawn("chain", 3).key
        assert np.array_equal(nested.normal((5,)), a.spawn("chain", 3).normal((5,)))

    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        count=st.integers(1, 45),
        block=st.integers(1, 4),
    )
    @example(keys=[0, 2**64 - 1], count=7, block=2)
    @example(keys=[3, 3, 5], count=6, block=3)  # rows that leave 2 words in the buffer
    @settings(max_examples=60, deadline=None)
    def test_multi_key_philox_matches_numpy_per_key(self, keys, count, block):
        blocks = list(_keyed_uniforms(iter(keys), count, block))
        assert [len(b) for b in blocks] == [min(block, len(keys) - lo)
                                            for lo in range(0, len(keys), block)]
        for key, row in zip(keys, np.concatenate(blocks)):
            expected = np.random.Generator(np.random.Philox(key=key)).random(count)
            assert np.array_equal(row, expected)


class TestStats:
    def test_mean_constant(self):
        assert mean_stat(LatentGrid.constant(2.0, 3, 3, 1)) == 2.0

    def test_mean_symmetry(self):
        g = LatentGrid(np.reshape([1.0, -1.0], (2, 1, 1)))
        assert mean_stat(g) == 0.0

    def test_mean_hand_sum(self):
        g = LatentGrid(np.reshape([0.5, 1.5, 2.5, 3.5], (2, 2, 1)))
        assert mean_stat(g) == 2.0

    def test_rmse_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(LatentGrid.constant(0.0, 2, 2, 1), LatentGrid.constant(0.0, 2, 2, 2))


class TestMaskedCombine:
    def test_all_ones_selects_a(self, small_grid):
        other = LatentGrid(np.zeros(small_grid.shape))
        out = masked_combine(small_grid, other, Mask.ones(4, 4))
        assert np.array_equal(out.data, small_grid.data)

    def test_all_zeros_selects_b(self, small_grid):
        other = LatentGrid(np.zeros(small_grid.shape))
        out = masked_combine(small_grid, other, Mask.zeros(4, 4))
        assert np.array_equal(out.data, other.data)

    def test_two_pixel_example(self):
        a = LatentGrid(np.reshape([5.0, 5.0], (2, 1, 1)))
        b = LatentGrid(np.reshape([9.0, 9.0], (2, 1, 1)))
        m = Mask(np.array([[1.0], [0.0]]))
        out = masked_combine(a, b, m)
        assert out.flat().tolist() == [5.0, 9.0]

    def test_grid_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(2, 2, 1\) vs \(2, 2, 2\)$"):
            masked_combine(LatentGrid.constant(0.0, 2, 2, 1), LatentGrid.constant(0.0, 2, 2, 2),
                           Mask.ones(2, 2))

    def test_dimension_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            masked_combine(small_grid, small_grid, Mask.ones(3, 3))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_combine_self_is_identity(self, seed, h, w):
        stream = RngStream(seed)
        a = LatentGrid(stream.normal((h, w, 2)))
        m = Mask((stream.uniform((h, w)) > 0.5).astype(float))
        assert np.array_equal(masked_combine(a, a, m).data, a.data)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_constant_mask_mean_is_bounded(self, seed, ones):
        stream = RngStream(seed)
        a = LatentGrid(stream.normal((3, 3, 1)))
        b = LatentGrid(stream.normal((3, 3, 1)))
        m = Mask.ones(3, 3) if ones else Mask.zeros(3, 3)
        combined = mean_stat(masked_combine(a, b, m))
        low = min(mean_stat(a), mean_stat(b))
        high = max(mean_stat(a), mean_stat(b))
        assert low - 1e-12 <= combined <= high + 1e-12


class TestGridIO:
    def test_roundtrip_is_lossless(self, tmp_path, rng):
        g = LatentGrid(np.exp(12.0 * rng.normal((5, 3, 2))) * np.sign(rng.normal((5, 3, 2))))
        path = str(tmp_path / "g.grid")
        write_grid(g, path)
        back = read_grid(path)
        assert np.array_equal(back.data, g.data)

    def test_single_value(self, tmp_path):
        path = str(tmp_path / "one.grid")
        path_text = "GRID 1 1 1\n0.25\n"
        with open(path, "w") as fh:
            fh.write(path_text)
        g = read_grid(path)
        assert g.shape == (1, 1, 1)
        assert g.data[0, 0, 0] == 0.25

    def test_count_mismatch_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "w") as fh:
            fh.write("GRID 2 2 1\n1.0 2.0 3.0\n")
        with pytest.raises(GridParseError, match="line 2.*expected 4 values, got 3"):
            read_grid(path)

    def test_too_many_values(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "w") as fh:
            fh.write("GRID 1 1 1\n1.0 2.0\n")
        with pytest.raises(GridParseError, match="found more"):
            read_grid(path)

    def test_bad_float_reports_position(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "w") as fh:
            fh.write("GRID 1 2 1\n1.0\nbogus\n")
        with pytest.raises(GridParseError, match="line 3.*value 2.*bogus"):
            read_grid(path)

    def test_non_finite_value_reports_position(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "w") as fh:
            fh.write("GRID 1 2 1\n1.0\ninf\n")
        with pytest.raises(GridParseError, match="line 3.*value 2.*non-finite 'inf'"):
            read_grid(path)

    def test_wrong_magic(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "w") as fh:
            fh.write("GIRD 1 1 1\n0.0\n")
        with pytest.raises(GridParseError, match="expected 'GRID'"):
            read_grid(path)

    @pytest.mark.parametrize("reader, text, message", [
        (read_grid, "GRID 100000 100000 100000\n", "line 1: expected 1000000000000000 values, got 0"),
        (read_mask, "MASK 1000000000 1000000000\n0 1\n",
         "line 2: expected 1000000000000000000 values, got 2"),
        (read_grid, "GRID 99999999999999999999 1 1\n0.5\n",
         "line 2: expected 99999999999999999999 values, got 1"),
    ], ids=["grid", "mask", "beyond-maxsize"])
    def test_oversized_header_reports_the_count(self, tmp_path, reader, text, message):
        # not a MemoryError, islice's ValueError or numpy's dimension limit
        path = tmp_path / "big.grid"
        path.write_text(text)
        with pytest.raises(GridParseError) as got:
            reader(str(path))
        assert str(got.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader, content, message", [
        (read_grid, b"", "line 1: empty file, expected 'GRID' header"),
        (read_mask, b"MASK 2\n", "line 1: truncated MASK header"),
        (read_grid, b"GRID 2 0 1\n", "line 1: dimensions must be positive, got [2, 0, 1]"),
        (read_grid, b"GRID 2 x 1\n", "line 1: bad GRID dimension 'x'"),
        (read_mask, b"MASK 1 1\n\xff\n", "not an ASCII grid file ('ascii' codec can't decode "
                                         "byte 0xff in position 9: ordinal not in range(128))"),
    ], ids=["empty", "truncated-header", "zero-dimension", "bad-dimension", "not-ascii"])
    def test_malformed_file_reports_one_error(self, tmp_path, reader, content, message):
        path = tmp_path / "bad.grid"
        path.write_bytes(content)
        with pytest.raises(GridParseError) as got:
            reader(str(path))
        assert str(got.value) == f"{path}: {message}"

    def test_written_bytes_match_digest(self, tmp_path):
        # sha256 of each file as written before grid, mask and model files
        # shared one block writer; repr keeps -0.0 and 1e-300 exact
        write_grid(LatentGrid(np.array([-0.0, 1e-300, 1 / 3, -2.5, 1e300, 7.0]).reshape(2, 1, 3)),
                   str(tmp_path / "g.grid"))
        write_mask(Mask(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])), str(tmp_path / "m.mask"))
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("g.grid", "m.mask")]
        assert digests == ["3b3130738b20ab4f44a0bcca83bd2bb789431e767f98676a5cce90403e743105",
                           "9ad5bd36d8b4122950ae04d971a69531405710ac75ea2060b17479d94682b333"]

    def test_mask_roundtrip(self, tmp_path):
        m = Mask(np.array([[1.0, 0.0], [0.0, 1.0]]))
        path = str(tmp_path / "m.mask")
        write_mask(m, path)
        assert np.array_equal(read_mask(path).data, m.data)

    def test_mask_rejects_non_binary(self, tmp_path):
        path = str(tmp_path / "m.mask")
        with open(path, "w") as fh:
            fh.write("MASK 1 2\n0 0.5\n")
        with pytest.raises(GridParseError, match="exactly 0 or 1"):
            read_mask(path)

    @given(arrays(np.float64, array_shapes(min_dims=3, max_dims=3, max_side=5),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([-0.0, 5e-324, -2.2250738585072e-310, 1.7976931348623157e308,
                       -1.7976931348623157e308, 2.2250738585072014e-308]).reshape(1, 2, 3))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_keeps_every_float_and_sign(self, tmp_path_factory, values):
        path = str(tmp_path_factory.mktemp("io") / "g.grid")
        write_grid(LatentGrid(values), path)
        back = read_grid(path).data
        assert back.shape == values.shape
        assert np.array_equal(back, values)
        assert np.array_equal(np.signbit(back), np.signbit(values))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, seed):
        g = LatentGrid(1e3 * RngStream(seed).normal((2, 3, 2)))
        path = str(tmp_path_factory.mktemp("io") / "g.grid")
        write_grid(g, path)
        assert np.array_equal(read_grid(path).data, g.data)
