"""Grids, masks, random streams, and the grid file format."""

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
    _normal_rows,
    _philox_uniforms,
    gaussian_grid,
    masked_combine,
    mean_stat,
    read_grid,
    read_mask,
    rmse,
    write_grid,
    write_mask,
)


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

    def test_from_flat_count_check(self):
        with pytest.raises(ValueError, match="expected 4"):
            LatentGrid.from_flat([1.0, 2.0, 3.0], 2, 2, 1)


class TestMask:
    def test_values_must_be_binary(self):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            Mask(np.full((2, 2), 0.5))

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

    def test_int_shape_equals_one_tuple(self):
        assert np.array_equal(RngStream(7).normal(3), RngStream(7).normal((3,)))

    @given(n=st.integers(1, 700), count=st.integers(0, 60), seed=st.integers(0, 2**64 - 1))
    @example(n=1, count=2 * _NORMAL_BLOCK + 3, seed=0)
    @example(n=_NORMAL_BLOCK + 1, count=3, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_normal_rows_equal_successive_normal_calls(self, n, count, seed):
        rows, calls = RngStream(seed), RngStream(seed)
        for row in _normal_rows(rows, n, count):
            assert np.array_equal(row, calls.normal((n,)))
        assert rows.position == calls.position
        assert np.array_equal(rows.normal((5,)), calls.normal((5,)))

    def test_gaussian_moments(self):
        g = gaussian_grid(RngStream(7), 64, 64, 4)
        n = g.size
        assert abs(g.data.mean()) < 0.03
        assert 0.95 < g.data.var() < 1.05
        assert n == 16384

    def test_gaussian_grid_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_grid(RngStream(1), 0, 4, 1)

    def test_nested_spawn_equals_one_spawn_with_the_whole_path(self):
        a = RngStream(7)
        nested = a.spawn("chain").spawn(3)
        assert nested.key == a.spawn("chain", 3).key
        assert np.array_equal(nested.normal((5,)), a.spawn("chain", 3).normal((5,)))

    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        count=st.integers(1, 45),
    )
    @example(keys=[0, 2**64 - 1], count=7)
    @settings(max_examples=60, deadline=None)
    def test_multi_key_philox_matches_numpy_per_key(self, keys, count):
        got = _philox_uniforms(np.array(keys, dtype=np.uint64), count)
        for key, row in zip(keys, got):
            expected = np.random.Generator(np.random.Philox(key=key)).random(count)
            assert np.array_equal(row, expected)


class TestStats:
    def test_mean_constant(self):
        assert mean_stat(LatentGrid.constant(2.0, 3, 3, 1)) == 2.0

    def test_mean_symmetry(self):
        g = LatentGrid.from_flat([1.0, -1.0], 2, 1, 1)
        assert mean_stat(g) == 0.0

    def test_mean_hand_sum(self):
        g = LatentGrid.from_flat([0.5, 1.5, 2.5, 3.5], 2, 2, 1)
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
        a = LatentGrid.from_flat([5.0, 5.0], 2, 1, 1)
        b = LatentGrid.from_flat([9.0, 9.0], 2, 1, 1)
        m = Mask(np.array([[1.0], [0.0]]))
        out = masked_combine(a, b, m)
        assert out.flat().tolist() == [5.0, 9.0]

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
