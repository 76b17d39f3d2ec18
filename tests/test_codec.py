"""The lossy codec: encode/decode laws, quantization lattice, drift curve."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentedit.codec import CodecConfig, _blur, blur_grid, decode, encode
from latentedit.fixtures import load_fixture, structured_fixture
from latentedit.grid import LatentGrid, RngStream, rmse


class TestConfig:
    def test_defaults(self, codec_cfg):
        assert codec_cfg.downsample == 2
        assert codec_cfg.levels == 32
        assert codec_cfg.clamp == 4.0
        assert codec_cfg.unsharp == 0.15
        assert codec_cfg.cell == 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match="downsample"):
            CodecConfig(downsample=0)
        with pytest.raises(ValueError, match="levels"):
            CodecConfig(levels=1)
        with pytest.raises(ValueError, match="clamp"):
            CodecConfig(clamp=0.0)
        for clamp in (1e308, float("inf"), float("nan")):  # 2 * clamp / levels overflows
            with pytest.raises(ValueError, match="finite cell"):
                CodecConfig(clamp=clamp)
        with pytest.raises(ValueError, match="unsharp"):
            CodecConfig(unsharp=1.0)


class TestEncode:
    def test_constant_on_lattice_point_is_preserved(self, codec_cfg):
        # 2.125 is a midpoint of the default 32-level [-4, 4] lattice
        image = LatentGrid.constant(2.125, 4, 4, 1)
        latent = encode(image, codec_cfg)
        np.testing.assert_array_equal(latent.data, np.full((2, 2, 1), 2.125))

    def test_overrange_clamps_to_nearest_lattice_point(self, codec_cfg):
        image = LatentGrid.constant(codec_cfg.clamp + 1.0, 2, 2, 1)
        latent = encode(image, codec_cfg)
        expected = codec_cfg.clamp - codec_cfg.cell / 2  # 3.875
        np.testing.assert_array_equal(latent.data, np.full((1, 1, 1), expected))

    def test_block_average_with_fine_lattice(self):
        # rows [0,0] and [1,1]: replicate-pad blur gives rows 0.25 / 0.75,
        # whose 2x2 average is exactly 0.5
        cfg = CodecConfig(downsample=2, levels=1 << 20, clamp=4.0)
        image = LatentGrid(np.reshape([0.0, 0.0, 1.0, 1.0], (2, 2, 1)))
        latent = encode(image, cfg)
        assert abs(latent.data[0, 0, 0] - 0.5) <= cfg.cell

    def test_output_always_on_lattice(self, codec_cfg):
        image = LatentGrid(3.0 * RngStream(4).normal((8, 8, 2)))
        latent = encode(image, codec_cfg)
        cells = (latent.data + codec_cfg.clamp) / codec_cfg.cell - 0.5
        np.testing.assert_allclose(cells, np.round(cells), atol=1e-9)

    def test_dims_must_divide(self, codec_cfg):
        with pytest.raises(ValueError, match="not divisible"):
            encode(LatentGrid.constant(0.0, 3, 4, 1), codec_cfg)


class TestDecode:
    def test_constant_latent_gives_constant_image(self, codec_cfg):
        latent = LatentGrid.constant(1.125, 2, 2, 1)
        image = decode(latent, codec_cfg)
        np.testing.assert_array_equal(image.data, np.full((4, 4, 1), 1.125))

    def test_zero_unsharp_is_pure_upsample(self):
        cfg = CodecConfig(unsharp=0.0)
        latent = LatentGrid(np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2, 1)))
        image = decode(latent, cfg)
        assert image.shape == (4, 4, 1)
        assert image.data[0, 0, 0] == 1.0
        assert image.data[0, 2, 0] == 2.0
        assert image.data[3, 3, 0] == 4.0
        np.testing.assert_array_equal(
            encode(decode(LatentGrid.constant(0.625, 2, 2, 1), cfg), cfg).data,
            np.full((2, 2, 1), 0.625),
        )

    def test_step_edge_overshoot_hand_values(self):
        # latent column [0, 1], k=2, u=0.15: upsampled column [0,0,1,1];
        # vertical blur with replicate pad = [0, 0.25, 0.75, 1], so
        # x + 0.15 (x - blur x) = [0, -0.0375, 1.0375, 1]
        cfg = CodecConfig(downsample=2, unsharp=0.15)
        latent = LatentGrid(np.reshape([0.0, 1.0], (2, 1, 1)))
        image = decode(latent, cfg)
        np.testing.assert_allclose(
            image.data[:, 0, 0], [0.0, -0.0375, 1.0375, 1.0], rtol=1e-12
        )


def roundtrip_drift(image, n, cfg):
    """RMSE against ``image`` after each of n passes of x <- decode(encode(x))."""
    drift, x = [], image
    for _ in range(n):
        x = decode(encode(x, cfg), cfg)
        drift.append(rmse(x, image))
    return drift


class TestRoundtripDrift:
    def test_constant_image_snaps_once_then_fixed(self, codec_cfg):
        image = LatentGrid.constant(2.0, 4, 4, 1)  # off-lattice: snaps to 2.125
        drift = roundtrip_drift(image, 6, codec_cfg)
        np.testing.assert_allclose(drift, [0.125] * 6, rtol=1e-12)

    def test_idempotent_on_lattice_constants(self, codec_cfg):
        image = LatentGrid.constant(-0.625, 4, 4, 1)
        once = decode(encode(image, codec_cfg), codec_cfg)
        twice = decode(encode(once, codec_cfg), codec_cfg)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_single_iteration(self, codec_cfg):
        drift = roundtrip_drift(LatentGrid.constant(0.125, 2, 2, 1), 1, codec_cfg)
        assert len(drift) == 1
        assert drift[0] >= 0.0

    def test_fixture_drift_non_decreasing_and_growing(self, codec_cfg):
        # golden-curve behavior of the shipped fixture at default codec
        drift = roundtrip_drift(load_fixture(), 16, codec_cfg)
        assert all(drift[i + 1] >= drift[i] - 1e-12 for i in range(15))
        assert drift[15] > drift[3]

    def test_fixture_drift_regression_curve(self, codec_cfg):
        # frozen from the first oracle run on the shipped fixture
        drift = roundtrip_drift(load_fixture(), 4, codec_cfg)
        np.testing.assert_allclose(
            drift, [0.4828, 0.5691, 0.6541, 0.7280], atol=2e-4
        )


def pad_blur(arr):
    """The binomial blur over an ``np.pad(mode="edge")`` array: the oracle
    for ``_blur``, which replicates the edges one axis at a time."""
    padded = np.pad(arr, ((1, 1), (1, 1), (0, 0)), mode="edge")
    rows = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
    return (rows[:, :-2] + 2.0 * rows[:, 1:-1] + rows[:, 2:]) / 4.0


BLUR_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


class TestBlurGrid:
    @given(
        h=st.integers(1, 40), w=st.integers(1, 40), c=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1), magnitude=st.sampled_from([1.0, 1e-310, 1e300]),
        specials=st.lists(st.tuples(st.integers(0, 4799), st.sampled_from(BLUR_SPECIALS)),
                          max_size=40),
    )
    @example(h=1, w=1, c=3, seed=0, magnitude=1.0, specials=[(0, -0.0), (2, 1e308)])
    @example(h=1, w=7, c=1, seed=1, magnitude=1e300, specials=[(0, 1e308), (1, 1e308)])
    @example(h=9, w=1, c=2, seed=2, magnitude=1e-310, specials=[(3, -5e-324), (4, -0.0)])
    @settings(max_examples=200, deadline=None)
    def test_blur_equals_pad_recipe(self, h, w, c, seed, magnitude, specials):
        arr = magnitude * RngStream(seed).normal((h, w, c))
        for i, value in specials:
            arr.flat[i % arr.size] = value
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 2e308 is inf, inf - inf NaN
            got, want = _blur(arr), pad_blur(arr)
        assert got.shape == want.shape == arr.shape
        assert got.tobytes() == want.tobytes()


    def test_preserves_constants(self):
        g = LatentGrid.constant(1.7, 5, 5, 2)
        np.testing.assert_allclose(blur_grid(g).data, g.data, rtol=1e-12)

    def test_kernel_weights(self):
        g = LatentGrid(np.zeros((5, 5, 1)))
        data = g.data.copy()
        data[2, 2, 0] = 16.0
        blurred = blur_grid(LatentGrid(data))
        np.testing.assert_allclose(blurred.data[2, 2, 0], 4.0, rtol=1e-12)
        np.testing.assert_allclose(blurred.data[1, 2, 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(blurred.data[1, 1, 0], 1.0, rtol=1e-12)


class TestFixture:
    def test_shipped_file_matches_generator(self):
        assert np.array_equal(load_fixture().data, structured_fixture().data)

    def test_dimensions_divide_default_codec(self, codec_cfg):
        fx = load_fixture()
        assert fx.h % codec_cfg.downsample == 0
        assert fx.w % codec_cfg.downsample == 0
