"""Tests for the STFT, SALSA channels, and normalization statistics.

The frozen numbers in TestStft come from the closed form for a periodic
Hann window of length N: its DFT has support {-1, 0, 1} with coefficients
(-N/4, N/2, -N/4), so a bin-centered sine concentrates magnitude N/4 at
its bin and N/8 at the two neighbors, i.e. exactly 2/3 of the energy in
the center bin and all of it within one bin either side.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal.windows import hann

import helpers
import oracles
from seldkit import features
from seldkit import (
    MultichannelClip,
    NormStats,
    compute_norm_stats,
    eigenvector_intensity,
    load_norm_stats,
    log_linear_spectrogram,
    normalize,
    salsa,
    save_norm_stats,
    stft,
)
from seldkit.errors import EmptyManifest, SeldkitError, ShapeMismatch, TooShort


class TestStft:
    def test_frame_count_arithmetic(self):
        for n_samples, n_frames in ((512, 1), (811, 1), (812, 2),
                                    (24000, 79), (48000, 159)):
            clip = MultichannelClip(np.zeros((4, n_samples)))
            spec = stft(clip)
            assert spec.shape == (4, 257, n_frames)

    def test_zero_clip(self):
        spec = stft(MultichannelClip(np.zeros((4, 2000))))
        assert spec.dtype == np.complex128
        assert_array_equal(spec, 0.0)

    def test_impulse_lands_in_one_frame(self):
        samples = np.zeros((4, 1200))
        samples[:, 856] = 1.0
        spec = stft(MultichannelClip(samples))
        assert spec.shape[2] == 3
        # frames 0 and 1 end at samples 512 and 812; only frame 2 sees it
        assert_array_equal(spec[:, :, 0], 0.0)
        assert_array_equal(spec[:, :, 1], 0.0)
        # window value at in-frame position 856 - 600 = 256 is the Hann peak
        assert_allclose(np.abs(spec[:, :, 2]), 1.0, rtol=1e-12)

    def test_bin_centered_sine_leakage(self):
        n = np.arange(24000)
        s = np.sin(2.0 * np.pi * 40.0 * n / 512.0)
        spec = stft(MultichannelClip(np.stack([s, s, s, s])))
        mags = np.abs(spec[0])
        assert_allclose(mags[40], 128.0, rtol=1e-9)
        assert_allclose(mags[39], 64.0, rtol=1e-9)
        assert_allclose(mags[41], 64.0, rtol=1e-9)
        off = np.delete(mags, [39, 40, 41], axis=0)
        assert np.max(off) < 1e-9
        energy = mags ** 2
        frac_center = energy[40] / energy.sum(axis=0)
        assert_allclose(frac_center, 2.0 / 3.0, rtol=1e-12)
        frac_triplet = energy[39:42].sum(axis=0) / energy.sum(axis=0)
        assert_allclose(frac_triplet, 1.0, rtol=1e-12)
        assert_array_equal(np.argmax(mags, axis=0), 40)

    def test_custom_hop(self):
        clip = helpers.make_noise_clip(n_samples=2048, seed=1)
        spec = stft(clip, hop=512)
        assert spec.shape[2] == 4

    def test_window_too_long(self):
        clip = MultichannelClip(np.zeros((4, 512)))
        with pytest.raises(TooShort):
            stft(clip, window_len=600)

    @pytest.mark.parametrize("n_samples", [512, 812, 24077])
    @pytest.mark.parametrize("window_len, hop", [(512, 300), (400, 160)])
    def test_block_size_never_changes_output(self, n_samples, window_len, hop,
                                             monkeypatch):
        # frames are transformed a block at a time; every block size must
        # give the bits of one rfft over all the clip's frames
        clip = helpers.make_noise_clip(n_samples=n_samples, seed=20)
        frames = sliding_window_view(clip.samples, window_len, axis=1)[:, ::hop]
        want = np.fft.rfft(frames * hann(window_len, sym=False), axis=2)
        want = want.transpose(0, 2, 1)
        n_t = want.shape[2]
        for block in (1, 2, 7, n_t - 1, n_t, features._BLOCK_FRAMES):
            if block < 1:
                continue
            monkeypatch.setattr(features, "_BLOCK_FRAMES", block)
            assert_array_equal(stft(clip, window_len, hop), want,
                               err_msg=f"block {block}")


class TestLogLinearSpectrogram:
    def test_matches_direct_formula(self):
        clip = helpers.make_noise_clip(seed=2)
        spec = stft(clip)
        out = log_linear_spectrogram(spec)
        assert out.shape == (4, 200, 79)
        expected = np.log(np.maximum(np.abs(spec[:, :200]) ** 2, 1e-10))
        assert_array_equal(out, expected)

    def test_floor_on_silence(self):
        out = log_linear_spectrogram(stft(MultichannelClip(np.zeros((4, 900)))))
        assert_allclose(out, np.log(1e-10), rtol=1e-15)

    def test_floor_is_global_minimum(self):
        clip = helpers.make_noise_clip(seed=3)
        out = log_linear_spectrogram(stft(clip))
        assert np.min(out) >= np.log(1e-10) - 1e-12

    def test_bin_truncation(self):
        clip = helpers.make_noise_clip(n_samples=1000, seed=4)
        spec = stft(clip)
        assert log_linear_spectrogram(spec, n_bins=50).shape == (4, 50, 2)


class TestEigenvectorIntensity:
    def test_silence_gives_zeros(self):
        out = eigenvector_intensity(stft(MultichannelClip(np.zeros((4, 900)))))
        assert out.shape == (3, 200, 2)
        assert_array_equal(out, 0.0)

    def test_plane_wave_recovers_direction(self):
        for azimuth, elevation in ((30.0, 10.0), (-120.0, -45.0), (90.0, 0.0)):
            clip = helpers.make_plane_wave_clip(azimuth, elevation, seed=5)
            out = eigenvector_intensity(stft(clip))
            x = np.cos(np.deg2rad(azimuth)) * np.cos(np.deg2rad(elevation))
            y = np.sin(np.deg2rad(azimuth)) * np.cos(np.deg2rad(elevation))
            z = np.sin(np.deg2rad(elevation))
            for channel, value in enumerate((x, y, z)):
                assert_allclose(out[channel], value, atol=1e-6)

    def test_norms_never_exceed_one(self):
        rng = np.random.default_rng(6)
        wave_a = helpers.make_plane_wave_clip(20.0, 5.0, seed=7).samples
        wave_b = helpers.make_plane_wave_clip(-60.0, 40.0, seed=8).samples
        mixed = MultichannelClip(wave_a + wave_b + 0.01 * rng.standard_normal(wave_a.shape))
        out = eigenvector_intensity(stft(mixed))
        norms = np.linalg.norm(out, axis=0)
        assert np.max(norms) <= 1.0 + 1e-12

    def test_rank_one_constant_grid(self):
        # smooth=(1,1) makes each cell's covariance the rank-1 outer product
        # of (W, Y, Z, X) = (1, 0.2, -0.3, 0.6), so the principal
        # eigenvector ratios are read off directly
        v = np.array([1.0, 0.2, -0.3, 0.6], dtype=complex)
        grid = np.tile(v[:, None, None], (1, 5, 4))
        out = eigenvector_intensity(grid, n_bins=5, smooth=(1, 1))
        assert_allclose(out[0], 0.6, rtol=1e-12)
        assert_allclose(out[1], 0.2, rtol=1e-12)
        assert_allclose(out[2], -0.3, rtol=1e-12)

    def test_long_vectors_rescaled_to_unit(self):
        v = np.array([1.0, 0.8, 0.8, 0.8], dtype=complex)
        grid = np.tile(v[:, None, None], (1, 3, 3))
        out = eigenvector_intensity(grid, n_bins=3, smooth=(1, 1))
        assert_allclose(np.linalg.norm(out, axis=0), 1.0, rtol=1e-12)
        assert_allclose(out[0], out[1], rtol=1e-12)

    def test_vanishing_w_component_gives_zeros(self):
        rng = np.random.default_rng(9)
        grid = rng.standard_normal((4, 6, 4)) + 1j * rng.standard_normal((4, 6, 4))
        grid[0] = 0.0
        out = eigenvector_intensity(grid, n_bins=6)
        assert_array_equal(out, 0.0)

    def test_tiny_direction_snaps_to_zero(self):
        v = np.array([1.0, 1e-12, 0.0, 0.0], dtype=complex)
        grid = np.tile(v[:, None, None], (1, 3, 3))
        out = eigenvector_intensity(grid, n_bins=3, smooth=(1, 1))
        assert_array_equal(out, 0.0)

    def test_against_loop_oracle_including_edges(self):
        rng = np.random.default_rng(10)
        grid = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
        got = eigenvector_intensity(grid, n_bins=6, smooth=(3, 3))
        want = oracles.loop_intensity(grid, smooth=(3, 3))
        assert_allclose(got, want, atol=1e-7)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
        rotated = grid * np.exp(0.73j)
        assert_allclose(
            eigenvector_intensity(grid, n_bins=6),
            eigenvector_intensity(rotated, n_bins=6),
            atol=1e-10,
        )

    @pytest.mark.parametrize("smooth", [(1, 1), (3, 3), (2, 4), (5, 1), (1, 5)])
    def test_block_size_never_changes_output(self, smooth, monkeypatch):
        # every block size must give the default's bits, also when a block
        # is narrower than the window's halo; the small grids include ones
        # with fewer bins or frames than the window
        rng = np.random.default_rng(14)
        grids = [rng.standard_normal((4, f, t)) + 1j * rng.standard_normal((4, f, t))
                 for f, t in ((6, 9), (2, 3), (7, 1))]
        grids.append(stft(helpers.make_noise_clip(seed=15))[:, :200])
        default = features._BLOCK_FRAMES
        for grid in grids:
            n_f, n_t = grid.shape[1:]
            want = eigenvector_intensity(grid, n_bins=n_f, smooth=smooth)
            if n_f * n_t < 100:
                assert_allclose(want, oracles.loop_intensity(grid, smooth), atol=1e-7)
            assert_allclose(want, oracles.direct_sum_intensity(grid, smooth), atol=1e-12)
            for block in (1, 2, 7, n_t - 1, n_t, default):
                if block < 1:
                    continue
                monkeypatch.setattr(features, "_BLOCK_FRAMES", block)
                got = eigenvector_intensity(grid, n_bins=n_f, smooth=smooth)
                assert_array_equal(got, want, err_msg=f"block {block}")
            monkeypatch.setattr(features, "_BLOCK_FRAMES", default)

    @pytest.mark.parametrize("smooth", [(0, 3), (3, -1)])
    def test_non_positive_window_rejected(self, smooth):
        grid = np.ones((4, 3, 3), dtype=complex)
        with pytest.raises(SeldkitError, match="must be positive"):
            eigenvector_intensity(grid, n_bins=3, smooth=smooth)

    @pytest.mark.parametrize("drop_db", [40, 60, 80])
    def test_quiet_after_loud_matches_direct_sum(self, drop_db):
        # a running-sum (integral image) covariance loses the quiet half's
        # digits to cancellation against the loud half; a direct sum keeps
        # them, so the float64 oracle is matched to rounding
        n = 24000 * 20
        samples = helpers.make_plane_wave_clip(-70.0, 25.0, n_samples=n,
                                               seed=16).samples.copy()
        samples[:, n // 2:] *= 10.0 ** (-drop_db / 20.0)
        spec = stft(MultichannelClip(samples))
        got = eigenvector_intensity(spec)
        want = oracles.direct_sum_intensity(spec[:, :200])
        assert np.max(np.abs(got - want)) <= 1e-9


class TestSalsa:
    def test_composition_and_dtype(self):
        clip = helpers.make_plane_wave_clip(45.0, 20.0, seed=12)
        out = salsa(clip)
        assert out.shape == (7, 200, 79)
        assert out.dtype == np.float32
        spec = stft(clip)
        expected = np.concatenate(
            [log_linear_spectrogram(spec), eigenvector_intensity(spec)]
        ).astype(np.float32)
        assert_array_equal(out, expected)

    def test_deterministic(self):
        clip = helpers.make_noise_clip(seed=13)
        assert_array_equal(salsa(clip), salsa(clip))

    def test_two_seconds_of_audio(self):
        clip = helpers.make_noise_clip(n_samples=48000, seed=14)
        assert salsa(clip).shape == (7, 200, 159)

    @pytest.mark.parametrize("n_frames", [1, 2, 79, 801])
    def test_block_size_never_changes_output(self, n_frames, monkeypatch):
        # salsa streams stft, log-spectrogram and intensity a block (plus
        # its smoothing halo) at a time; every block size must give the
        # bits of the public stages run on the whole clip
        n_samples = 512 + 300 * (n_frames - 1) + 41
        clip = helpers.make_noise_clip(n_samples=n_samples, seed=21)
        spec = stft(clip)
        want = np.concatenate(
            [log_linear_spectrogram(spec), eigenvector_intensity(spec)]
        ).astype(np.float32)
        for block in (1, 2, 7, n_frames - 1, n_frames, features._BLOCK_FRAMES):
            if block < 1:
                continue
            monkeypatch.setattr(features, "_BLOCK_FRAMES", block)
            assert_array_equal(salsa(clip), want, err_msg=f"block {block}")

    def test_working_memory_does_not_grow_with_clip_length(self):
        # beyond the clip and its (7, 200, T) output, salsa holds one block
        # of frames at a time, so a 60 s clip peaks where a 20 s one does
        extra = []
        for seconds in (20, 60):
            clip = helpers.make_noise_clip(n_samples=24000 * seconds, seed=22)
            tracemalloc.start()
            try:
                out = salsa(clip)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        assert extra[1] <= 64 * 2 ** 20
        assert abs(extra[1] - extra[0]) <= 0.05 * extra[0]


class TestNormStats:
    def test_fit_then_normalize_standardizes(self):
        rng = np.random.default_rng(15)
        tensor = rng.normal(3.0, 2.5, size=(7, 20, 50))
        stats = compute_norm_stats([tensor])
        out = normalize(tensor, stats)
        assert out.dtype == np.float32
        assert_allclose(out.mean(axis=2), 0.0, atol=1e-6)
        assert_allclose(out.std(axis=2), 1.0, atol=1e-5)

    def test_bits_of_the_whole_tensor_float64_formulas(self):
        # per-channel float64 work must round like the same formulas on
        # the whole tensor widened at once
        rng = np.random.default_rng(19)
        tensors = [rng.normal(2.0, 3.0, size=(7, 30, t)).astype(np.float32)
                   for t in (40, 9)]
        stats = compute_norm_stats(tensors)
        wide = [t.astype(np.float64) for t in tensors]
        mean = sum(w.sum(axis=2) for w in wide) / 49
        var = sum((w * w).sum(axis=2) for w in wide) / 49 - mean * mean
        assert_array_equal(stats.mean, mean)
        assert_array_equal(stats.std, np.maximum(np.sqrt(np.maximum(var, 0.0)), 1e-8))
        want = (wide[0] - stats.mean[:, :, None]) / stats.std[:, :, None]
        assert_array_equal(normalize(tensors[0], stats), want.astype(np.float32))

    def test_working_memory_is_a_few_channels(self):
        # a (7, 200, T) float32 tensor is widened to float64 one channel at
        # a time, never whole
        tensor = np.random.default_rng(20).standard_normal(
            (7, 200, 2400)).astype(np.float32)
        channel = 200 * 2400 * 8
        tracemalloc.start()
        try:
            stats = compute_norm_stats([tensor])
            stats_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out = normalize(tensor, stats)
            normalize_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats_peak <= 3 * channel
        assert normalize_peak - out.nbytes <= 3 * channel

    def test_pooled_over_several_tensors(self):
        rng = np.random.default_rng(16)
        tensors = [rng.normal(1.0, 2.0, size=(3, 4, t)) for t in (11, 7, 22)]
        stats = compute_norm_stats(tensors)
        pooled = np.concatenate(tensors, axis=2)
        assert_allclose(stats.mean, pooled.mean(axis=2), rtol=1e-12)
        assert_allclose(stats.std, pooled.std(axis=2), rtol=1e-10)

    def test_constant_row_floors_std(self):
        tensor = np.full((2, 3, 10), 4.0)
        stats = compute_norm_stats([tensor])
        assert_array_equal(stats.std, 1e-8)
        assert_array_equal(normalize(tensor, stats), 0.0)

    def test_identity_stats_pass_through(self):
        rng = np.random.default_rng(17)
        tensor = rng.standard_normal((3, 5, 8)).astype(np.float32)
        stats = NormStats(np.zeros((3, 5)), np.ones((3, 5)))
        assert_array_equal(normalize(tensor, stats), tensor)

    def test_accepts_generators(self):
        rng = np.random.default_rng(18)
        tensors = [rng.standard_normal((2, 3, 5)) for _ in range(3)]
        a = compute_norm_stats(tensors)
        b = compute_norm_stats(t for t in tensors)
        assert_array_equal(a.mean, b.mean)
        assert_array_equal(a.std, b.std)

    def test_empty_inputs(self):
        with pytest.raises(EmptyManifest):
            compute_norm_stats([])
        with pytest.raises(EmptyManifest):
            compute_norm_stats([np.zeros((2, 3, 0))])

    def test_shape_mismatches(self):
        with pytest.raises(ShapeMismatch):
            compute_norm_stats([np.zeros((2, 3))])
        with pytest.raises(ShapeMismatch):
            compute_norm_stats([np.zeros((2, 3, 4)), np.zeros((2, 4, 4))])
        stats = NormStats(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            normalize(np.zeros((2, 4, 5)), stats)

    def test_stats_validation(self):
        with pytest.raises(ShapeMismatch):
            NormStats(np.zeros((2, 3)), np.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            NormStats(np.zeros(3), np.ones(3))
        with pytest.raises(SeldkitError):
            NormStats(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SeldkitError):
            NormStats(np.full((2, 2), np.nan), np.ones((2, 2)))

    def test_save_load_rounds_to_float32(self, tmp_path):
        rng = np.random.default_rng(19)
        mean = rng.standard_normal((7, 200))
        std = np.abs(rng.standard_normal((7, 200))) + 0.5
        path = tmp_path / "stats.slsa"
        save_norm_stats(NormStats(mean, std), path)
        loaded = load_norm_stats(path)
        assert_array_equal(loaded.mean, mean.astype(np.float32).astype(np.float64))
        assert_array_equal(loaded.std, std.astype(np.float32).astype(np.float64))

    def test_load_rejects_wrong_layout(self, tmp_path):
        from seldkit import write_feature_file

        path = tmp_path / "bad.slsa"
        write_feature_file(np.zeros((3, 2, 2)), path)
        with pytest.raises(ShapeMismatch):
            load_norm_stats(path)
