"""Tests for the five augmentations and their stochastic composition.

The channel-swap group and the pipeline's draw order are load-bearing
reproducibility contracts, so both get exhaustive checks: all 16 patterns
against an independent angle-domain oracle, and a manual replay of the
generator stream against the pipeline output, bit for bit.
"""

import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import helpers
from seldkit import (
    AugmentConfig,
    Event,
    SwapPattern,
    apply_pattern_to_waveform,
    augment_pipeline,
    channel_swap,
    decode,
    doa_to_unit_vector,
    encode,
    enumerate_swap_patterns,
    frame_shift,
    make_rng,
    moderate_mixup,
    pitch_shift,
    salsa,
    sample_lambda,
    time_mask,
)
from seldkit.augment import config_from_mapping
from seldkit.errors import (
    FrameOutOfRange,
    Misaligned,
    NonAlignedOffset,
    RatioOutOfRange,
    SeldkitError,
    ShapeMismatch,
    ShiftOutOfRange,
    TooShort,
)


def compose(first: SwapPattern, second: SwapPattern) -> SwapPattern:
    """Pattern equal to applying first, then second, in the angle domain."""
    return SwapPattern(
        first.s * second.s,
        (second.s * first.k + second.k) % 4,
        first.e * second.e,
    )


class TestSwapPattern:
    def test_sixteen_unique_patterns_identity_first(self):
        patterns = enumerate_swap_patterns()
        assert len(patterns) == 16
        assert len(set(patterns)) == 16
        assert patterns[0] == SwapPattern(1, 0, 1)
        assert patterns[0].xy_matrix == ((1, 0), (0, 1))
        assert patterns[0].map_doa(37.0, -12.0) == (37.0, -12.0)

    def test_validation(self):
        with pytest.raises(SeldkitError):
            SwapPattern(2, 0, 1)
        with pytest.raises(SeldkitError):
            SwapPattern(1, 4, 1)
        with pytest.raises(SeldkitError):
            SwapPattern(1, 0, 0)
        # equal to valid integers, but not integers
        for bad in [(1, 1.0, 1), (True, 0, 1), (1, 0, True), (1.0, 0, 1),
                    (1, np.float64(2.0), 1), (1, np.True_, 1)]:
            with pytest.raises(SeldkitError):
                SwapPattern(*bad)
        assert SwapPattern(np.int64(-1), np.int8(3), 1).xy_matrix == ((0, -1), (-1, 0))

    def test_hand_checked_matrices(self):
        assert SwapPattern(1, 1, 1).xy_matrix == ((0, -1), (1, 0))
        assert SwapPattern(1, 2, 1).xy_matrix == ((-1, 0), (0, -1))
        assert SwapPattern(1, 3, 1).xy_matrix == ((0, 1), (-1, 0))
        assert SwapPattern(-1, 0, 1).xy_matrix == ((1, 0), (0, -1))
        assert SwapPattern(-1, 1, 1).xy_matrix == ((0, 1), (1, 0))
        assert SwapPattern(-1, 2, 1).xy_matrix == ((-1, 0), (0, 1))
        assert SwapPattern(-1, 3, 1).xy_matrix == ((0, -1), (-1, 0))

    def test_swaps_xy_iff_quarter_turn_is_odd(self):
        for pattern in enumerate_swap_patterns():
            assert pattern.swaps_xy == (pattern.k % 2 == 1)

    def test_matrix_agrees_with_angle_map(self):
        rng = np.random.default_rng(1)
        for pattern in enumerate_swap_patterns():
            (m_xx, m_xy), (m_yx, m_yy) = pattern.xy_matrix
            for _ in range(20):
                az = float(rng.uniform(-180.0, 180.0))
                el = float(rng.uniform(-89.0, 89.0))
                new_az, new_el = pattern.map_doa(az, el)
                (x, y, z), expected = doa_to_unit_vector([(az, el), (new_az, new_el)])
                got = [m_xx * x + m_xy * y, m_yx * x + m_yy * y, pattern.e * z]
                assert_allclose(got, expected, atol=1e-12)

    def test_map_doa_wraps_azimuth(self):
        az, el = SwapPattern(1, 2, 1).map_doa(120.0, 10.0)
        assert az == -60.0
        assert -180.0 <= az < 180.0
        assert el == 10.0

    def test_group_closure(self):
        patterns = enumerate_swap_patterns()
        for p1 in patterns:
            for p2 in patterns:
                c = compose(p1, p2)
                m1 = np.array(p1.xy_matrix)
                m2 = np.array(p2.xy_matrix)
                assert_array_equal(np.array(c.xy_matrix), m2 @ m1)
                assert c.e == p1.e * p2.e
                assert c in patterns

    def test_every_pattern_has_an_inverse(self):
        patterns = enumerate_swap_patterns()
        identity = patterns[0]
        for p in patterns:
            inverses = [q for q in patterns if compose(p, q) == identity]
            assert len(inverses) == 1
            # reflections and half-turns are involutions
            if p.k in (0, 2):
                assert inverses[0] == p


class TestChannelSwap:
    def _random_pair(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((7, 20, 16)).astype(np.float32)
        labs = rng.standard_normal((3, 13, 2))
        return feats, labs

    def test_identity_pattern_is_identity(self):
        feats, labs = self._random_pair(2)
        out_f, out_l = channel_swap(feats, labs, SwapPattern(1, 0, 1))
        assert_array_equal(out_f, feats)
        assert_array_equal(out_l, labs)

    def test_log_channels_w_and_z_never_move(self):
        feats, labs = self._random_pair(3)
        for pattern in enumerate_swap_patterns():
            out_f, _ = channel_swap(feats, labs, pattern)
            assert_array_equal(out_f[0], feats[0])
            assert_array_equal(out_f[2], feats[2])

    def test_log_channels_y_x_swap_only_on_odd_quarter_turns(self):
        feats, labs = self._random_pair(4)
        for pattern in enumerate_swap_patterns():
            out_f, _ = channel_swap(feats, labs, pattern)
            if pattern.swaps_xy:
                assert_array_equal(out_f[1], feats[3])
                assert_array_equal(out_f[3], feats[1])
            else:
                assert_array_equal(out_f[1], feats[1])
                assert_array_equal(out_f[3], feats[3])

    def test_intensity_and_labels_get_the_signed_map(self):
        feats, labs = self._random_pair(5)
        for pattern in enumerate_swap_patterns():
            (m_xx, m_xy), (m_yx, m_yy) = pattern.xy_matrix
            out_f, out_l = channel_swap(feats, labs, pattern)
            assert_array_equal(out_f[4], m_xx * feats[4] + m_xy * feats[5])
            assert_array_equal(out_f[5], m_yx * feats[4] + m_yy * feats[5])
            assert_array_equal(out_f[6], pattern.e * feats[6])
            assert_array_equal(out_l[0], m_xx * labs[0] + m_xy * labs[1])
            assert_array_equal(out_l[1], m_yx * labs[0] + m_yy * labs[1])
            assert_array_equal(out_l[2], pattern.e * labs[2])

    def test_label_norms_preserved_exactly(self):
        feats, labs = self._random_pair(6)
        for pattern in enumerate_swap_patterns():
            _, out_l = channel_swap(feats, labs, pattern)
            assert_array_equal(
                np.linalg.norm(out_l, axis=0), np.linalg.norm(labs, axis=0)
            )

    def test_matches_event_level_map(self):
        events = [Event(0, 2, 25.0, 40.0), Event(1, 7, -110.0, -15.0)]
        labs = encode(events, 2)
        feats = np.zeros((7, 10, 16), dtype=np.float32)
        for pattern in enumerate_swap_patterns():
            mapped = [
                Event(e.frame, e.class_id, *pattern.map_doa(e.azimuth, e.elevation))
                for e in events
            ]
            _, out_l = channel_swap(feats, labs, pattern)
            assert_allclose(out_l, encode(mapped, 2), atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            channel_swap(np.zeros((6, 10, 16)), np.zeros((3, 13, 2)),
                         SwapPattern(1, 0, 1))
        with pytest.raises(ShapeMismatch):
            channel_swap(np.zeros((7, 10, 16)), np.zeros((4, 13, 2)),
                         SwapPattern(1, 0, 1))


class TestWaveformEquivariance:
    def test_feature_swap_commutes_with_waveform_swap(self):
        clip = helpers.make_plane_wave_clip(25.0, 35.0, n_samples=12000, seed=7)
        labs = np.zeros((3, 13, 1))
        feats = salsa(clip)
        for pattern in enumerate_swap_patterns():
            swapped_feats, _ = channel_swap(feats, labs, pattern)
            direct = salsa(apply_pattern_to_waveform(clip, pattern))
            assert_allclose(direct[:4], swapped_feats[:4], atol=1e-5)
            assert_allclose(direct[4:], swapped_feats[4:], atol=1e-4)

    def test_waveform_map_matches_channel_definition(self):
        clip = helpers.make_plane_wave_clip(25.0, 35.0, n_samples=2000, seed=8)
        w, y, z, x = clip.samples
        out = apply_pattern_to_waveform(clip, SwapPattern(-1, 1, -1))
        # az -> -az + 90 sends (x, y) to (y, x); el flips z
        assert_array_equal(out.samples[0], w)
        assert_array_equal(out.samples[1], x)
        assert_array_equal(out.samples[2], -z)
        assert_array_equal(out.samples[3], y)

    def test_pattern_composition_on_waveforms(self):
        clip = helpers.make_noise_clip(n_samples=2000, seed=9)
        p1 = SwapPattern(-1, 3, 1)
        p2 = SwapPattern(1, 1, -1)
        chained = apply_pattern_to_waveform(
            apply_pattern_to_waveform(clip, p1), p2
        )
        direct = apply_pattern_to_waveform(clip, compose(p1, p2))
        assert_array_equal(chained.samples, direct.samples)


class TestPitchShift:
    def test_zero_shift_is_copy(self):
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((7, 12, 6))
        out = pitch_shift(feats, 0)
        assert_array_equal(out, feats)
        out[0, 0, 0] = 99.0
        assert feats[0, 0, 0] != 99.0

    def test_upward_shift_replicates_bottom_row(self):
        feats = np.arange(12, dtype=float).reshape(1, 12, 1)
        out = pitch_shift(feats, 3)
        assert_array_equal(out[0, :, 0], [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8])

    def test_downward_shift_replicates_top_row(self):
        feats = np.arange(12, dtype=float).reshape(1, 12, 1)
        out = pitch_shift(feats, -4)
        assert_array_equal(out[0, :, 0], [4, 5, 6, 7, 8, 9, 10, 11, 11, 11, 11, 11])

    def test_all_channels_shift_together(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((7, 30, 4))
        out = pitch_shift(feats, 5)
        assert_array_equal(out[:, 5:, :], feats[:, :-5, :])
        for row in range(5):
            assert_array_equal(out[:, row, :], feats[:, 0, :])

    def test_interior_round_trip(self):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((2, 40, 3))
        back = pitch_shift(pitch_shift(feats, 6), -6)
        assert_array_equal(back[:, :-6, :], feats[:, :-6, :])

    def test_errors(self):
        feats = np.zeros((7, 12, 4))
        with pytest.raises(ShiftOutOfRange):
            pitch_shift(feats, 11)
        with pytest.raises(ShiftOutOfRange):
            pitch_shift(feats, -3, max_shift=2)
        with pytest.raises(SeldkitError):
            pitch_shift(feats, 1.5)
        with pytest.raises(ShapeMismatch):
            pitch_shift(np.zeros((12, 4)), 1)
        assert pitch_shift(feats, 12, max_shift=15).shape == feats.shape
        # the bound is checked on its own, even for a zero shift
        with pytest.raises(SeldkitError, match="^max_shift must be >= 0"):
            pitch_shift(feats, 0, max_shift=-3)
        with pytest.raises(ShiftOutOfRange):
            pitch_shift(feats, 1, max_shift=0)
        assert_array_equal(pitch_shift(feats, 0, max_shift=0), feats)


class TestFrameShift:
    def _pair(self, seed, n_labels=5):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((7, 10, 8 * n_labels))
        labs = rng.standard_normal((3, 13, n_labels))
        return feats, labs

    def test_zero_offset(self):
        feats, labs = self._pair(13)
        out_f, out_l = frame_shift(feats, labs, 0)
        assert_array_equal(out_f, feats)
        assert_array_equal(out_l, labs)

    def test_matches_roll(self):
        feats, labs = self._pair(14)
        out_f, out_l = frame_shift(feats, labs, 16)
        assert_array_equal(out_f, np.roll(feats, 16, axis=2))
        assert_array_equal(out_l, np.roll(labs, 2, axis=2))

    def test_wraps_circularly(self):
        feats, labs = self._pair(15)
        out_f, out_l = frame_shift(feats, labs, 8 * labs.shape[2])
        assert_array_equal(out_f, feats)
        assert_array_equal(out_l, labs)

    def test_negative_offset(self):
        feats, labs = self._pair(16)
        out_f, out_l = frame_shift(feats, labs, -8)
        assert_array_equal(out_f[:, :, -8:], feats[:, :, :8])
        assert_array_equal(out_l[:, :, -1], labs[:, :, 0])

    def test_composition(self):
        feats, labs = self._pair(17)
        step_f, step_l = frame_shift(*frame_shift(feats, labs, 8), 16)
        direct_f, direct_l = frame_shift(feats, labs, 24)
        assert_array_equal(step_f, direct_f)
        assert_array_equal(step_l, direct_l)

    def test_errors(self):
        feats, labs = self._pair(18)
        with pytest.raises(NonAlignedOffset):
            frame_shift(feats, labs, 4)
        with pytest.raises(ShapeMismatch):
            frame_shift(feats[:, :, :-1], labs, 8)
        with pytest.raises(ShapeMismatch):
            frame_shift(np.zeros((7, 10)), labs, 8)


class TestTimeMask:
    def _pair(self, n_labels=20):
        feats = np.ones((7, 5, 8 * n_labels))
        labs = np.ones((3, 13, n_labels))
        return feats, labs

    def test_masks_exact_window(self):
        feats, labs = self._pair()
        out_f, out_l = time_mask(feats, labs, 16, 16)
        assert_array_equal(out_f[:, :, 16:32], 0.0)
        assert_array_equal(out_f[:, :, :16], 1.0)
        assert_array_equal(out_f[:, :, 32:], 1.0)
        assert_array_equal(out_l[:, :, 2:4], 0.0)
        assert_array_equal(out_l[:, :, :2], 1.0)
        assert_array_equal(out_l[:, :, 4:], 1.0)

    def test_inputs_untouched(self):
        feats, labs = self._pair()
        time_mask(feats, labs, 0, 8)
        assert_array_equal(feats, 1.0)
        assert_array_equal(labs, 1.0)

    def test_ratio_bounds_inclusive(self):
        feats, labs = self._pair()
        # 8/160 = 1/20 and 16/160 = 1/10 sit exactly on the bounds
        time_mask(feats, labs, 0, 8)
        time_mask(feats, labs, 0, 16)
        with pytest.raises(RatioOutOfRange):
            time_mask(feats, labs, 0, 24)
        with pytest.raises(RatioOutOfRange):
            time_mask(feats, labs, 0, 0)

    def test_zero_length_with_permissive_range(self):
        feats, labs = self._pair()
        out_f, out_l = time_mask(feats, labs, 0, 0, ratio_range=(0.0, 0.1))
        assert_array_equal(out_f, feats)
        assert_array_equal(out_l, labs)

    def test_alignment_errors(self):
        feats, labs = self._pair()
        with pytest.raises(Misaligned):
            time_mask(feats, labs, 4, 8)
        with pytest.raises(Misaligned):
            time_mask(feats, labs, 8, 12, ratio_range=(0.0, 0.2))

    def test_range_errors(self):
        feats, labs = self._pair()
        with pytest.raises(FrameOutOfRange):
            time_mask(feats, labs, -8, 8)
        with pytest.raises(FrameOutOfRange):
            time_mask(feats, labs, 152, 16)

    def test_shape_errors(self):
        feats, labs = self._pair()
        with pytest.raises(ShapeMismatch):
            time_mask(feats[:, :, :8], labs, 0, 8)

    @pytest.mark.parametrize("ratio_range", [
        (float("nan"), float("nan")), (0.0, float("nan")), (float("nan"), 0.1),
        (0.2, 2.0), (0.0, float("inf")), (-0.1, 0.1), (0.1, 0.05),
    ])
    def test_bad_ratio_range_rejected(self, ratio_range):
        # checked before any mask is measured against it
        feats, labs = self._pair(n_labels=10)
        for start, length in ((0, 8), (0, 80)):
            with pytest.raises(SeldkitError, match="got ratio_range"):
                time_mask(feats, labs, start, length, ratio_range=ratio_range)

    def test_unit_ratio_range_allows_the_whole_clip(self):
        feats, labs = self._pair(n_labels=10)
        out_f, out_l = time_mask(feats, labs, 0, 80, ratio_range=(0.0, 1.0))
        assert_array_equal(out_f, 0.0)
        assert_array_equal(out_l, 0.0)

    def test_no_frames_rejected(self):
        # an empty mask of an empty clip has no ratio to check
        feats, labs = self._pair(n_labels=0)
        with pytest.raises(TooShort):
            time_mask(feats, labs, 0, 0, ratio_range=(0.0, 0.1))


class TestModerateMixup:
    def _pairs(self, seed):
        rng = np.random.default_rng(seed)
        fa = rng.standard_normal((7, 10, 16))
        fb = rng.standard_normal((7, 10, 16))
        la = rng.standard_normal((3, 13, 2))
        lb = rng.standard_normal((3, 13, 2))
        return fa, la, fb, lb

    def test_affine_mix(self):
        fa, la, fb, lb = self._pairs(19)
        mixed, label = moderate_mixup(fa, la, fb, lb, 0.7)
        assert_array_equal(mixed, 0.7 * fa + (1.0 - 0.7) * fb)
        assert_array_equal(label, la)

    def test_minority_label_dropped(self):
        fa, la, fb, lb = self._pairs(20)
        _, label = moderate_mixup(fa, la, fb, lb, 0.3)
        assert_array_equal(label, lb)

    def test_tie_goes_to_first_sample(self):
        fa, la, fb, lb = self._pairs(21)
        _, label = moderate_mixup(fa, la, fb, lb, 0.5)
        assert_array_equal(label, la)

    def test_label_is_bitwise_copy_never_interpolated(self):
        fa, la, fb, lb = self._pairs(22)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, label = moderate_mixup(fa, la, fb, lb, lam)
            source = la if lam >= 0.5 else lb
            assert np.array_equal(label, source)
            label[0, 0, 0] = 123.0
            assert source[0, 0, 0] != 123.0

    def test_endpoint_lambdas_copy_features(self):
        fa, la, fb, lb = self._pairs(23)
        mixed, _ = moderate_mixup(fa, la, fb, lb, 1.0)
        assert_array_equal(mixed, fa)
        mixed, _ = moderate_mixup(fa, la, fb, lb, 0.0)
        assert_array_equal(mixed, fb)

    def test_errors(self):
        fa, la, fb, lb = self._pairs(24)
        with pytest.raises(ShapeMismatch):
            moderate_mixup(fa[:, :5], la, fb, lb, 0.5)
        with pytest.raises(ShapeMismatch):
            moderate_mixup(fa, la[:, :5], fb, lb, 0.5)
        with pytest.raises(SeldkitError):
            moderate_mixup(fa, la, fb, lb, -0.1)
        with pytest.raises(SeldkitError):
            moderate_mixup(fa, la, fb, lb, 1.1)


class TestSampleLambda:
    def test_in_unit_interval(self):
        rng = make_rng(0)
        draws = [sample_lambda(rng) for _ in range(1000)]
        assert min(draws) >= 0.0
        assert max(draws) <= 1.0

    def test_alpha_one_is_uniform(self):
        rng = make_rng(1)
        draws = np.array([sample_lambda(rng, alpha=1.0) for _ in range(4000)])
        assert abs(draws.mean() - 0.5) < 0.02
        assert abs(np.mean(draws < 0.25) - 0.25) < 0.03

    def test_small_alpha_avoids_the_middle(self):
        rng = make_rng(2)
        draws = np.array([sample_lambda(rng, alpha=0.2) for _ in range(4000)])
        middle = np.mean((draws >= 0.4) & (draws <= 0.6))
        assert 0.02 < middle < 0.12

    def test_bad_alpha(self):
        with pytest.raises(SeldkitError):
            sample_lambda(make_rng(0), alpha=0.0)
        with pytest.raises(SeldkitError):
            sample_lambda(make_rng(0), alpha=-1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # rng.beta returns nan for these rather than raising
        with pytest.raises(SeldkitError, match="must be positive and finite"):
            sample_lambda(make_rng(0), alpha=alpha)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42)
        b = make_rng(42)
        assert_array_equal(a.random(50), b.random(50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(0).random(20), make_rng(1).random(20))

    def test_seed_bounds(self):
        make_rng(0)
        make_rng(2 ** 64 - 1)
        with pytest.raises(SeldkitError):
            make_rng(-1)
        with pytest.raises(SeldkitError):
            make_rng(2 ** 64)


class TestIntegerArguments:
    """pitch_shift (shift and bound), frame_shift, time_mask and make_rng
    take a whole number of any numeric type and refuse anything else rather
    than truncate it."""

    @staticmethod
    def calls(value):
        feats, labs = np.ones((7, 5, 160)), np.ones((3, 13, 20))
        return {
            "shift": lambda: pitch_shift(feats, value),
            "max_shift": lambda: pitch_shift(feats, 0, value),
            "offset": lambda: frame_shift(feats, labs, value),
            "start_frame": lambda: time_mask(feats, labs, value, 8, (0.0, 1.0)),
            "mask_len": lambda: time_mask(feats, labs, 0, value, (0.0, 1.0)),
            "seed": lambda: make_rng(value),
        }

    @pytest.mark.parametrize("value", [8.7, 0.9, 1.5, float("nan"), float("inf"), "8"])
    def test_non_integers_rejected(self, value):
        for name, call in self.calls(value).items():
            with pytest.raises(SeldkitError, match=f"^{name} must be an integer"):
                call()

    @pytest.mark.parametrize("value", [8.0, np.int64(8), np.float32(8), np.uint8(8)])
    def test_integral_values_of_any_type_accepted(self, value):
        def arrays(name, out):
            if name == "seed":
                return (out.random(4),)
            return out if isinstance(out, tuple) else (out,)

        want = {name: call() for name, call in self.calls(8).items()}
        for name, call in self.calls(value).items():
            for got, expected in zip(arrays(name, call()), arrays(name, want[name]),
                                     strict=True):
                assert_array_equal(got, expected, err_msg=name)


class TestAugmentConfig:
    def test_defaults(self):
        config = AugmentConfig()
        assert config.cs_prob == 0.5
        assert config.ps_range == 10
        assert config.fs_prob == 0.5
        assert config.tm_prob == 0.5
        assert config.tm_ratio_min == 1 / 20
        assert config.tm_ratio_max == 1 / 10
        assert config.mm_prob == 0.5
        assert config.mm_beta_alpha == 0.2
        assert config.mode == "fs_mm"

    def test_validation(self):
        with pytest.raises(SeldkitError):
            AugmentConfig(cs_prob=1.5)
        with pytest.raises(SeldkitError):
            AugmentConfig(mm_prob=-0.1)
        with pytest.raises(SeldkitError):
            AugmentConfig(ps_range=-1)
        with pytest.raises(SeldkitError):
            AugmentConfig(ps_range=2.5)
        with pytest.raises(SeldkitError):
            AugmentConfig(tm_ratio_min=0.0)
        with pytest.raises(SeldkitError):
            AugmentConfig(tm_ratio_min=0.2, tm_ratio_max=0.1)
        with pytest.raises(SeldkitError):
            AugmentConfig(tm_ratio_max=1.0)
        with pytest.raises(SeldkitError):
            AugmentConfig(mm_beta_alpha=0.0)
        with pytest.raises(SeldkitError):
            AugmentConfig(mode="everything")

    def test_frozen(self):
        with pytest.raises(Exception):
            AugmentConfig().cs_prob = 0.9

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_non_finite_beta_alpha_rejected(self, alpha):
        with pytest.raises(SeldkitError, match="mm_beta_alpha must be positive and finite"):
            AugmentConfig(mm_beta_alpha=alpha)

    @pytest.mark.parametrize("ps_range", [2 ** 63, 10 ** 20, float("inf"), float("nan")])
    def test_ps_range_beyond_int64_rejected(self, ps_range):
        with pytest.raises(SeldkitError, match=r"ps_range must be an integer in \[0, 2\^63\)"):
            AugmentConfig(ps_range=ps_range)

    def test_largest_ps_range_can_be_sampled(self):
        config = identity_config(ps_range=2 ** 63 - 1)
        feats, labs = make_sample(40)
        out_f, out_l = augment_pipeline((feats, labs), None, config, make_rng(0))
        assert out_f.shape == feats.shape
        assert_array_equal(out_l, labs)


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(SeldkitError):
            config_from_mapping({"cs_probability": "0.5"})

    def test_empty_mapping_gives_defaults(self):
        config, seed = config_from_mapping({})
        assert config == AugmentConfig()
        assert seed == 17

    def test_none_values_skipped(self):
        config, seed = config_from_mapping({"cs_prob": None, "seed": "3"})
        assert config.cs_prob == 0.5
        assert seed == 3

    @pytest.mark.parametrize("key, value, kind", [
        ("cs_prob", "abc", "float"),
        ("tm_ratio_max", "", "float"),
        ("ps_range", "2.5", "int"),
        ("seed", "1.5", "int"),
    ])
    def test_unreadable_value_names_key_and_value(self, key, value, kind):
        with pytest.raises(SeldkitError) as info:
            config_from_mapping({key: value})
        assert str(info.value) == f"config key {key!r}: cannot read {value!r} as {kind}"

    def test_each_key_parses_as_its_default_type(self):
        config, seed = config_from_mapping({
            "cs_prob": "1", "ps_range": "3", "tm_ratio_min": "0.06",
            "mm_beta_alpha": "2", "mode": "tm_mm", "seed": "5",
        })
        assert type(config.cs_prob) is float and config.cs_prob == 1.0
        assert type(config.ps_range) is int and config.ps_range == 3
        assert config.tm_ratio_min == 0.06
        assert type(config.mm_beta_alpha) is float
        assert config.mode == "tm_mm"
        assert type(seed) is int and seed == 5


def identity_config(**overrides):
    base = dict(cs_prob=0.0, ps_range=0, fs_prob=0.0, tm_prob=0.0, mm_prob=0.0)
    base.update(overrides)
    return AugmentConfig(**base)


def make_sample(seed, n_labels=20, n_bins=30):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((7, n_bins, 8 * n_labels)).astype(np.float32)
    labs = encode(helpers.random_events(rng, n_labels), n_labels)
    return feats, labs


class TestAugmentPipeline:
    def test_identity_config_is_bitwise_identity(self):
        feats, labs = make_sample(25)
        out_f, out_l = augment_pipeline((feats, labs), None,
                                        identity_config(), make_rng(5))
        assert_array_equal(out_f, feats)
        assert_array_equal(out_l, labs)
        assert out_f.dtype == feats.dtype

    @pytest.mark.parametrize("on", [
        frozenset(c for i, c in enumerate(("cs", "fs", "tm", "mm")) if bits >> i & 1)
        for bits in range(16)])
    def test_outputs_never_alias_the_inputs(self, on):
        feats, labs = make_sample(31)
        partner = make_sample(32)
        mode = "tm_mm" if "tm" in on else "fs_mm"
        config = identity_config(mode=mode, **{f"{c}_prob": 1.0 for c in on})
        inputs = [feats, labs, *partner]
        before = [a.copy() for a in inputs]
        outputs = augment_pipeline((feats, labs), partner, config, make_rng(9))
        for out in outputs:
            assert not any(np.shares_memory(out, a) for a in inputs)
        for a, b in zip(inputs, before):
            assert_array_equal(a, b)

    def test_same_seed_reproduces_bitwise(self):
        feats, labs = make_sample(26)
        partner = make_sample(27)
        for mode in ("fs_mm", "tm_mm"):
            config = AugmentConfig(mode=mode)
            a = augment_pipeline((feats, labs), partner, config, make_rng(123))
            b = augment_pipeline((feats, labs), partner, config, make_rng(123))
            assert_array_equal(a[0], b[0])
            assert_array_equal(a[1], b[1])

    def test_distinct_seeds_differ(self):
        feats, labs = make_sample(28)
        config = identity_config(cs_prob=1.0)
        outputs = []
        for seed in range(5):
            out_f, _ = augment_pipeline((feats, labs), None, config,
                                        make_rng(seed))
            outputs.append(out_f)
        assert any(not np.array_equal(outputs[0], other)
                   for other in outputs[1:])

    def test_draw_order_replay(self):
        # the pipeline's generator consumption is a contract: coin for the
        # channel swap, pattern index if it hits, pitch offset, then in
        # fs_mm coin and offset for the frame shift, in tm_mm coin and two
        # draws for the mask, and last coin and beta draw for the mixup
        feats, labs = make_sample(29)
        partner = make_sample(30)
        for mode in ("fs_mm", "tm_mm"):
            config = AugmentConfig(
                cs_prob=1.0, ps_range=10, fs_prob=1.0, tm_prob=1.0, mm_prob=1.0,
                mode=mode,
            )
            got_f, got_l = augment_pipeline((feats, labs), partner, config,
                                            make_rng(777))

            rng = make_rng(777)
            exp_f, exp_l = np.array(feats), np.array(labs)
            assert rng.random() < 1.0
            pattern = enumerate_swap_patterns()[int(rng.integers(16))]
            exp_f, exp_l = channel_swap(exp_f, exp_l, pattern)
            shift = int(rng.integers(-10, 11))
            exp_f = pitch_shift(exp_f, shift, 10)
            assert rng.random() < 1.0
            if mode == "fs_mm":
                offset = 8 * int(rng.integers(0, 20))
                exp_f, exp_l = frame_shift(exp_f, exp_l, offset)
            else:
                mask_labels = int(rng.integers(1, 3))
                start = int(rng.integers(0, 20 - mask_labels + 1))
                exp_f, exp_l = time_mask(exp_f, exp_l, 8 * start, 8 * mask_labels)
            assert rng.random() < 1.0
            lam = sample_lambda(rng, 0.2)
            exp_f, exp_l = moderate_mixup(exp_f, exp_l, partner[0], partner[1], lam)

            assert_array_equal(got_f, exp_f, err_msg=mode)
            assert_array_equal(got_l, exp_l, err_msg=mode)

    def test_no_label_frames_rejected(self):
        feats, labs = np.zeros((7, 200, 0)), np.zeros((3, 13, 0))
        for config in (AugmentConfig(), identity_config(),
                       AugmentConfig(fs_prob=1.0),
                       AugmentConfig(mode="tm_mm", tm_prob=1.0)):
            with pytest.raises(TooShort):
                augment_pipeline((feats, labs), (feats, labs), config, make_rng(17))

    def test_mixup_requires_partner(self):
        feats, labs = make_sample(31)
        with pytest.raises(SeldkitError):
            augment_pipeline((feats, labs), None, identity_config(mm_prob=1.0),
                             make_rng(0))

    def test_missing_partner_raises_whatever_the_seed(self):
        # checked before any draw, not only when the mixup coin lands
        feats, labs = make_sample(31)
        for seed in range(20):
            with pytest.raises(SeldkitError, match="mixup partner"):
                augment_pipeline((feats, labs), None, AugmentConfig(),
                                 make_rng(seed))

    def test_partner_shapes_checked_before_any_draw(self):
        # a partner of another shape fails on every seed, not only where the
        # mixup coin lands, and before the generator is drawn from
        feats, labs = make_sample(38, n_labels=10)
        long_f, long_l = make_sample(39, n_labels=20)
        cases = (((long_f, long_l), "feature shapes differ"),
                 ((feats, labs[:, :12]), "label shapes differ"))
        for partner, message in cases:
            for seed in range(12):
                rng = make_rng(seed)
                with pytest.raises(ShapeMismatch, match=message):
                    augment_pipeline((feats, labs), partner, AugmentConfig(), rng)
                assert rng.random() == make_rng(seed).random()  # nothing drawn

    def test_no_partner_needed_without_mixup(self):
        feats, labs = make_sample(31)
        for seed in range(20):
            augment_pipeline((feats, labs), None, AugmentConfig(mm_prob=0.0),
                             make_rng(seed))

    def test_mixup_label_is_one_of_the_inputs(self):
        feats, labs = make_sample(32)
        partner = make_sample(33)
        config = identity_config(mm_prob=1.0)
        for seed in range(20):
            _, out_l = augment_pipeline((feats, labs), partner, config,
                                        make_rng(seed))
            assert np.array_equal(out_l, labs) or np.array_equal(out_l, partner[1])

    def test_mode_all_rejected(self):
        # frame shift and time masking together degraded training
        with pytest.raises(SeldkitError, match=r"^mode 'all' not one of \('fs_mm', 'tm_mm'\)$"):
            identity_config(mode="all")

    def test_other_modes_do_not_warn(self):
        feats, labs = make_sample(35)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in ("fs_mm", "tm_mm"):
                augment_pipeline((feats, labs), None,
                                 identity_config(mode=mode), make_rng(0))

    def test_swap_patterns_drawn_uniformly(self):
        labs = encode([Event(0, 0, 37.0, 21.0)], 1)
        feats = np.zeros((7, 10, 8), dtype=np.float32)
        config = identity_config(cs_prob=1.0)
        targets = {}
        for index, pattern in enumerate(enumerate_swap_patterns()):
            az, el = pattern.map_doa(37.0, 21.0)
            targets[(round(az), round(el))] = index
        assert len(targets) == 16
        counts = np.zeros(16, dtype=int)
        for seed in range(800):
            _, out_l = augment_pipeline((feats, labs), None, config,
                                        make_rng(seed))
            got = list(decode(out_l))
            assert len(got) == 1
            key = (round(got[0].azimuth), round(got[0].elevation))
            counts[targets[key]] += 1
        assert counts.sum() == 800
        assert counts.min() >= 20
        assert counts.max() <= 90

    def test_label_norms_stay_exactly_on_or_off(self):
        feats, labs = make_sample(36)
        partner = make_sample(37)
        for mode, seed in itertools.product(("fs_mm", "tm_mm"), range(30)):
            _, out_l = augment_pipeline((feats, labs), partner, AugmentConfig(mode=mode),
                                        make_rng(seed))
            norms = np.linalg.norm(out_l, axis=0)
            on = np.abs(norms - 1.0) < 1e-9
            off = norms < 1e-9
            assert np.all(on | off)

    def test_time_mask_draws_respect_ratio_bounds(self):
        # T = 160 admits only 1- or 2-label-frame masks at ratios [1/20, 1/10]
        feats = np.ones((7, 10, 160), dtype=np.float32)
        labs = np.ones((3, 13, 20))
        config = identity_config(tm_prob=1.0, mode="tm_mm")
        seen = set()
        for seed in range(40):
            out_f, out_l = augment_pipeline((feats, labs), None, config,
                                            make_rng(seed))
            masked = np.flatnonzero(out_f[0, 0] == 0.0)
            assert masked.size in (8, 16)
            assert masked[0] % 8 == 0
            assert_array_equal(masked, np.arange(masked[0], masked[0] + masked.size))
            assert np.count_nonzero(out_l[0, 0] == 0.0) == masked.size // 8
            seen.add(masked.size)
        assert seen == {8, 16}

    def test_misaligned_sample_rejected(self):
        feats = np.zeros((7, 10, 81), dtype=np.float32)
        labs = np.zeros((3, 13, 10))
        with pytest.raises(ShapeMismatch):
            augment_pipeline((feats, labs), None, identity_config(), make_rng(0))
