"""Feature/label co-transforming augmentations for FOA SELD training data.

Five augmentations operate on (feature tensor, ACCDOA label) pairs: channel
swap over the 16 first-order rotations/reflections that permute spectrogram
channels, pitch shift along the frequency axis, circular frame shift, time
masking, and Moderate Mixup (features mix, the dominant sample's label is
kept verbatim). augment_pipeline composes them stochastically from a seeded
counter-based generator, so a (config, seed) pair fully determines the
output.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    FrameOutOfRange,
    Misaligned,
    NonAlignedOffset,
    RatioOutOfRange,
    SeldkitError,
    ShapeMismatch,
    ShiftOutOfRange,
    TooShort,
)
from .accdoa import FEATURE_FRAMES_PER_LABEL_FRAME as FRAMES_PER_LABEL
from .dataset_io import MultichannelClip, normalize_azimuth

MODES = ("fs_mm", "tm_mm")

_COS = (1, 0, -1, 0)
_SIN = (0, 1, 0, -1)

# fp slack when comparing a mask ratio against its configured bounds
_RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class SwapPattern:
    """One of the 16 azimuth/elevation symmetries: az -> s*az + k*90, el -> e*el.

    The induced map on Cartesian (x, y) is the integer matrix
    [[cos(k*90), -s*sin(k*90)], [sin(k*90), s*cos(k*90)]]; z picks up the
    elevation sign e. All entries are 0/+1/-1, so applying a pattern is
    exact in floating point.
    """

    s: int
    k: int
    e: int

    def __post_init__(self):
        # 1.0 and True equal 1, but only integers index the matrix tables
        allowed = ((self.s, (1, -1)), (self.k, range(4)), (self.e, (1, -1)))
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   and v in ok for v, ok in allowed):
            raise SeldkitError(f"invalid pattern (s={self.s}, k={self.k}, e={self.e})")

    @property
    def xy_matrix(self) -> tuple:
        """((m_xx, m_xy), (m_yx, m_yy)) such that (x', y') = M (x, y)."""
        return (
            (_COS[self.k], -self.s * _SIN[self.k]),
            (_SIN[self.k], self.s * _COS[self.k]),
        )

    @property
    def swaps_xy(self) -> bool:
        """True when the map exchanges the x and y axes (antidiagonal M)."""
        return self.k % 2 == 1

    def map_doa(self, azimuth: float, elevation: float) -> tuple:
        return (
            normalize_azimuth(self.s * azimuth + 90.0 * self.k),
            self.e * elevation,
        )


def enumerate_swap_patterns() -> list:
    """All 16 patterns; index 0 is the identity."""
    return [
        SwapPattern(s, k, e) for e in (1, -1) for s in (1, -1) for k in range(4)
    ]


def channel_swap(features, labels, pattern: SwapPattern) -> tuple:
    """Apply one swap pattern to a SALSA feature tensor and its labels.

    Log-magnitude channels are blind to sign flips, so W and Z stay put and
    Y/X merely exchange when the pattern swaps the axes. The intensity
    channels and the label vectors get the full signed orthogonal map.
    """
    feats = np.asarray(features)
    labs = np.asarray(labels)
    if feats.ndim != 3 or feats.shape[0] != 7:
        raise ShapeMismatch(f"expected (7, F, T) features, got {feats.shape}")
    if labs.ndim != 3 or labs.shape[0] != 3:
        raise ShapeMismatch(f"expected (3, n_classes, T) labels, got {labs.shape}")

    out_f = feats.copy()
    if pattern.swaps_xy:
        out_f[1] = feats[3]
        out_f[3] = feats[1]
    out_f[4], out_f[5], out_f[6] = _map_xyz(pattern, *feats[4:])
    out_l = np.empty_like(labs)
    out_l[0], out_l[1], out_l[2] = _map_xyz(pattern, *labs)
    return out_f, out_l


def _map_xyz(pattern: SwapPattern, x, y, z) -> tuple:
    """(x', y', z') of Cartesian components under the pattern's signed map."""
    (m_xx, m_xy), (m_yx, m_yy) = pattern.xy_matrix
    return m_xx * x + m_xy * y, m_yx * x + m_yy * y, pattern.e * z


def apply_pattern_to_waveform(clip: MultichannelClip,
                              pattern: SwapPattern) -> MultichannelClip:
    """Transform the raw FOA channels (W, Y, Z, X) by a swap pattern.

    The first-order channels carry the source direction linearly, so the
    same matrix that maps label vectors maps the waveform channels.
    """
    w, y, z, x = clip.samples
    x, y, z = _map_xyz(pattern, x, y, z)
    return MultichannelClip(np.stack([w, y, z, x]))


def pitch_shift(features, shift_bins: int, max_shift: int = 10) -> np.ndarray:
    """Shift all channels along frequency by shift_bins (positive = upward).

    |shift_bins| may be at most max_shift, an integer >= 0. Rows vacated at
    the boundary are filled by replicating the edge row, so no artificial
    silence enters mid-feature. Labels are untouched: a small frequency
    shift changes timbre, not direction.
    """
    feats = np.asarray(features)
    if feats.ndim != 3:
        raise ShapeMismatch(f"expected (C, F, T) features, got {feats.shape}")
    shift = _integer(shift_bins, "shift")
    if _integer(max_shift, "max_shift") < 0:
        raise SeldkitError(f"max_shift must be >= 0, got {max_shift}")
    if abs(shift) > max_shift:
        raise ShiftOutOfRange(f"|{shift}| exceeds the allowed range {max_shift}")
    n_bins = feats.shape[1]
    src = np.clip(np.arange(n_bins) - shift, 0, n_bins - 1)
    return feats[:, src, :]


def frame_shift(features, labels, offset: int) -> tuple:
    """Circularly shift features and labels together along time.

    The offset counts feature frames and must be a multiple of 8 so the
    labels shift by a whole number of label frames.
    """
    feats = np.asarray(features)
    labs = np.asarray(labels)
    _check_time_alignment(feats, labs)
    offset = _integer(offset, "offset")
    if offset % FRAMES_PER_LABEL != 0:
        raise NonAlignedOffset(
            f"offset {offset} is not a multiple of {FRAMES_PER_LABEL}"
        )
    return (
        np.roll(feats, offset, axis=2),
        np.roll(labs, offset // FRAMES_PER_LABEL, axis=2),
    )


def time_mask(features, labels, start_frame: int, mask_len: int,
              ratio_range: tuple = (1 / 20, 1 / 10)) -> tuple:
    """Zero features and deactivate labels on [start, start + mask_len).

    Both boundaries must land on label-frame edges (multiples of 8 feature
    frames), and mask_len/T must fall inside ratio_range, a (lo, hi) pair
    with 0 <= lo <= hi <= 1. Masked feature cells become 0, which is the
    dataset mean in the normalized domain.
    """
    feats = np.asarray(features)
    labs = np.asarray(labels)
    _check_time_alignment(feats, labs)
    start = _integer(start_frame, "start_frame")
    length = _integer(mask_len, "mask_len")
    lo, hi = ratio_range
    if not 0 <= lo <= hi <= 1:
        raise SeldkitError(f"need 0 <= lo <= hi <= 1, got ratio_range {ratio_range}")
    n_frames = feats.shape[2]
    if n_frames == 0:
        raise TooShort("no frames to mask: the mask ratio is undefined")
    if start < 0 or start + length > n_frames:
        raise FrameOutOfRange(
            f"mask [{start}, {start + length}) exceeds [0, {n_frames})"
        )
    if start % FRAMES_PER_LABEL != 0 or length % FRAMES_PER_LABEL != 0:
        raise Misaligned(
            f"mask [{start}, {start + length}) not aligned to "
            f"{FRAMES_PER_LABEL}-frame label boundaries"
        )
    ratio = length / n_frames
    if ratio < lo - _RATIO_SLACK or ratio > hi + _RATIO_SLACK:
        raise RatioOutOfRange(f"mask ratio {ratio:.4f} outside [{lo}, {hi}]")
    out_f = feats.copy()
    out_l = labs.copy()
    out_f[:, :, start:start + length] = 0
    out_l[:, :, start // FRAMES_PER_LABEL:(start + length) // FRAMES_PER_LABEL] = 0
    return out_f, out_l


def moderate_mixup(feat_a, lab_a, feat_b, lab_b, lam: float) -> tuple:
    """Mix features affinely; keep the dominant sample's label verbatim.

    The label is never interpolated — mixing unit DoA vectors would bend
    and shrink them into directions neither source occupies. A tie at
    lam = 0.5 goes to sample a.
    """
    fa, fb = np.asarray(feat_a), np.asarray(feat_b)
    la, lb = np.asarray(lab_a), np.asarray(lab_b)
    _check_same_shapes(fa, la, fb, lb)
    if not 0.0 <= lam <= 1.0:
        raise SeldkitError(f"lambda {lam} outside [0, 1]")
    if lam == 1.0:
        mixed = fa.copy()
    elif lam == 0.0:
        mixed = fb.copy()
    else:
        mixed = lam * fa + (1.0 - lam) * fb
    label = la if lam >= 0.5 else lb
    return mixed, label.copy()


def _check_same_shapes(feat_a, lab_a, feat_b, lab_b) -> None:
    for kind, a, b in (("feature", feat_a, feat_b), ("label", lab_a, lab_b)):
        if np.shape(a) != np.shape(b):
            raise ShapeMismatch(f"{kind} shapes differ: {np.shape(a)} vs {np.shape(b)}")


def sample_lambda(rng, alpha: float = 0.2) -> float:
    """Draw a mixing ratio from Beta(alpha, alpha).

    With alpha < 1 the mass piles up near 0 and 1, so one sample almost
    always dominates the mix.
    """
    if not 0 < alpha < math.inf:
        raise SeldkitError(f"beta shape parameter must be positive and finite, "
                           f"got {alpha}")
    return float(rng.beta(alpha, alpha))


def make_rng(seed: int):
    """Counter-based generator: one 64-bit seed fixes the whole stream."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2 ** 64:
        raise SeldkitError(f"seed {seed} outside [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for augment_pipeline.

    mode picks which time-axis augmentation runs: "fs_mm" (frame shift,
    the default) or "tm_mm" (time masking).
    """

    cs_prob: float = 0.5
    ps_range: int = 10
    fs_prob: float = 0.5
    tm_prob: float = 0.5
    tm_ratio_min: float = 1 / 20
    tm_ratio_max: float = 1 / 10
    mm_prob: float = 0.5
    mm_beta_alpha: float = 0.2
    mode: str = "fs_mm"

    def __post_init__(self):
        for name in ("cs_prob", "fs_prob", "tm_prob", "mm_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SeldkitError(f"{name}={value} outside [0, 1]")
        # rng.integers draws the shift as an int64
        if not 0 <= self.ps_range < 2 ** 63 or int(self.ps_range) != self.ps_range:
            raise SeldkitError(f"ps_range must be an integer in [0, 2^63), "
                               f"got {self.ps_range}")
        if not 0.0 < self.tm_ratio_min <= self.tm_ratio_max < 1.0:
            raise SeldkitError(
                f"need 0 < tm_ratio_min <= tm_ratio_max < 1, got "
                f"[{self.tm_ratio_min}, {self.tm_ratio_max}]"
            )
        if not 0 < self.mm_beta_alpha < math.inf:
            raise SeldkitError(f"mm_beta_alpha must be positive and finite, "
                               f"got {self.mm_beta_alpha}")
        if self.mode not in MODES:
            raise SeldkitError(f"mode {self.mode!r} not one of {MODES}")


DEFAULT_SEED = 17

# each config key parses as the type of its AugmentConfig default
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(AugmentConfig)}
_CONFIG_TYPES["seed"] = int


def config_from_mapping(mapping) -> tuple:
    """Build (AugmentConfig, seed) from string values keyed by knob name (a
    value of None was not given), as the augment command's flags hold them.

    Unknown keys are an error: a typoed knob silently falling back to its
    default would unseat reproducibility.
    """
    kwargs = {}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in _CONFIG_TYPES:
            raise SeldkitError(f"unknown config key {key!r}")
        kind = _CONFIG_TYPES[key]
        try:
            kwargs[key] = kind(value)
        except (TypeError, ValueError) as exc:
            raise SeldkitError(
                f"config key {key!r}: cannot read {value!r} as {kind.__name__}"
            ) from exc
    seed = kwargs.pop("seed", DEFAULT_SEED)
    return AugmentConfig(**kwargs), seed


def augment_pipeline(sample_a, sample_b, config: AugmentConfig, rng) -> tuple:
    """Compose the augmentations stochastically on (features, labels).

    Order: channel swap (prob cs_prob, uniform pattern) -> pitch shift
    (always, uniform in [-ps_range, ps_range]) -> frame shift or time mask
    per config.mode -> Moderate Mixup with sample_b (prob mm_prob).
    The draw order is fixed, so a given (config, seed) always produces the
    same output. sample_b may be None only when mm_prob is 0; when mm_prob
    is above 0 its feature and label shapes must equal sample_a's, whatever
    the draws.
    """
    feats, labs = sample_a
    feats = np.asarray(feats)  # pitch_shift always returns a fresh gather
    labs = np.array(labs)
    _check_time_alignment(feats, labs)
    if labs.shape[2] == 0:
        raise TooShort("no label frames to augment")
    if config.mm_prob > 0:
        if sample_b is None:
            raise SeldkitError("mm_prob > 0 requires a mixup partner sample")
        _check_same_shapes(feats, labs, *sample_b)

    if rng.random() < config.cs_prob:
        pattern = enumerate_swap_patterns()[int(rng.integers(16))]
        feats, labs = channel_swap(feats, labs, pattern)

    shift = int(rng.integers(-config.ps_range, config.ps_range + 1))
    feats = pitch_shift(feats, shift, config.ps_range)

    n_label_frames = labs.shape[2]
    if config.mode == "fs_mm" and rng.random() < config.fs_prob:
        offset = FRAMES_PER_LABEL * int(rng.integers(0, n_label_frames))
        feats, labs = frame_shift(feats, labs, offset)
    if config.mode == "tm_mm" and rng.random() < config.tm_prob:
        n_frames = feats.shape[2]
        lo = math.ceil(config.tm_ratio_min * n_frames / FRAMES_PER_LABEL - _RATIO_SLACK)
        hi = math.floor(config.tm_ratio_max * n_frames / FRAMES_PER_LABEL + _RATIO_SLACK)
        hi = min(hi, n_label_frames)
        if lo <= hi:
            mask_labels = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(0, n_label_frames - mask_labels + 1))
            feats, labs = time_mask(feats, labs, FRAMES_PER_LABEL * start,
                                    FRAMES_PER_LABEL * mask_labels,
                                    (config.tm_ratio_min, config.tm_ratio_max))

    if rng.random() < config.mm_prob:
        lam = sample_lambda(rng, config.mm_beta_alpha)
        feats, labs = moderate_mixup(feats, labs, sample_b[0], sample_b[1], lam)

    return feats, labs


def _integer(value, name: str) -> int:
    """value as an int, if it is a whole number of any numeric type (3, 3.0,
    np.int64(3)); anything else, nan and inf included, is a SeldkitError."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise SeldkitError(f"{name} must be an integer, got {value!r}")
    return whole


def _check_time_alignment(feats: np.ndarray, labs: np.ndarray) -> None:
    if feats.ndim != 3 or labs.ndim != 3:
        raise ShapeMismatch(
            f"expected 3-D features and labels, got {feats.shape} and {labs.shape}"
        )
    if feats.shape[2] != FRAMES_PER_LABEL * labs.shape[2]:
        raise ShapeMismatch(
            f"{feats.shape[2]} feature frames do not cover "
            f"{labs.shape[2]} label frames of {FRAMES_PER_LABEL}"
        )
