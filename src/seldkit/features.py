"""SALSA feature extraction for 4-channel FOA audio.

The feature stacks 4 log-linear spectrogram channels (W, Y, Z, X) on top of
3 intensity channels (I_x, I_y, I_z) derived from the principal eigenvector
of a locally smoothed spatial covariance matrix, giving a (7, 200, T)
tensor. Per-channel-frequency standardization lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal.windows import hann

from .dataset_io import MultichannelClip, read_feature_file, write_feature_file
from .errors import EmptyManifest, SeldkitError, ShapeMismatch, TooShort

STFT_WINDOW = 512
STFT_HOP = 300
N_FREQ_BINS = 200
SPEC_FLOOR = 1e-10

_EPS_EIGVEC = 1e-9
_BLOCK_FRAMES = 512
# (row, column) of the 10 lower-triangle entries of a 4x4 covariance
_TRIL_A, _TRIL_B = np.tril_indices(4)


@dataclass(frozen=True)
class NormStats:
    """Per-(channel, frequency) standardization statistics, shape (C, F)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 2:
            raise ShapeMismatch(
                f"mean/std must share a 2-D shape, got {mean.shape} and {std.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise SeldkitError("normalization statistics contain non-finite values")
        if np.any(std <= 0):
            raise SeldkitError("std must be positive (floored at 1e-8 when fitted)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def stft(clip: MultichannelClip, window_len: int = STFT_WINDOW,
         hop: int = STFT_HOP) -> np.ndarray:
    """Hann-windowed DFT per channel, no signal padding.

    Returns the complex (4, window_len/2+1, T) array of bins. Frame t
    covers samples [t*hop, t*hop + window_len), so
    T = floor((N - window_len)/hop) + 1 and the signal tail that does not
    fill a window is dropped.
    """
    samples = clip.samples
    if samples.shape[1] < window_len:
        raise TooShort(
            f"clip has {samples.shape[1]} samples, window needs {window_len}"
        )
    window = hann(window_len, sym=False)
    frames = sliding_window_view(samples, window_len, axis=1)[:, ::hop]
    spec = np.fft.rfft(frames * window, axis=2)
    return spec.transpose(0, 2, 1)


def log_linear_spectrogram(spec, n_bins: int = N_FREQ_BINS,
                           floor: float = SPEC_FLOOR) -> np.ndarray:
    """ln of floored power per bin of a stft array, keeping the lowest
    n_bins bins."""
    bins = np.asarray(spec)[:, :n_bins, :]
    return np.log(np.maximum(np.abs(bins) ** 2, floor))


def eigenvector_intensity(spec, n_bins: int = N_FREQ_BINS,
                          smooth: tuple = (3, 3)) -> np.ndarray:
    """Direction estimate per TF bin of a stft array from the smoothed
    spatial covariance.

    For each retained (f, t): average x*x^H over a smooth = (freq, time)
    neighborhood (clipped at the edges, so corner cells average fewer
    terms), take the principal eigenvector u of the 4x4 result, and read
    the direction off the component ratios Re(u[1:4]/u[0]). The ratio
    cancels the eigenvector's arbitrary global phase, so no separate sign
    convention is needed. Bins where the W component nearly vanishes
    (|u[0]| <= 1e-9) carry no usable direction and come out zero; vectors
    longer than 1 are rescaled onto the unit sphere.

    The covariance is summed directly (shifted adds, no running sums, so
    quiet bins after loud ones keep full precision) in blocks of time
    frames, each read with the halo its window needs. Working memory is
    O(n_bins x block) whatever the clip length, and every output frame is
    the same whatever the block size. Only the lower triangle of each
    covariance is filled, because eigh reads only that.

    Output channels are (I_x, I_y, I_z), Cartesian order, shape (3, n_bins, T).
    """
    size_f, size_t = smooth
    if size_f < 1 or size_t < 1:
        raise SeldkitError(f"smoothing window must be positive, got {smooth}")
    x = np.asarray(spec)[:, :n_bins, :]
    n_f, n_t = x.shape[1:]
    f_before, f_after = (size_f - 1) // 2, size_f // 2
    t_before, t_after = (size_t - 1) // 2, size_t // 2
    counts_f = _box_sum(np.ones(n_f), f_before, f_after, axis=0)
    counts_t = _box_sum(np.ones(n_t), t_before, t_after, axis=0)

    intensity = np.empty((3, n_f, n_t))
    for start in range(0, n_t, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_t)
        lo, hi = max(start - t_before, 0), min(stop + t_after, n_t)
        block = x[:, :, lo:hi]
        sums = block[_TRIL_A] * block[_TRIL_B].conj()
        sums = _box_sum(sums, f_before, f_after, axis=1)
        sums = _box_sum(sums, t_before, t_after, axis=2)[:, :, start - lo:stop - lo]
        mean = sums / (counts_f[:, None] * counts_t[start:stop])
        cov = np.zeros((n_f, stop - start, 4, 4), dtype=mean.dtype)
        cov[..., _TRIL_A, _TRIL_B] = np.moveaxis(mean, 0, -1)
        _, vecs = np.linalg.eigh(cov)
        intensity[:, :, start:stop] = _direction(vecs[..., :, -1])
    return intensity


def _direction(u: np.ndarray) -> np.ndarray:
    """(I_x, I_y, I_z) from principal eigenvectors u of shape (..., 4)."""
    u0 = u[..., 0]
    usable = np.abs(u0) > _EPS_EIGVEC
    safe_u0 = np.where(usable, u0, 1.0)
    ratios = (u[..., 1:4] / safe_u0[..., None]).real
    ratios = np.where(usable[..., None], ratios, 0.0)

    # ratios arrive in channel order (Y, Z, X); emit Cartesian (x, y, z)
    intensity = np.stack([ratios[..., 2], ratios[..., 0], ratios[..., 1]])
    norm = np.linalg.norm(intensity, axis=0)
    intensity /= np.maximum(norm, 1.0)
    return np.where(norm < _EPS_EIGVEC, 0.0, intensity)


def salsa(clip: MultichannelClip) -> np.ndarray:
    """Full SALSA feature: (7, 200, T) float32.

    Channels 0..3 are log-linear spectrograms of (W, Y, Z, X); channels
    4..6 the intensity vector (I_x, I_y, I_z).
    """
    spec = stft(clip)
    return np.concatenate(
        [log_linear_spectrogram(spec), eigenvector_intensity(spec)]
    ).astype(np.float32)


def compute_norm_stats(tensors) -> NormStats:
    """Fit per-(channel, frequency) mean/std over the time frames of a set
    of feature tensors.

    Uses the population std (so normalizing the fitting set gives exactly
    unit variance), floored at 1e-8 to keep constant rows finite.
    """
    count = 0
    total = None
    total_sq = None
    for tensor in tensors:
        arr = np.asarray(tensor, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected (C, F, T) tensors, got {arr.shape}")
        if total is None:
            total = np.zeros(arr.shape[:2])
            total_sq = np.zeros(arr.shape[:2])
        elif arr.shape[:2] != total.shape:
            raise ShapeMismatch(
                f"tensor (C, F) {arr.shape[:2]} does not match {total.shape}"
            )
        count += arr.shape[2]
        total += arr.sum(axis=2)
        total_sq += (arr * arr).sum(axis=2)
    if count == 0:
        raise EmptyManifest("no feature frames to fit statistics on")
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    return NormStats(mean, np.maximum(np.sqrt(var), 1e-8))


def normalize(tensor, stats: NormStats) -> np.ndarray:
    """Standardize a feature tensor: (x - mean)/std per (channel, freq)."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[:2] != stats.mean.shape:
        raise ShapeMismatch(
            f"tensor shape {arr.shape} does not fit stats {stats.mean.shape}"
        )
    out = (arr - stats.mean[:, :, None]) / stats.std[:, :, None]
    return out.astype(np.float32)


def save_norm_stats(stats: NormStats, path) -> None:
    """Persist stats as a (2, C, F) stack of mean and std.

    The container payload is float32, so reloaded statistics are the
    float32 rounding of the fitted values.
    """
    write_feature_file(np.stack([stats.mean, stats.std]), path)


def load_norm_stats(path) -> NormStats:
    arr = read_feature_file(path)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise ShapeMismatch(f"{path}: expected (2, C, F) stats, got {arr.shape}")
    return NormStats(arr[0], arr[1])


def _box_sum(arr: np.ndarray, before: int, after: int, axis: int) -> np.ndarray:
    """Sum over the window [i - before, i + after] along axis, clipped to
    the array's extent, by shifted adds in a fixed order."""
    out = arr.copy()
    src, dst = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    for k in range(1, before + 1):
        dst[k:] += src[:-k]
    for k in range(1, after + 1):
        dst[:-k] += src[k:]
    return out
