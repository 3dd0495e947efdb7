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
_SMOOTH = (3, 3)
_BLOCK_FRAMES = 128
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
    fill a window is dropped. Frames are windowed and transformed a block
    at a time into the output, so no clip-sized frame array is built.
    """
    n_t = _n_frames(clip.samples, window_len, hop)
    window = hann(window_len, sym=False)
    spec = np.empty((len(clip.samples), window_len // 2 + 1, n_t), dtype=complex)
    for _, start, stop, _ in _blocks(n_t):
        spec[:, :, start:stop] = _stft_block(clip.samples, start, stop, window, hop)
    return spec


def _n_frames(samples: np.ndarray, window_len: int, hop: int) -> int:
    n = samples.shape[1]
    if n < window_len:
        raise TooShort(f"clip has {n} samples, window needs {window_len}")
    return (n - window_len) // hop + 1


def _stft_block(samples: np.ndarray, start: int, stop: int,
                window: np.ndarray, hop: int) -> np.ndarray:
    """(C, len(window)/2+1, stop - start) bins of stft frames [start, stop)."""
    chunk = samples[:, start * hop:(stop - 1) * hop + len(window)]
    frames = sliding_window_view(chunk, len(window), axis=1)[:, ::hop]
    return np.fft.rfft(frames * window, axis=2).transpose(0, 2, 1)


def log_linear_spectrogram(spec, n_bins: int = N_FREQ_BINS,
                           floor: float = SPEC_FLOOR) -> np.ndarray:
    """ln of floored power per bin of a stft array, keeping the lowest
    n_bins bins."""
    bins = np.asarray(spec)[:, :n_bins, :]
    return np.log(np.maximum(np.abs(bins) ** 2, floor))


def eigenvector_intensity(spec, n_bins: int = N_FREQ_BINS,
                          smooth: tuple = _SMOOTH) -> np.ndarray:
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
    x = np.asarray(spec)[:, :n_bins, :]
    halos, counts = _smoothing(smooth, *x.shape[1:])
    intensity = np.empty((3,) + x.shape[1:])
    for lo, start, stop, hi in _blocks(x.shape[2], halos[1]):
        intensity[:, :, start:stop] = _intensity_block(
            x[:, :, lo:hi], lo, start, stop, halos, counts)
    return intensity


def _smoothing(smooth: tuple, n_f: int, n_t: int) -> tuple:
    """Check smooth = (freq, time); return the window's (before, after) halo
    per axis and the cells it covers at each bin and frame of the clip."""
    size_f, size_t = smooth
    if size_f < 1 or size_t < 1:
        raise SeldkitError(f"smoothing window must be positive, got {smooth}")
    halos = [((size - 1) // 2, size // 2) for size in (size_f, size_t)]
    return halos, [_box_sum(np.ones(n), *halo, axis=0)
                   for n, halo in zip((n_f, n_t), halos)]


def _blocks(n_t: int, halo: tuple = (0, 0)):
    """(lo, start, stop, hi) per block [start, stop) of _BLOCK_FRAMES of n_t
    frames; [lo, hi) adds a (before, after) halo, clipped to the clip."""
    for start in range(0, n_t, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_t)
        yield max(start - halo[0], 0), start, stop, min(stop + halo[1], n_t)


def _intensity_block(block, lo: int, start: int, stop: int, halos: list,
                     counts: list) -> np.ndarray:
    """Intensity of frames [start, stop) from block, a stft array's frames
    [lo, hi) of _blocks; halos and counts are the clip's _smoothing."""
    sums = block[_TRIL_A] * block[_TRIL_B].conj()
    sums = _box_sum(sums, *halos[0], axis=1)
    sums = _box_sum(sums, *halos[1], axis=2)[:, :, start - lo:stop - lo]
    mean = sums / (counts[0][:, None] * counts[1][start:stop])
    cov = np.zeros((block.shape[1], stop - start, 4, 4), dtype=mean.dtype)
    cov[..., _TRIL_A, _TRIL_B] = np.moveaxis(mean, 0, -1)
    _, vecs = np.linalg.eigh(cov)
    return _direction(vecs[..., :, -1])


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
    4..6 the intensity vector (I_x, I_y, I_z). The pipeline runs per block
    of time frames (plus the halo the smoothing window reads) straight
    into the output, so only the clip and the output grow with clip
    length; the bytes equal the three public stages composed and cast.
    """
    n_t = _n_frames(clip.samples, STFT_WINDOW, STFT_HOP)
    window = hann(STFT_WINDOW, sym=False)
    halos, counts = _smoothing(_SMOOTH, N_FREQ_BINS, n_t)
    out = np.empty((7, N_FREQ_BINS, n_t), dtype=np.float32)
    for lo, start, stop, hi in _blocks(n_t, halos[1]):
        spec = _stft_block(clip.samples, lo, hi, window, STFT_HOP)
        out[:4, :, start:stop] = log_linear_spectrogram(spec[..., start - lo:stop - lo])
        out[4:, :, start:stop] = _intensity_block(spec[:, :N_FREQ_BINS], lo, start,
                                                  stop, halos, counts)
    return out


@np.errstate(invalid="ignore", over="ignore")  # NormStats rejects what they make
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
        arr = np.asarray(tensor)
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
        for c, channel in enumerate(arr):  # no tensor-sized float64 copy
            channel = np.asarray(channel, dtype=np.float64)
            total[c] += channel.sum(axis=1)
            total_sq[c] += (channel * channel).sum(axis=1)
    if count == 0:
        raise EmptyManifest("no feature frames to fit statistics on")
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    return NormStats(mean, np.maximum(np.sqrt(var), 1e-8))


def normalize(tensor, stats: NormStats) -> np.ndarray:
    """Standardize a feature tensor: (x - mean)/std per (channel, freq)."""
    arr = np.asarray(tensor)
    if arr.ndim != 3 or arr.shape[:2] != stats.mean.shape:
        raise ShapeMismatch(
            f"tensor shape {arr.shape} does not fit stats {stats.mean.shape}"
        )
    out = np.empty(arr.shape, dtype=np.float32)
    for c, channel in enumerate(arr):
        centred = np.subtract(channel, stats.mean[c, :, None], dtype=np.float64)
        np.divide(centred, stats.std[c, :, None], out=out[c], casting="unsafe")
    return out


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
