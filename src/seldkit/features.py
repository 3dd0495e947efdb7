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
_SQUARINGS = 10
_RANK1_TOL = 1e-13
# (row, column) of the 10 lower-triangle entries of a 4x4 covariance; which
# of them lie on the diagonal and which below it; and the position in _OFF
# of each entry below it
_TRIL_A, _TRIL_B = np.tril_indices(4)
_DIAG = np.flatnonzero(_TRIL_A == _TRIL_B)
_OFF = np.flatnonzero(_TRIL_A > _TRIL_B)
_OFF_AT = {(int(_TRIL_A[i]), int(_TRIL_B[i])): k for k, i in enumerate(_OFF)}


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
    covariance is formed. Its principal eigenvector comes from repeated
    squaring, each bin stopping one squaring after its matrix passes a
    rank-1 certificate; np.linalg.eigh handles the bins that never pass,
    such as ties at the top eigenvalue (see _principal_vectors). A
    covariance that is not finite (a non-finite spec, or one whose
    products overflow float64) raises SeldkitError.

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
    # float64 overflow leaves non-finite sums, which _principal_vectors rejects
    with np.errstate(over="ignore", invalid="ignore"):
        sums = block[_TRIL_A] * block[_TRIL_B].conj()
        sums = _box_sum(sums, *halos[0], axis=1)
        sums = _box_sum(sums, *halos[1], axis=2, start=start - lo, stop=stop - lo)
        mean = sums / (counts[0][:, None] * counts[1][start:stop])
    return _direction(_principal_vectors(mean))


def _principal_vectors(tril: np.ndarray) -> np.ndarray:
    """Unit principal eigenvectors, shape (..., 4), of the Hermitian 4x4
    matrices whose lower triangles are tril, shape (10, ...) in
    (_TRIL_A, _TRIL_B) order.

    Each matrix is scaled to unit trace and squared, back to unit trace
    after each squaring, so s squarings shrink every eigenvalue below the
    top one by its ratio to the top one raised to 2**s. A matrix B is
    certified rank-1 when 1 - ||B||_F^2 / tr(B)^2 < _RANK1_TOL, which
    leaves less than _RANK1_TOL / 2 of its trace off the principal
    direction. Each bin stops at its own depth: ||B||_F^2 = tr(B^2) is the
    sum the next squaring scales by, so B's certificate comes free with
    B^2, and a bin whose B passes takes its vector from B^2, where that
    share is about squared, below round-off. The vector is the column with
    the largest diagonal entry, normalized; the bins left are compacted,
    so each squaring works on them only. After _SQUARINGS squarings the
    certificate is checked on the result itself. Bins that fail it there
    (ties and near-ties at the top eigenvalue) and bins with no positive
    finite trace go to np.linalg.eigh, built for those bins only. A
    non-finite entry raises SeldkitError: the input was not finite or the
    covariance overflowed float64.
    """
    shape = tril.shape[1:]
    tril = tril.reshape(10, -1)
    if not np.isfinite(tril).all():
        raise SeldkitError("spatial covariance is not finite (input non-finite "
                           "or overflows float64)")
    trace = tril[_DIAG].real.sum(axis=0)
    ok = (trace > 0) & (trace < np.inf)
    live = np.flatnonzero(ok)
    scale = 1.0 / trace[live]
    # d, o: diagonal and strictly lower entries of the bins still squared;
    # np.compress keeps each row C-contiguous as bins leave
    d = tril[_DIAG[:, None], live].real * scale
    o = tril[_OFF[:, None], live] * scale
    u = np.empty((tril.shape[1], 4), dtype=tril.dtype)
    for squarings in range(_SQUARINGS + 1):
        if not live.size:
            break
        trace = d.sum(axis=0)
        if squarings < _SQUARINGS:
            d, o, frobenius = _square(d, o)
        else:
            frobenius = (d * d).sum(axis=0) + 2 * (o.real ** 2 + o.imag ** 2).sum(axis=0)
        done = trace * trace - frobenius < _RANK1_TOL * trace * trace
        if done.any():
            u[live[done]] = _unit_top_columns(np.compress(done, d, axis=1),
                                              np.compress(done, o, axis=1))
            keep = ~done
            live = live[keep]
            d, o = np.compress(keep, d, axis=1), np.compress(keep, o, axis=1)
    redo = np.concatenate([np.flatnonzero(~ok), live])
    if redo.size:
        cov = np.zeros((redo.size, 4, 4), dtype=tril.dtype)
        cov[:, _TRIL_A, _TRIL_B] = tril[:, redo].T
        u[redo] = np.linalg.eigh(cov)[1][..., -1]
    return u.reshape(shape + (4,))


def _square(d: np.ndarray, o: np.ndarray) -> tuple:
    """(B^2 / tr(B^2), tr(B^2)) for the Hermitian matrices B whose
    diagonal and strictly lower entries (in _OFF order) are d, shape
    (4, m), and o, shape (6, m); B^2 is given the same way.

    (B^2)[a, a] = B[a, a]^2 + sum_c |B[a, c]|^2 and, for a > b,
    (B^2)[a, b] = (B[a, a] + B[b, b]) B[a, b] + sum_c B[a, c] B[c, b],
    with c running over the indices other than a and b.
    """
    conj = o.conj()
    power = o.real ** 2 + o.imag ** 2
    d_new = d * d
    o_new = np.empty_like(o)
    for (a, b), k in _OFF_AT.items():
        d_new[a] += power[k]
        d_new[b] += power[k]
        o_new[k] = (d[a] + d[b]) * o[k]
        for c in range(4):
            if c != a and c != b:
                o_new[k] += _entry(o, conj, a, c) * _entry(o, conj, c, b)
    frobenius = d_new.sum(axis=0)
    inv = 1.0 / frobenius
    d_new *= inv
    o_new *= inv
    return d_new, o_new, frobenius


def _unit_top_columns(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Each matrix's column with the largest diagonal entry, normalized,
    shape (m, 4), for matrices given as in _square."""
    conj = o.conj()
    top = np.argmax(d, axis=0)
    u = np.empty((d.shape[1], 4), dtype=o.dtype)
    for a in range(4):
        u[:, a] = np.choose(top, [d[a] if b == a else _entry(o, conj, a, b)
                                  for b in range(4)])
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u


def _entry(o: np.ndarray, conj: np.ndarray, a: int, b: int) -> np.ndarray:
    """Entry (a, b), a != b, of Hermitian matrices given their strictly
    lower entries o (in _OFF order) and the conjugates of those."""
    return o[_OFF_AT[a, b]] if a > b else conj[_OFF_AT[b, a]]


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
        # intensity first: a covariance that overflows raises SeldkitError
        # before the power spectrum would warn
        out[4:, :, start:stop] = _intensity_block(spec[:, :N_FREQ_BINS], lo, start,
                                                  stop, halos, counts)
        out[:4, :, start:stop] = log_linear_spectrogram(spec[..., start - lo:stop - lo])
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


def _box_sum(arr: np.ndarray, before: int, after: int, axis: int,
             start: int = 0, stop: int = None) -> np.ndarray:
    """Sum over the window [i - before, i + after] along axis, clipped to
    the array's extent, at positions i in [start, stop) (all of them by
    default), by shifted adds in a fixed order."""
    n = arr.shape[axis]
    stop = n if stop is None else stop
    out = arr[(slice(None),) * axis + (slice(start, stop),)].copy()
    src, dst = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    for k in range(1, before + 1):
        first = min(max(start, k), stop)  # positions from here on have i - k >= 0
        dst[first - start:] += src[first - k:stop - k]
    for k in range(1, after + 1):
        end = max(min(stop, n - k), start)  # positions below it have i + k < n
        dst[:end - start] += src[start + k:end + k]
    return out
