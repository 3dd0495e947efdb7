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

from .dataset_io import MultichannelClip, read_feature_file, write_feature_file
from .errors import EmptyManifest, SeldkitError, ShapeMismatch

STFT_WINDOW = 512
STFT_HOP = 300
N_FREQ_BINS = 200
SPEC_FLOOR = 1e-10

_EPS_EIGVEC = 1e-9
_BLOCK_FRAMES = 128
_SQUARINGS = 10
_RANK1_TOL = float(np.sqrt(np.finfo(np.float64).eps))
# (row, column) of the 6 entries below the diagonal of a 4x4 covariance, in
# the order the kernel holds them, and the position in that order of each
_OFF_A, _OFF_B = np.tril_indices(4, -1)
_OFF_AT = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(_OFF_A, _OFF_B))}
# periodic Hann window, bit-identical to scipy's hann(STFT_WINDOW, sym=False):
# its general_cosine sum over STFT_WINDOW + 1 points, minus the last. numpy
# alone, so importing features loads no scipy.signal
_HANN = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, STFT_WINDOW + 1)))[:STFT_WINDOW]


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


def stft(clip: MultichannelClip) -> np.ndarray:
    """Hann-windowed DFT per channel, no signal padding.

    Returns the complex (4, STFT_WINDOW/2+1, T) = (4, 257, T) array of
    bins. Frame t covers samples [t*STFT_HOP, t*STFT_HOP + STFT_WINDOW), so
    T = floor((N - STFT_WINDOW)/STFT_HOP) + 1 and the signal tail that does
    not fill a window is dropped. Frames are windowed and transformed a
    block at a time into the output, so no clip-sized frame array is built.
    """
    n_t = _n_frames(clip.samples)
    spec = np.empty((len(clip.samples), STFT_WINDOW // 2 + 1, n_t), dtype=complex)
    for _, start, stop, _ in _blocks(n_t):
        spec[:, :, start:stop] = _stft_block(clip.samples, start, stop)
    return spec


def _n_frames(samples: np.ndarray) -> int:
    # a MultichannelClip holds at least STFT_WINDOW samples
    return (samples.shape[1] - STFT_WINDOW) // STFT_HOP + 1


def _stft_block(samples: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(C, STFT_WINDOW/2+1, stop - start) bins of stft frames [start, stop)."""
    chunk = samples[:, start * STFT_HOP:(stop - 1) * STFT_HOP + STFT_WINDOW]
    frames = sliding_window_view(chunk, STFT_WINDOW, axis=1)[:, ::STFT_HOP]
    return np.fft.rfft(frames * _HANN, axis=2).transpose(0, 2, 1)


def log_linear_spectrogram(spec) -> np.ndarray:
    """ln of power per bin of a stft array, floored at SPEC_FLOOR, keeping
    the lowest N_FREQ_BINS bins."""
    bins = np.asarray(spec)[:, :N_FREQ_BINS, :]
    return np.log(np.maximum(np.abs(bins) ** 2, SPEC_FLOOR))


def eigenvector_intensity(spec) -> np.ndarray:
    """Direction estimate per TF bin of a stft array from the smoothed
    spatial covariance.

    For each (f, t) in the lowest N_FREQ_BINS bins: sum x*x^H over the
    3 x 3 (freq, time) neighborhood (clipped at the edges, so corner cells
    sum fewer terms; the sum is not divided by their number, as a positive
    scale leaves an eigenvector as it is), take the principal eigenvector u
    of the 4x4 result, and read the direction off the component ratios
    Re(u[1:4]/u[0]). The ratio cancels the eigenvector's arbitrary global
    phase, so no separate sign convention is needed. Bins where the W
    component nearly vanishes (|u[0]| <= 1e-9) carry no usable direction
    and come out zero; vectors longer than 1 are rescaled onto the unit
    sphere.

    The covariance is summed directly (shifted adds, no running sums, so
    quiet bins after loud ones keep full precision) in blocks of time
    frames, each read with the one-frame halo the window needs. Working
    memory is O(N_FREQ_BINS x block) whatever the clip length, and every
    output frame is the same whatever the block size. The sums are formed
    straight into the kernel's layout, the 4 diagonal entries and the 6
    below them. Repeated squaring brings each bin to a rank-1 matrix whose
    top column lies along u, so no unit eigenvector is formed;
    np.linalg.eigh takes the bins that never get there, such as ties at the
    top eigenvalue (see _principal_directions). A covariance that is not
    finite (a non-finite spec, or one whose products overflow float64)
    raises SeldkitError.

    Output channels are (I_x, I_y, I_z), Cartesian order, shape
    (3, min(N_FREQ_BINS, bins of spec), T).
    """
    x = np.asarray(spec)[:, :N_FREQ_BINS, :]
    intensity = np.empty((3,) + x.shape[1:])
    for lo, start, stop, hi in _blocks(x.shape[2], halo=1):
        intensity[:, :, start:stop] = _intensity_block(x[:, :, lo:hi], lo, start, stop)
    return intensity


def _blocks(n_t: int, halo: int = 0):
    """(lo, start, stop, hi) per block [start, stop) of _BLOCK_FRAMES of n_t
    frames; [lo, hi) adds halo frames each side, clipped to the clip."""
    for start in range(0, n_t, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_t)
        yield max(start - halo, 0), start, stop, min(stop + halo, n_t)


def _intensity_block(block, lo: int, start: int, stop: int) -> np.ndarray:
    """Intensity of frames [start, stop) from block, a stft array's frames
    [lo, hi) of _blocks with the 3 x 3 window's halo of 1.

    The 10 products x_a conj(x_b), a >= b, are written into one array; the
    diagonal ones are complex products like the rest, and the first box
    sum copies their real parts out, so the window sums arrive as the
    kernel's (d, o)."""
    block = np.ascontiguousarray(block, dtype=np.result_type(block, np.float64))
    conj = block.conj()
    products = np.empty((10,) + block.shape[1:], dtype=block.dtype)
    # float64 overflow leaves non-finite sums, which _principal_directions rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(4):
            np.multiply(block[a], conj[a], out=products[a])
        for (a, b), k in _OFF_AT.items():
            np.multiply(block[a], conj[b], out=products[4 + k])
        # each step's inputs are freed as it ends, so the thread's heap
        # holds only (d, o) and the kernel's own arrays while the kernel runs
        del block, conj
        sums = [_box_sum(part, axis=1) for part in (products[:4].real, products[4:])]
        del products
        d, o = [_box_sum(part, axis=2, start=start - lo, stop=stop - lo)
                for part in sums]
        del sums
    return _principal_directions(d, o)


def _principal_directions(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Intensity (I_x, I_y, I_z), float shape (3, ...), read off the
    principal eigenvectors of the Hermitian 4x4 matrices whose diagonal
    entries are d, float shape (4, ...), and whose entries below the
    diagonal are o, complex shape (6, ...) in _OFF_AT order.

    Each matrix is scaled to unit trace and squared, back to unit trace
    after each squaring, so s squarings shrink every eigenvalue below the
    top one by its ratio to the top one raised to 2**s. A matrix B is
    certified rank-1 when 1 - ||B||_F^2 / tr(B)^2 < _RANK1_TOL. With B at
    unit trace and r the share of its trace off the principal direction,
    1 - ||B||_F^2 >= 1 - (1 - r)^2 - r^2 = 2r(1 - r), so a B that passes
    keeps r < about _RANK1_TOL / 2. B^2, where the direction is read, keeps
    at most r^2 / (1 - r)^2 of its trace off that direction, about
    _RANK1_TOL^2 / 4 = eps / 4 for _RANK1_TOL = sqrt(eps): below float64
    round-off, so a tighter certificate would only square bins longer. Each
    bin stops at its own depth: ||B||_F^2 = tr(B^2) is the sum the next
    squaring scales by, so B's certificate comes free with B^2. The
    direction is read off B^2's column with the largest diagonal entry, as
    it stands; the bins left are compacted, so each squaring works on them
    only. Bins whose B still fails after _SQUARINGS squarings (ties and
    near-ties at the top eigenvalue) and bins with no positive finite
    trace go to np.linalg.eigh, built for those bins only. A non-finite
    entry raises SeldkitError: the input was not finite or the covariance
    overflowed float64.
    """
    shape = d.shape[1:]
    d, o = d.reshape(4, -1), o.reshape(6, -1)
    if not (np.isfinite(d).all() and np.isfinite(o).all()):
        raise SeldkitError("spatial covariance is not finite (input non-finite "
                           "or overflows float64)")
    trace = d.sum(axis=0)
    ok = (trace > 0) & (trace < np.inf)
    live = np.flatnonzero(ok)
    # d_live, o_live: the entries of the bins still squared; np.compress
    # keeps each row C-contiguous as bins leave
    d_live, o_live = (d, o) if live.size == ok.size else (
        np.compress(ok, d, axis=1), np.compress(ok, o, axis=1))
    scale = 1.0 / trace[live]
    d_live, o_live = d_live * scale, o_live * scale
    intensity = np.empty((3, d.shape[1]))
    for _ in range(_SQUARINGS + 1):
        if not live.size:
            break
        trace = d_live.sum(axis=0)
        d_live, o_live, frobenius = _square(d_live, o_live)
        done = trace * trace - frobenius < _RANK1_TOL * trace * trace
        if done.any():
            intensity[:, live[done]] = _direction(_top_columns(
                np.compress(done, d_live, axis=1), np.compress(done, o_live, axis=1)))
            live, d_live, o_live = [np.compress(~done, x, axis=-1)
                                    for x in (live, d_live, o_live)]
    redo = np.concatenate([np.flatnonzero(~ok), live])
    if redo.size:
        cov = np.zeros((redo.size, 4, 4), dtype=o.dtype)
        cov[:, range(4), range(4)] = d[:, redo].T
        cov[:, _OFF_A, _OFF_B] = o[:, redo].T
        intensity[:, redo] = _direction(np.linalg.eigh(cov)[1][..., -1].T)
    return intensity.reshape((3,) + shape)


def _square(d: np.ndarray, o: np.ndarray) -> tuple:
    """(B^2 / tr(B^2), tr(B^2)) for the Hermitian matrices B whose
    diagonal and strictly lower entries (in _OFF_AT order) are d, shape
    (4, m), and o, shape (6, m); B^2 is given the same way.

    (B^2)[a, a] = B[a, a]^2 + sum_c |B[a, c]|^2 and, for a > b,
    (B^2)[a, b] = (B[a, a] + B[b, b]) B[a, b] + sum_c B[a, c] B[c, b],
    with c running over the indices other than a and b. Each product is
    written into a buffer made once per call.
    """
    conj = o.conj()
    d_new = d * d
    o_new = np.empty_like(o)
    power, work = np.empty(d.shape[1]), np.empty(d.shape[1])
    product = np.empty(d.shape[1], dtype=o.dtype)
    for (a, b), k in _OFF_AT.items():
        np.square(o[k].real, out=power)
        power += np.square(o[k].imag, out=work)
        d_new[a] += power
        d_new[b] += power
        np.multiply(np.add(d[a], d[b], out=work), o[k], out=o_new[k])
        for c in range(4):
            if c != a and c != b:
                o_new[k] += np.multiply(_entry(o, conj, a, c), _entry(o, conj, c, b),
                                        out=product)
    frobenius = d_new.sum(axis=0)
    inv = 1.0 / frobenius
    d_new *= inv
    o_new *= inv
    return d_new, o_new, frobenius


def _top_columns(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Each matrix's column with the largest diagonal entry, shape (4, m),
    for matrices given as in _square."""
    top = np.argmax(d, axis=0)
    at = np.arange(4)[:, None] == top  # at[b]: the bins whose top column is b
    column = np.empty((4, d.shape[1]), dtype=o.dtype)
    np.copyto(column, d, where=at)
    for (a, b), k in _OFF_AT.items():
        np.copyto(column[a], o[k], where=at[b])
        np.conjugate(o[k], out=column[b], where=at[a])
    return column


def _entry(o: np.ndarray, conj: np.ndarray, a: int, b: int) -> np.ndarray:
    """Entry (a, b), a != b, of Hermitian matrices given their strictly
    lower entries o (in _OFF_AT order) and the conjugates of those."""
    return o[_OFF_AT[a, b]] if a > b else conj[_OFF_AT[b, a]]


def _direction(c: np.ndarray) -> np.ndarray:
    """(I_x, I_y, I_z), shape (3, m), read as in eigenvector_intensity off
    vectors c, shape (4, m), along principal eigenvectors u at any scale:
    |u0| > 1e-9 is |c0|^2 > 1e-18 ||c||^2."""
    power = np.square(c.real) + np.square(c.imag)
    usable = power[0] > _EPS_EIGVEC ** 2 * power.sum(axis=0)
    # c arrives in channel order (W, Y, Z, X); emit Cartesian (x, y, z).
    # Dividing by inf zeroes the bins with no usable W
    ratios = (c[1:] / np.where(usable, c[0], np.inf)).real[[2, 0, 1]]
    norm = np.linalg.norm(ratios, axis=0)
    ratios /= np.maximum(norm, 1.0)
    ratios[:, norm < _EPS_EIGVEC] = 0.0
    return ratios


def salsa(clip: MultichannelClip) -> np.ndarray:
    """Full SALSA feature: (7, 200, T) float32.

    Channels 0..3 are log-linear spectrograms of (W, Y, Z, X); channels
    4..6 the intensity vector (I_x, I_y, I_z). The pipeline runs per block
    of time frames (plus the halo the smoothing window reads) straight
    into the output, so only the clip and the output grow with clip
    length; the bytes equal the three public stages composed and cast.
    """
    n_t = _n_frames(clip.samples)
    out = np.empty((7, N_FREQ_BINS, n_t), dtype=np.float32)
    for lo, start, stop, hi in _blocks(n_t, halo=1):
        spec = _stft_block(clip.samples, lo, hi)
        # intensity first: a covariance that overflows raises SeldkitError
        # before the power spectrum would warn
        out[4:, :, start:stop] = _intensity_block(spec[:, :N_FREQ_BINS], lo,
                                                  start, stop)
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
    if np.any(stats.std.astype(np.float32) == 0):  # it would not load back
        raise SeldkitError("std below float32's smallest subnormal rounds to 0")
    write_feature_file(np.stack([stats.mean, stats.std]), path)


def load_norm_stats(path) -> NormStats:
    arr = read_feature_file(path)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise ShapeMismatch(f"{path}: expected (2, C, F) stats, got {arr.shape}")
    return NormStats(arr[0], arr[1])


def _box_sum(arr: np.ndarray, axis: int, start: int = 0,
             stop: int = None) -> np.ndarray:
    """Sum over the window [i - 1, i + 1] along axis, clipped to the
    array's extent, at positions i in [start, stop) (all of them by
    default): x[i], plus x[i - 1], plus x[i + 1], in that order."""
    n = arr.shape[axis]
    stop = n if stop is None else stop
    out = arr[(slice(None),) * axis + (slice(start, stop),)].copy()
    src, dst = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    first = min(max(start, 1), stop)  # positions from here on have i - 1 >= 0
    dst[first - start:] += src[first - 1:stop - 1]
    end = max(min(stop, n - 1), start)  # positions below it have i + 1 < n
    dst[:end - start] += src[start + 1:end + 1]
    return out
