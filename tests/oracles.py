"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way — exhaustive
permutation search instead of the Hungarian algorithm, per-cell python
loops instead of vectorized numpy, power iteration instead of a library
eigensolver — so a defect in the package cannot hide in a shared code
path.
"""

import itertools
import math

import numpy as np
from scipy.special import expit

from seldkit.accdoa import doa_to_unit_vector
from seldkit.errors import (
    ClassOutOfRange,
    FrameOutOfRange,
    SameClassOverlap,
    SeldkitError,
)


def brute_force_assignment(cost):
    """Minimum-total assignment by trying every injection of the smaller
    side into the larger. Returns (total, pairs as (row, col))."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    best = (math.inf, [])
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = sum(cost[i, j] for i, j in enumerate(cols))
            if total < best[0]:
                best = (total, list(enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = sum(cost[i, j] for j, i in enumerate(rows))
            if total < best[0]:
                best = (total, [(i, j) for j, i in enumerate(rows)])
    return best


def angle_between(doa_a, doa_b):
    """Great-circle angle in degrees between two (azimuth, elevation) pairs."""
    az_a, el_a = (math.radians(v) for v in doa_a)
    az_b, el_b = (math.radians(v) for v in doa_b)
    dot = (
        math.cos(el_a) * math.cos(el_b) * math.cos(az_a - az_b)
        + math.sin(el_a) * math.sin(el_b)
    )
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def brute_force_seld_scores(preds, refs, spatial_threshold=20.0,
                            segment_len=10, average="macro"):
    """Segment scorer with exhaustive matching; F1/LE/LR macro (mean of
    per-class shares) or micro (pooled over all classes), ER always pooled.

    Returns a dict with keys er, f1, le, lr, er_undefined.
    """
    def to_cells(events):
        cells = {}
        for ev in events:
            key = (ev.frame // segment_len, ev.class_id)
            cells.setdefault(key, set()).add((ev.azimuth, ev.elevation))
        return cells

    pred_cells = to_cells(preds)
    ref_cells = to_cells(refs)

    class_ids = {c for _, c in pred_cells} | {c for _, c in ref_cells}
    segments = {s for s, _ in pred_cells} | {s for s, _ in ref_cells}
    tally = {c: {"tp": 0, "fp": 0, "fn": 0, "pairs": [], "refs": 0}
             for c in class_ids}
    numerator = 0
    denominator = 0
    for segment in segments:
        seg_fp = 0
        seg_fn = 0
        seg_refs = 0
        for class_id in class_ids:
            p = sorted(pred_cells.get((segment, class_id), ()))
            r = sorted(ref_cells.get((segment, class_id), ()))
            seg_refs += len(r)
            tally[class_id]["refs"] += len(r)
            if p and r:
                cost = [[angle_between(a, b) for b in r] for a in p]
                _, pairs = brute_force_assignment(np.array(cost))
                angles = [cost[i][j] for i, j in pairs]
            else:
                angles = []
            hits = sum(1 for a in angles if a < spatial_threshold)
            misses = len(angles) - hits
            tally[class_id]["tp"] += hits
            tally[class_id]["fp"] += len(p) - len(angles) + misses
            tally[class_id]["fn"] += len(r) - len(angles) + misses
            tally[class_id]["pairs"].extend(angles)
            seg_fp += len(p) - len(angles) + misses
            seg_fn += len(r) - len(angles) + misses
        numerator += max(seg_fp, seg_fn)
        denominator += seg_refs

    er_undefined = denominator == 0
    er = 0.0 if er_undefined else numerator / denominator

    if average == "micro":
        tp = sum(counts["tp"] for counts in tally.values())
        wrong = sum(counts["fp"] + counts["fn"] for counts in tally.values())
        angles = [a for counts in tally.values() for a in counts["pairs"]]
        n_refs = sum(counts["refs"] for counts in tally.values())
        f1 = 100.0 * 2 * tp / (2 * tp + wrong) if tp + wrong else 100.0
        if angles:
            le = sum(angles) / len(angles)
        else:
            le = 0.0 if not preds and not refs else 180.0
        lr = 100.0 * len(angles) / n_refs if n_refs else 100.0
        return {"er": er, "f1": f1, "le": le, "lr": lr,
                "er_undefined": er_undefined}

    f_shares = []
    le_shares = []
    lr_shares = []
    for counts in tally.values():
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        if tp + fp + fn > 0:
            f_shares.append(2 * tp / (2 * tp + fp + fn))
        if counts["pairs"]:
            le_shares.append(sum(counts["pairs"]) / len(counts["pairs"]))
        if counts["refs"] > 0:
            lr_shares.append(len(counts["pairs"]) / counts["refs"])

    f1 = 100.0 * sum(f_shares) / len(f_shares) if f_shares else 100.0
    if le_shares:
        le = sum(le_shares) / len(le_shares)
    else:
        le = 0.0 if not preds and not refs else 180.0
    lr = 100.0 * sum(lr_shares) / len(lr_shares) if lr_shares else 100.0
    return {"er": er, "f1": f1, "le": le, "lr": lr,
            "er_undefined": er_undefined}


def loop_intensity(bins):
    """Per-cell intensity recomputation: python-loop box mean over the
    clipped 3 x 3 neighborhood, principal eigenvector by power iteration,
    then the same ratio/reorder/clip rules."""
    n_ch, n_f, n_t = bins.shape
    out = np.zeros((3, n_f, n_t))
    for f in range(n_f):
        for t in range(n_t):
            acc = np.zeros((4, 4), dtype=complex)
            count = 0
            for ff in range(max(f - 1, 0), min(f + 2, n_f)):
                for tt in range(max(t - 1, 0), min(t + 2, n_t)):
                    v = bins[:, ff, tt]
                    acc += np.outer(v, v.conj())
                    count += 1
            cov = acc / count
            u = power_iteration(cov)
            if abs(u[0]) <= 1e-9:
                continue
            ratios = (u[1:4] / u[0]).real
            vec = np.array([ratios[2], ratios[0], ratios[1]])
            norm = float(np.linalg.norm(vec))
            if norm < 1e-9:
                continue
            if norm > 1.0:
                vec = vec / norm
            out[:, f, t] = vec
    return out


def power_iteration(matrix, iterations=2000):
    """Principal eigenvector of a Hermitian PSD matrix, normalized."""
    vec = np.full(matrix.shape[0], 0.5, dtype=complex)
    for _ in range(iterations):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm < 1e-300:
            return vec
        vec = nxt / norm
    return vec


def direct_sum_intensity(bins):
    """Float64 intensity from smoothed_covariance: principal eigenvector by
    eigh, then the same ratio/reorder/clip rules."""
    _, vecs = np.linalg.eigh(smoothed_covariance(bins))
    u = vecs[..., :, -1]
    out = np.zeros((3,) + u.shape[:2])
    usable = np.abs(u[..., 0]) > 1e-9
    ratios = (u[usable][:, 1:4] / u[usable][:, :1]).real
    vec = ratios[:, [2, 0, 1]]
    norm = np.linalg.norm(vec, axis=1)
    vec = vec / np.maximum(norm, 1.0)[:, None]
    vec[norm < 1e-9] = 0.0
    out[:, usable] = vec.T
    return out


def smoothed_covariance(bins):
    """(F, T, 4, 4) float64 covariance per bin, summed term by term: every
    x x^H in the clipped 3 x 3 (freq, time) window is added from a
    zero-padded copy of the grid, so no running sum or difference of sums
    is involved."""
    x = np.asarray(bins, dtype=complex)
    n_f, n_t = x.shape[1:]
    outer = np.einsum("aft,bft->ftab", x, x.conj())
    padded = np.zeros((n_f + 2, n_t + 2, 4, 4), dtype=complex)
    padded[1:1 + n_f, 1:1 + n_t] = outer
    inside = np.zeros(padded.shape[:2])
    inside[1:1 + n_f, 1:1 + n_t] = 1.0
    acc = np.zeros((n_f, n_t, 4, 4), dtype=complex)
    count = np.zeros((n_f, n_t))
    for df in range(3):
        for dt in range(3):
            acc += padded[df:df + n_f, dt:dt + n_t]
            count += inside[df:df + n_f, dt:dt + n_t]
    return acc / count[..., None, None]


# The per-element conversions and loops the scorer and the decoder used
# before they became whole-array code, kept verbatim (np.dot and
# np.linalg.norm on single rows) so the array code can be held to their
# exact bits.

def _scalar_unit_vector(azimuth, elevation):
    if not -90.0 <= elevation <= 90.0:
        raise ValueError(f"elevation {elevation} outside [-90, 90]")
    az = np.deg2rad(azimuth)
    el = np.deg2rad(elevation)
    return np.array(
        [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)],
        dtype=np.float64,
    )


def _scalar_angle(v1, v2):
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    cos = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.rad2deg(np.arccos(cos)))


def _scalar_doa(vec):
    v = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    x, y, z = v / norm
    elevation = float(np.rad2deg(np.arcsin(np.clip(z, -1.0, 1.0))))
    if np.hypot(x, y) < 1e-9:
        return 0.0, elevation
    azimuth = (float(np.rad2deg(np.arctan2(y, x))) + 180.0) % 360.0 - 180.0
    return azimuth, elevation


def scalar_cost_matrix(pred_doas, ref_doas):
    """(P, R) angles in degrees, one scalar angle per entry."""
    return np.array(
        [
            [
                _scalar_angle(_scalar_unit_vector(*p), _scalar_unit_vector(*r))
                for r in ref_doas
            ]
            for p in pred_doas
        ]
    )


def scalar_decode(tensor, threshold):
    """[(frame, class, azimuth, elevation)] for cells with norm > threshold,
    one scalar conversion per cell, sorted by (frame, class)."""
    arr = np.asarray(tensor, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=0)
    events = []
    for class_id, frame in np.argwhere(norms > threshold):
        azimuth, elevation = _scalar_doa(arr[:, class_id, frame])
        events.append((int(frame), int(class_id), azimuth, elevation))
    events.sort()
    return events


def loop_encode(events, n_frames, n_classes=13):
    """accdoa.encode as one Python step per event, the way it was written
    before it became columnar: the same tensor and, for the first offending
    event, the same error class and message."""
    if n_frames < 0 or n_classes < 0:
        raise SeldkitError(
            f"frame and class counts must be non-negative, got {n_frames} "
            f"and {n_classes}"
        )
    tensor = np.zeros((3, n_classes, n_frames), dtype=np.float64)
    occupied = set()
    for ev in events:
        if not 0 <= ev.frame < n_frames:
            raise FrameOutOfRange(f"event frame {ev.frame} outside [0, {n_frames})")
        if not 0 <= ev.class_id < n_classes:
            raise ClassOutOfRange(
                f"event class {ev.class_id} outside [0, {n_classes})"
            )
        cell = (ev.frame, ev.class_id)
        if cell in occupied:
            raise SameClassOverlap(
                f"two events for class {ev.class_id} in frame {ev.frame}"
            )
        occupied.add(cell)
        tensor[:, ev.class_id, ev.frame] = doa_to_unit_vector([(ev.azimuth, ev.elevation)])[0]
    return tensor


# The three per-score averaging functions of metrics.py before they became
# one helper, copied verbatim; the scores must stay equal to theirs bit for
# bit.

def _average_f1(per_class, average: str) -> float:
    if average == "micro":
        tp = sum(c.tp for c in per_class.values())
        fp = sum(c.fp for c in per_class.values())
        fn = sum(c.fn for c in per_class.values())
        return 100.0 if 2 * tp + fp + fn == 0 else 200.0 * tp / (2 * tp + fp + fn)
    shares = [
        2.0 * c.tp / (2 * c.tp + c.fp + c.fn)
        for c in per_class.values()
        if c.tp + c.fp + c.fn > 0
    ]
    return 100.0 * float(np.mean(shares)) if shares else 100.0


def _average_le(per_class, average: str, empty_inputs: bool) -> float:
    if average == "micro":
        matched = sum(c.n_matched for c in per_class.values())
        if matched == 0:
            return 0.0 if empty_inputs else 180.0
        return sum(c.angle_sum for c in per_class.values()) / matched
    shares = [
        c.angle_sum / c.n_matched for c in per_class.values() if c.n_matched > 0
    ]
    if not shares:
        return 0.0 if empty_inputs else 180.0
    return float(np.mean(shares))


def _average_lr(per_class, average: str) -> float:
    if average == "micro":
        refs = sum(c.n_refs for c in per_class.values())
        if refs == 0:
            return 100.0
        return 100.0 * sum(c.n_matched for c in per_class.values()) / refs
    shares = [c.n_matched / c.n_refs for c in per_class.values() if c.n_refs > 0]
    return 100.0 * float(np.mean(shares)) if shares else 100.0


def separate_averages(per_class, average):
    """(f1, le, lr) of a scorer's per-class tallies through the functions
    above."""
    return (_average_f1(per_class, average),
            _average_le(per_class, average, empty_inputs=not per_class),
            _average_lr(per_class, average))


def unfused_multi_dim_se(x, p_freq, p_chan, grad_y):
    """Multi-dimensional SE (frequency, then channel) and its exact
    gradients, the plain float64 way: inputs widened up front, scipy's expit
    for the gates, product-then-sum reductions and no in-place writes.

    Returns (y, grad_x, frequency parameter gradients, channel parameter
    gradients), each set of parameter gradients a (w1, b1, w2, b2) tuple.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_y = np.asarray(grad_y, dtype=np.float64)
    inner, freq_cache = _se_stage(x, p_freq, (0,))
    y, chan_cache = _se_stage(inner, p_chan, (1, 2))
    grad_inner, grad_chan = _se_stage_grad(chan_cache, p_chan, grad_y)
    grad_x, grad_freq = _se_stage_grad(freq_cache, p_freq, grad_inner)
    return y, grad_x, grad_freq, grad_chan


def _se_stage(x, p, axes):
    """One SE stage squeezing axes: the gated map and what its gradient needs."""
    gate_shape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    z = x.mean(axis=axes).reshape(p.w1.shape[1], -1)
    a1 = p.w1 @ z + p.b1[:, None]
    h = np.maximum(a1, 0.0)
    s = expit(p.w2 @ h + p.b2[:, None])
    return s.reshape(gate_shape) * x, (x, axes, gate_shape, z, a1, h, s)


def _se_stage_grad(cache, p, grad_y):
    x, axes, gate_shape, z, a1, h, s = cache
    grad_s = (grad_y * x).sum(axis=axes).reshape(s.shape)
    grad_a2 = grad_s * s * (1.0 - s)
    grad_a1 = (p.w2.T @ grad_a2) * (a1 > 0)
    grad_z = p.w1.T @ grad_a1
    grad_x = (s.reshape(gate_shape) * grad_y
              + grad_z.reshape(gate_shape) / (x.size // s.size))
    return grad_x, (grad_a1 @ z.T, grad_a1.sum(axis=1), grad_a2 @ h.T,
                    grad_a2.sum(axis=1))
