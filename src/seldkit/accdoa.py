"""Activity-coupled Cartesian DOA vectors.

An ACCDOA tensor has shape (3, n_classes, n_label_frames): one Cartesian
unit vector per class per 100 ms label frame. Vector length doubles as the
detection activity, so a class is "on" in a frame exactly when its vector
norm exceeds the detection threshold. Inactive cells are exact zeros.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import N_CLASSES, Events, _first_of_runs, normalize_azimuth
from .errors import (
    ClassOutOfRange,
    ElevationOutOfRange,
    EmptyEnsemble,
    FrameOutOfRange,
    SameClassOverlap,
    SeldkitError,
    ShapeMismatch,
    ZeroVector,
)

# one 100 ms label frame spans this many STFT feature frames
FEATURE_FRAMES_PER_LABEL_FRAME = 8

_EPS_NORM = 1e-9


def doa_to_unit_vector(azimuth: float, elevation: float) -> np.ndarray:
    """Map a direction in degrees to a unit vector (x, y, z).

    x points to azimuth 0, y to azimuth +90, z to elevation +90.
    """
    return _unit_vectors([(azimuth, elevation)])[0]


def unit_vector_to_doa(vec) -> tuple:
    """Recover (azimuth, elevation) in degrees from a Cartesian vector.

    The vector is normalized first, so any positive length gives the same
    direction. Azimuth lands in [-180, 180); at the poles, where azimuth is
    geometrically meaningless, it is reported as 0.0.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (3,):
        raise ShapeMismatch(f"expected a (3,) vector, got shape {v.shape}")
    azimuth, elevation = _directions(v[None])
    return float(azimuth[0]), float(elevation[0])


def _unit_vectors(doas) -> np.ndarray:
    """Map N (azimuth, elevation) pairs in degrees to an (N, 3) array of
    unit vectors, the array form of doa_to_unit_vector."""
    doas = np.asarray(doas, dtype=np.float64).reshape(-1, 2)
    inside = (doas[:, 1] >= -90.0) & (doas[:, 1] <= 90.0)
    if not inside.all():
        elevation = doas[~inside, 1][0]
        raise ElevationOutOfRange(f"elevation {elevation} outside [-90, 90]")
    az = np.deg2rad(doas[:, 0])
    el = np.deg2rad(doas[:, 1])
    cos_el = np.cos(el)
    return np.stack([np.cos(az) * cos_el, np.sin(az) * cos_el, np.sin(el)], axis=-1)


def _row_norms(vecs) -> np.ndarray:
    """Euclidean norm of each row of an (N, 3) array.

    The stacked matmul reproduces np.linalg.norm of each row bit for bit;
    a plain reduction or a BLAS gemv may round differently.
    """
    return np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0, 0])


def _directions(vecs) -> tuple:
    """(azimuth, elevation) arrays in degrees for the rows of an (N, 3)
    array, the array form of unit_vector_to_doa."""
    norms = _row_norms(vecs)
    short = norms < _EPS_NORM
    if short.any():
        norm = norms[short][0]
        raise ZeroVector(f"vector norm {norm} is too small to carry a direction")
    x, y, z = (vecs / norms[:, None]).T
    elevation = np.rad2deg(np.arcsin(np.clip(z, -1.0, 1.0)))
    azimuth = normalize_azimuth(np.rad2deg(np.arctan2(y, x)))
    azimuth[np.hypot(x, y) < _EPS_NORM] = 0.0
    return azimuth, elevation


def encode(events, n_frames: int, n_classes: int = N_CLASSES) -> np.ndarray:
    """Encode events into an ACCDOA tensor (3, n_classes, n_frames).

    Each event must lie in [0, n_frames) x [0, n_classes), one per (frame,
    class) cell: two same-class sources do not fit, so they are an error,
    not a merge. Errors name the first offending event in input order.
    """
    if n_frames < 0 or n_classes < 0:
        raise SeldkitError(f"frame and class counts must be non-negative, "
                           f"got {n_frames} and {n_classes}")
    tensor = np.zeros((3, n_classes, n_frames), dtype=np.float64)
    ev = Events.of(events)
    order = np.lexsort((ev.class_id, ev.frame))  # stable: a cell's rows in input order
    repeat = np.empty(len(ev), dtype=bool)
    repeat[order] = ~_first_of_runs(ev.frame[order], ev.class_id[order])
    bad = ((ev.frame < 0) | (ev.frame >= n_frames) | (ev.class_id < 0)
           | (ev.class_id >= n_classes) | repeat)
    end = int(np.argmax(bad)) if bad.any() else len(ev)
    # _unit_vectors names an elevation outside [-90, 90] before the first bad row
    vectors = _unit_vectors(np.stack([ev.azimuth, ev.elevation], axis=-1)[:end])
    if end < len(ev):
        f, c = int(ev.frame[end]), int(ev.class_id[end])
        if not 0 <= f < n_frames:
            raise FrameOutOfRange(f"event frame {f} outside [0, {n_frames})")
        if not 0 <= c < n_classes:
            raise ClassOutOfRange(f"event class {c} outside [0, {n_classes})")
        raise SameClassOverlap(f"two events for class {c} in frame {f}")
    tensor[:, ev.class_id, ev.frame] = vectors.T
    return tensor


def decode(tensor, threshold: float = 0.5) -> Events:
    """Decode an ACCDOA tensor into events where the vector norm > threshold.

    The comparison is strict, so a threshold of 1.0 silences even exact unit
    vectors. Thresholds below 1e-9 are rejected: shorter vectors have no
    direction to decode. So are nan and inf, which no norm exceeds. A
    tensor holding a cell whose norm is not finite (a nan or inf entry, or
    one too large to square) is rejected with a SeldkitError naming the
    first such cell in (frame, class) order, rather than decoded as silence
    or as a nan direction. Returned events are sorted by (frame, class).
    """
    if not 0.0 < threshold < np.inf:
        raise SeldkitError(f"threshold must be positive and finite, got {threshold}")
    if threshold < _EPS_NORM:
        raise SeldkitError(
            f"threshold {threshold} is below {_EPS_NORM:g}, the shortest "
            "vector that still carries a direction"
        )
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ShapeMismatch(f"expected (3, n_classes, n_frames), got {arr.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(arr, axis=0).T  # (n_frames, n_classes)
    finite = np.isfinite(norms)
    if not finite.all():
        frame, class_id = np.argwhere(~finite)[0]
        raise SeldkitError(
            f"ACCDOA vector of class {class_id} in frame {frame} has a "
            "non-finite norm"
        )
    frames, classes = np.nonzero(norms > threshold)
    return Events(frames, classes, *_directions(arr[:, classes, frames].T))


def ensemble_average(tensors) -> np.ndarray:
    """Arithmetic mean of ACCDOA tensors from several models.

    Averaging shrinks vectors wherever the models disagree, so the norm
    threshold in decode() doubles as an agreement vote.
    """
    tensors = list(tensors)
    if not tensors:
        raise EmptyEnsemble("need at least one tensor to average")
    first = np.asarray(tensors[0], dtype=np.float64)
    if first.ndim != 3 or first.shape[0] != 3:
        raise ShapeMismatch(f"expected (3, n_classes, n_frames), got {first.shape}")
    acc = first.copy()
    for t in tensors[1:]:
        arr = np.asarray(t, dtype=np.float64)
        if arr.shape != first.shape:
            raise ShapeMismatch(f"shape {arr.shape} does not match {first.shape}")
        acc += arr
    return acc / len(tensors)
