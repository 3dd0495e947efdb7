"""Activity-coupled Cartesian DOA vectors.

An ACCDOA tensor has shape (3, 13, n_label_frames): one Cartesian unit
vector per STARSS22 class (N_CLASSES) per 100 ms label frame. Its length is
the detection activity, so a class is "on" in a frame exactly when its
vector norm exceeds the detection threshold. Inactive cells are exact zeros.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import N_CLASSES, Events, _first_of_runs, _row_order, normalize_azimuth
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


def doa_to_unit_vector(doas) -> np.ndarray:
    """Map (N, 2) (azimuth, elevation) pairs in degrees to an (N, 3) array
    of unit vectors (x, y, z).

    x points to azimuth 0, y to azimuth +90, z to elevation +90. The first
    row with an elevation outside [-90, 90] or an azimuth that is not
    finite raises ElevationOutOfRange or a SeldkitError naming it.
    """
    doas = np.asarray(doas, dtype=np.float64)
    if doas.ndim != 2 or doas.shape[1] != 2:
        raise ShapeMismatch(f"expected (N, 2) directions, got shape {doas.shape}")
    inside = (doas[:, 1] >= -90.0) & (doas[:, 1] <= 90.0)
    bad = ~(inside & np.isfinite(doas[:, 0]))
    if bad.any():
        row = int(np.argmax(bad))
        azimuth, elevation = doas[row]
        if not inside[row]:
            raise ElevationOutOfRange(f"elevation {elevation} outside [-90, 90]")
        raise SeldkitError(f"azimuth {azimuth} is not finite")
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


def unit_vector_to_doa(vecs) -> tuple:
    """(azimuth, elevation) arrays in degrees for the rows of an (N, 3)
    array of Cartesian vectors.

    Each row is normalized first, so any positive length gives the same
    direction; a row shorter than 1e-9 raises ZeroVector. Azimuth lands in
    [-180, 180); at the poles, where azimuth is geometrically meaningless,
    it is reported as 0.0.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != 3:
        raise ShapeMismatch(f"expected (N, 3) vectors, got shape {vecs.shape}")
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


def encode(events, n_frames: int) -> np.ndarray:
    """Encode events into an ACCDOA tensor (3, N_CLASSES, n_frames).

    Each event must lie in [0, n_frames) x [0, N_CLASSES), one per (frame,
    class) cell: two same-class sources do not fit, so they are an error,
    not a merge. Errors name the first offending event in input order.
    """
    if n_frames < 0:
        raise SeldkitError(f"frame count must be non-negative, got {n_frames}")
    tensor = np.zeros((3, N_CLASSES, n_frames), dtype=np.float64)
    ev = Events.of(events)
    order = _row_order(ev.frame, ev.class_id)  # stable: a cell's rows in input order
    repeat = np.empty(len(ev), dtype=bool)
    repeat[order] = ~_first_of_runs(ev.frame[order], ev.class_id[order])
    bad = ((ev.frame < 0) | (ev.frame >= n_frames) | (ev.class_id < 0)
           | (ev.class_id >= N_CLASSES) | repeat)
    end = int(np.argmax(bad)) if bad.any() else len(ev)
    # a bad direction (elevation outside [-90, 90], azimuth not finite) before
    # the first bad row is named first
    vectors = doa_to_unit_vector(np.stack([ev.azimuth, ev.elevation], axis=-1)[:end])
    if end < len(ev):
        f, c = int(ev.frame[end]), int(ev.class_id[end])
        if not 0 <= f < n_frames:
            raise FrameOutOfRange(f"event frame {f} outside [0, {n_frames})")
        if not 0 <= c < N_CLASSES:
            raise ClassOutOfRange(f"event class {c} outside [0, {N_CLASSES})")
        raise SameClassOverlap(f"two events for class {c} in frame {f}")
    tensor[:, ev.class_id, ev.frame] = vectors.T
    return tensor


def decode(tensor, threshold: float = 0.5) -> Events:
    """Decode a (3, N_CLASSES, n_frames) ACCDOA tensor into events where the
    vector norm > threshold; another shape raises ShapeMismatch.

    The comparison is strict, so a threshold of 1.0 silences even exact unit
    vectors. Thresholds below 1e-9 are rejected: shorter vectors have no
    direction to decode. So are nan and inf, which no norm exceeds. A tensor
    holding a cell whose norm is not finite (a nan or inf entry, or one too
    large to square) is rejected with a SeldkitError naming the first such
    cell in (frame, class) order, rather than decoded as silence or as a nan
    direction. Returned events are sorted by (frame, class).
    """
    return _decode(tensor, threshold)[0]


def _decode(tensor, threshold: float) -> tuple:
    """decode's Events and the norm of each event's vector, the value it
    compared with the threshold."""
    if not 0.0 < threshold < np.inf:
        raise SeldkitError(f"threshold must be positive and finite, got {threshold}")
    if threshold < _EPS_NORM:
        raise SeldkitError(
            f"threshold {threshold} is below {_EPS_NORM:g}, the shortest "
            "vector that still carries a direction"
        )
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[:2] != (3, N_CLASSES):
        raise ShapeMismatch(f"expected (3, {N_CLASSES}, n_frames), got {arr.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(arr, axis=0).T  # (n_frames, N_CLASSES)
    finite = np.isfinite(norms)
    if not finite.all():
        frame, class_id = np.argwhere(~finite)[0]
        raise SeldkitError(
            f"ACCDOA vector of class {class_id} in frame {frame} has a "
            "non-finite norm"
        )
    frames, classes = np.nonzero(norms > threshold)
    events = Events(frames, classes, *unit_vector_to_doa(arr[:, classes, frames].T))
    return events, norms[frames, classes]


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
