"""Activity-coupled Cartesian DOA vectors.

An ACCDOA tensor has shape (3, n_classes, n_label_frames): one Cartesian
unit vector per class per 100 ms label frame. Vector length doubles as the
detection activity, so a class is "on" in a frame exactly when its vector
norm exceeds the detection threshold. Inactive cells are exact zeros.
"""

from __future__ import annotations

import numpy as np

from .dataset_io import N_CLASSES, Event, normalize_azimuth
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
    if not -90.0 <= elevation <= 90.0:
        raise ElevationOutOfRange(f"elevation {elevation} outside [-90, 90]")
    az = np.deg2rad(azimuth)
    el = np.deg2rad(elevation)
    return np.array(
        [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)],
        dtype=np.float64,
    )


def unit_vector_to_doa(vec) -> tuple:
    """Recover (azimuth, elevation) in degrees from a Cartesian vector.

    The vector is normalized first, so any positive length gives the same
    direction. Azimuth lands in [-180, 180); at the poles, where azimuth is
    geometrically meaningless, it is reported as 0.0.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (3,):
        raise ShapeMismatch(f"expected a (3,) vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < _EPS_NORM:
        raise ZeroVector(f"vector norm {norm} is too small to carry a direction")
    x, y, z = v / norm
    elevation = float(np.rad2deg(np.arcsin(np.clip(z, -1.0, 1.0))))
    if np.hypot(x, y) < _EPS_NORM:
        return 0.0, elevation
    azimuth = normalize_azimuth(float(np.rad2deg(np.arctan2(y, x))))
    return azimuth, elevation


def encode(events, n_frames: int, n_classes: int = N_CLASSES) -> np.ndarray:
    """Encode an event list into an ACCDOA tensor (3, n_classes, n_frames).

    Every event must fit in [0, n_frames) label frames, and a (frame, class)
    cell can hold at most one event; the representation has no room for two
    same-class sources, so that case is an error rather than a silent merge.
    """
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
        tensor[:, ev.class_id, ev.frame] = doa_to_unit_vector(ev.azimuth, ev.elevation)
    return tensor


def decode(tensor, threshold: float = 0.5) -> list:
    """Decode an ACCDOA tensor into events where the vector norm > threshold.

    The comparison is strict, so a threshold of 1.0 silences even exact unit
    vectors. Thresholds below 1e-9 are rejected: shorter vectors have no
    direction to decode. Returned events are sorted by (frame, class).
    """
    if threshold <= 0.0:
        raise SeldkitError(f"threshold must be positive, got {threshold}")
    if threshold < _EPS_NORM:
        raise SeldkitError(
            f"threshold {threshold} is below {_EPS_NORM:g}, the shortest "
            "vector that still carries a direction"
        )
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ShapeMismatch(f"expected (3, n_classes, n_frames), got {arr.shape}")
    norms = np.linalg.norm(arr, axis=0)
    events = []
    for class_id, frame in np.argwhere(norms > threshold):
        azimuth, elevation = unit_vector_to_doa(arr[:, class_id, frame])
        events.append(Event(int(frame), int(class_id), azimuth, elevation))
    events.sort()
    return events


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
