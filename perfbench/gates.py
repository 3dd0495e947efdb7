"""Output gates: invariants for every seed, recorded values where they exist.

Every check returns a list of (op, reason) pairs; an empty list means the
outputs passed. `op` names the clip or step the failure is charged to, so
one bad output counts one failed operation against `ok_ratio`. The readers
here do not use seldkit, so a defect in its readers cannot hide a defect
in its writers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from gen import STFT_HOP, STFT_WINDOW, SAMPLE_RATE, unit_vectors

# Stored features are (raw - mean) / std in float32. One float32 ulp of a
# raw value becomes up to ~1/std ulps after the division, so recorded
# values are matched to 1e-5 relative: room for rounding, not for a change.
FEATURE_RTOL = 1e-5
# SE sums are float64 over positive terms; BLAS kernels may reorder them.
SE_RTOL = 1e-9
DIRECTION_TOL_DEG = 5.0
N_SAMPLED = 128


def read_slsa(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != b"SLSA" or len(blob) < 12:
        raise ValueError(f"{path}: not an SLSA container")
    version, ndim = struct.unpack_from("<II", blob, 4)
    dims = struct.unpack_from(f"<{ndim}Q", blob, 12)
    offset = 12 + 8 * ndim
    if version != 1 or len(blob) != offset + 4 * math.prod(dims):
        raise ValueError(f"{path}: bad version or payload size")
    return np.frombuffer(blob, dtype="<f4", offset=offset).reshape(dims)


def _sample_index(shape):
    rng = np.random.default_rng([2022, *shape])
    return tuple(rng.integers(0, n, N_SAMPLED) for n in shape)


def _float32_list(values):
    """float32 values as the shortest decimals that round-trip them."""
    return [float(f"{v:.9g}") for v in np.asarray(values, dtype=np.float32).ravel()]


def _close(observed, recorded, rtol):
    observed = np.asarray(observed, dtype=np.float64)
    recorded = np.asarray(recorded, dtype=np.float64)
    return observed.shape == recorded.shape and bool(
        np.all(np.abs(observed - recorded) <= rtol * (1.0 + np.abs(recorded))))


# ---------------------------------------------------------------- extract

def extract_frames(n_samples):
    return (n_samples - STFT_WINDOW) // STFT_HOP + 1


def _direction_error(raw, clip):
    """Worst angle between the mean intensity vector of 9-frame windows and the
    direction the clip was generated from at the window's centre."""
    n_frames = raw.shape[2]
    worst = 0.0
    for t in np.linspace(4, n_frames - 5, 12).astype(int):
        v = raw[4:7, 5:150, t - 4:t + 5].mean(axis=(1, 2))
        seconds = (t * STFT_HOP + STFT_WINDOW / 2) / SAMPLE_RATE
        truth = unit_vectors(clip["az0"] + clip["v_az"] * seconds,
                             clip["el0"] + clip["v_el"] * seconds)
        cos = float(v @ truth) / max(float(np.linalg.norm(v)), 1e-12)
        worst = max(worst, math.degrees(math.acos(min(max(cos, -1.0), 1.0))))
    return worst


def check_extract(out_dir, stats_path, truth, recorded, exit_code):
    """Returns (failures, observed); observed holds the values a recording keeps."""
    clips = truth["clips"]
    fails = []
    if exit_code != 0:
        fails += [(c["stem"], f"extract exited {exit_code}") for c in clips]
    observed = {}
    try:
        stats = read_slsa(stats_path).astype(np.float64)
        if stats.shape != (2, 7, 200) or not np.all(np.isfinite(stats)) or np.any(stats[1] <= 0):
            raise ValueError(f"stats shape {stats.shape} or values invalid")
    except (OSError, ValueError) as exc:
        return fails + [(c["stem"], f"stats: {exc}") for c in clips], observed
    observed["stats"] = _float32_list(stats[:, :, ::25])
    if recorded and not _close(observed["stats"], recorded["stats"], FEATURE_RTOL):
        fails += [(c["stem"], "stats differ from recorded values") for c in clips]

    total = np.zeros((7, 200))
    total_sq = np.zeros((7, 200))
    count = 0
    for clip in clips:
        stem = clip["stem"]
        try:
            feats = read_slsa(Path(out_dir) / f"{stem}.slsa")
        except (OSError, ValueError) as exc:
            fails.append((stem, str(exc)))
            continue
        want = (7, 200, extract_frames(clip["n_samples"]))
        if feats.shape != want or not np.all(np.isfinite(feats)):
            fails.append((stem, f"shape {feats.shape} (want {want}) or non-finite values"))
            continue
        x = feats.astype(np.float64)
        total += x.sum(axis=2)
        total_sq += (x * x).sum(axis=2)
        count += x.shape[2]
        observed[stem] = _float32_list(feats[_sample_index(feats.shape)])
        if recorded and not _close(observed[stem], recorded[stem], FEATURE_RTOL):
            fails.append((stem, "features differ from recorded values"))
        if clip["kind"] == "directional":
            raw = x * stats[1][:, :, None] + stats[0][:, :, None]
            error = _direction_error(raw, clip)
            if error > DIRECTION_TOL_DEG:
                fails.append((stem, f"intensity points {error:.1f} deg off the source"))
    if count == sum(extract_frames(c["n_samples"]) for c in clips):
        # stats were fitted on exactly these clips, so the set is standardized
        mean = total / count
        var = total_sq / count - mean * mean
        if np.max(np.abs(mean)) > 1e-3 or np.max(np.abs(var - 1.0)) > 1e-3:
            fails += [(c["stem"], "normalized set is not zero-mean unit-variance")
                      for c in clips]
    return fails, observed


# --------------------------------------------------------------- evaluate

def _csv_rows(path):
    return [line.split(",") for line in Path(path).read_text(encoding="utf-8").split()]


def check_evaluate(clip_dir, clip, recorded, exit_codes):
    op = Path(clip_dir).name
    fails = [(op, f"{name} exited {rc}") for name, rc in exit_codes.items() if rc != 0]
    observed = {}
    try:
        decoded = sorted([int(f), int(c), int(az), int(el)]
                         for f, c, _, az, el in _csv_rows(Path(clip_dir) / "avg.csv"))
        if decoded != clip["decoded"]:
            fails.append((op, "ensemble decode differs from the generated predictions"))

        sweep_text = (Path(clip_dir) / "sweep.csv").read_text(encoding="utf-8")
        rows = [[float(v) for v in row] for row in _csv_rows(Path(clip_dir) / "sweep.csv")[1:]]
        if [r[0] for r in rows] != [0.3, 0.5, 0.7] or not all(_scores_valid(*r[1:]) for r in rows):
            fails.append((op, "sweep rows out of range"))
        elif not rows[0][4] >= rows[1][4] >= rows[2][4]:
            fails.append((op, "sweep LR rises with the threshold"))

        score_text = (Path(clip_dir) / "score.csv").read_text(encoding="utf-8")
        fields = dict(row[:2] for row in _csv_rows(Path(clip_dir) / "score.csv")[1:])
        if not _scores_valid(*(float(fields[k]) for k in ("er", "f1", "le", "lr"))):
            fails.append((op, "scores out of range"))
        counts = {}
        for key, value in fields.items():
            if key.startswith("class_"):
                parts = dict(item.split("=") for item in value.split(";"))
                counts[key[6:]] = [int(parts["matched"]), int(parts["refs"])]
        if counts != clip["matched_refs"]:
            fails.append((op, "matched/reference counts differ from the generated cells"))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return fails + [(op, f"unreadable output: {exc!r}")], observed
    observed = {"sweep": sweep_text, "score": score_text}
    if recorded and observed != recorded:
        fails.append((op, "scores differ from recorded values"))
    return fails, observed


def _scores_valid(er, f1, le, lr):
    return er >= 0 and 0 <= f1 <= 100 and 0 <= le <= 180 and 0 <= lr <= 100


# ------------------------------------------------------------- train_feed

def step_digest(feats, labels):
    """Bit-level fingerprint of an augmented pair, dtype and shape included."""
    h = hashlib.sha256()
    for arr in (feats, labels):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def se_summary(y, grads):
    """Sums of |.| and squares of the SE output and every gradient."""
    out = []
    for arr in (y, *grads):
        out += [float(np.abs(arr).sum()), float((arr * arr).sum())]
    return [float(f"{v:.12g}") for v in out]  # 12 digits hold SE_RTOL with room


def check_step(op, feats, labels, n_frames, observed, references):
    """observed = {"digest", "se"}; references are the recorded result and the
    run's first result for the same config, either of which may be None."""
    fails = []
    if feats.shape != (7, 200, n_frames) or labels.shape[2] * 8 != n_frames:
        fails.append((op, f"augmented shapes {feats.shape} / {labels.shape}"))
    elif not (np.all(np.isfinite(feats)) and np.all(np.isfinite(labels))):
        fails.append((op, "non-finite augmented values"))
    else:
        norms = np.linalg.norm(labels, axis=0)
        if not np.all((norms == 0) | (np.abs(norms - 1.0) < 1e-6)):
            fails.append((op, "augmented label vectors are neither zero nor unit"))
    for reference in references:
        if reference is None:
            continue
        if observed["digest"] != reference["digest"]:
            fails.append((op, "augment output is not bit-identical"))
        if not _close(observed["se"], reference["se"], SE_RTOL):
            fails.append((op, "SE output or gradients differ"))
    return fails


def directional_check(forward, backward, relu_inputs, x, rng):
    """Central difference of L = ||y||^2 / 2 along a random direction vs <grad, v>.

    Returns the error in units of what rounding allows, so above 1 fails.
    A ReLU input crossing zero inside the step spoils the difference, so
    the step shrinks until no ReLU input changes sign across it; below 1e-8
    rounding takes over and the point is skipped (returns 0.0).
    """
    v = rng.standard_normal(x.shape)
    signs = np.sign(relu_inputs(x))
    eps = 1e-6
    while not all(np.array_equal(np.sign(relu_inputs(x + s * eps * v)), signs) for s in (1, -1)):
        eps /= 10
        if eps < 1e-8:
            return 0.0
    hi, lo = (0.5 * np.sum(forward(x + s * eps * v) ** 2) for s in (1, -1))
    numeric = (hi - lo) / (2 * eps)
    analytic = float(np.sum(backward(x, forward(x)) * v))
    # each loss is a pairwise sum of ~1e6 squares, good to a few dozen ulps
    allowed = 1e-6 * abs(analytic) + 64 * np.finfo(float).eps * max(hi, lo) / eps
    return abs(numeric - analytic) / allowed
