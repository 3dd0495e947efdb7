"""Segment-based joint localization/detection scores.

Events are pooled into 1-second segments (10 label frames). Within each
(segment, class) cell, predicted and reference DoAs are paired by a
minimum-total-angle assignment; pairs under the 20 degree threshold are
location-dependent true positives, pairs at or beyond it count one FP and
one FN each (a substitution). The error rate ER sums max(FP, FN) over
segments and divides by the reference count. F1, localization error LE
and localization recall LR are each a per-class ratio (2TP / (2TP + FP +
FN), angle sum / matched pairs, matched pairs / references) under one
averaging rule: macro (the default) takes the mean of the class ratios,
micro the ratio of the class sums. LE and LR ignore the 20 degree gate:
they score every matched pair, which is what makes them class-dependent
rather than location-dependent.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .accdoa import _row_norms, _unit_vectors, decode
from .errors import ZeroVector

SEGMENT_LABEL_FRAMES = 10
SPATIAL_THRESHOLD_DEG = 20.0

_EPS_NORM = 1e-9
_NO_VECTORS = np.empty((0, 3))


@dataclass
class ClassCounts:
    """Per-class tallies accumulated over all segments."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    n_matched: int = 0
    n_refs: int = 0
    angle_sum: float = 0.0


@dataclass(frozen=True)
class SeldScores:
    """er is a ratio, f1/lr percentages, le degrees.

    er_undefined marks the degenerate case of zero reference events, where
    ER's denominator vanishes and 0.0 is reported by convention.
    """

    er: float
    f1: float
    le: float
    lr: float
    er_undefined: bool = False
    per_class: dict = field(default_factory=dict)


def angular_distance(v1, v2) -> float:
    """Great-circle angle between two direction vectors, in degrees."""
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    return float(_angle_matrix(a[None], b[None])[0, 0])


def _angle_matrix(a, b) -> np.ndarray:
    """(P, R) great-circle angles in degrees between the rows of a (P, 3)
    and b (R, 3), the array form of angular_distance.

    Each dot product is its own stacked 1x3 @ 3x1 matmul, which rounds like
    np.dot of the two rows; a @ b.T becomes a BLAS gemv when P or R is 1
    and can differ in the last bit.
    """
    na = _row_norms(a)
    nb = _row_norms(b)
    if (na < _EPS_NORM).any() or (nb < _EPS_NORM).any():
        raise ZeroVector("cannot measure an angle to a zero vector")
    dots = np.matmul(a[:, None, None, :], b[None, :, :, None])[:, :, 0, 0]
    cos = np.clip(dots / (na[:, None] * nb[None, :]), -1.0, 1.0)
    return np.rad2deg(np.arccos(cos))


def segment_events(events, segment_len: int = SEGMENT_LABEL_FRAMES) -> dict:
    """Group events into (segment, class) cells of deduplicated DoAs.

    Returns {(segment, class_id): sorted unique (azimuth, elevation)}; a
    source holding one direction across a whole segment contributes a
    single DoA to its cell.
    """
    cells = defaultdict(set)
    for ev in events:
        cells[(ev.frame // segment_len, ev.class_id)].add((ev.azimuth, ev.elevation))
    return {cell: sorted(doas) for cell, doas in cells.items()}


def match_cell(pred_doas, ref_doas) -> tuple:
    """Minimum-total-angle assignment between two DoA lists.

    Returns (pairs, n_unmatched_pred, n_unmatched_ref) where pairs is a
    list of (pred_index, ref_index, angle_degrees); min(P, R) pairs are
    always formed, however far apart they are.
    """
    if not pred_doas or not ref_doas:
        return [], len(pred_doas), len(ref_doas)
    return _match_vectors(_unit_vectors(pred_doas), _unit_vectors(ref_doas))


def _match_vectors(pred_vecs, ref_vecs) -> tuple:
    """match_cell over (P, 3) and (R, 3) unit-vector arrays."""
    if not len(pred_vecs) or not len(ref_vecs):
        return [], len(pred_vecs), len(ref_vecs)
    cost = _angle_matrix(pred_vecs, ref_vecs)
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols)]
    return pairs, len(pred_vecs) - len(pairs), len(ref_vecs) - len(pairs)


def _vector_cells(events, segment_len: int) -> dict:
    """segment_events with each cell's DoAs as a (n, 3) unit-vector array.

    All DoAs of the call are converted in one _unit_vectors call, so an
    elevation outside [-90, 90] anywhere among the events is rejected.
    """
    cells = segment_events(events, segment_len)
    vecs = _unit_vectors([doa for doas in cells.values() for doa in doas])
    ends = np.cumsum([len(doas) for doas in cells.values()], dtype=int)
    return dict(zip(cells, np.split(vecs, ends[:-1])))


def compute_seld_scores(preds, refs,
                        spatial_threshold: float = SPATIAL_THRESHOLD_DEG,
                        segment_len: int = SEGMENT_LABEL_FRAMES,
                        average: str = "macro") -> SeldScores:
    """Score predicted events against references.

    Empty references leave ER without a denominator: er is then 0.0 with
    er_undefined set. When both sides are empty every score is perfect by
    convention (0, 100, 0, 100). Each (segment, class) cell is matched on
    one angle matrix built from its unit vectors in one array expression.
    """
    return _reference_scorer(refs, spatial_threshold, segment_len, average)(preds)


def threshold_sweep(accdoa_pred, refs, thresholds=(0.3, 0.5, 0.7),
                    **score_kwargs) -> list:
    """Decode a prediction tensor at each threshold and score it.

    The references are segmented and converted to unit vectors once for
    all thresholds. Returns [(threshold, SeldScores)] in the given
    threshold order.
    """
    score = _reference_scorer(refs, **score_kwargs)
    return [(thr, score(decode(accdoa_pred, thr))) for thr in thresholds]


def _reference_scorer(refs, spatial_threshold: float = SPATIAL_THRESHOLD_DEG,
                      segment_len: int = SEGMENT_LABEL_FRAMES,
                      average: str = "macro"):
    """Segment and convert refs once; return preds -> SeldScores."""
    if average not in ("macro", "micro"):
        raise ValueError(f"average must be 'macro' or 'micro', got {average!r}")
    ref_cells = _vector_cells(refs, segment_len)

    def score(preds) -> SeldScores:
        pred_cells = _vector_cells(preds, segment_len)
        per_class = defaultdict(ClassCounts)
        per_segment = defaultdict(lambda: [0, 0])  # fp, fn
        for cell in set(pred_cells) | set(ref_cells):
            segment, class_id = cell
            p = pred_cells.get(cell, _NO_VECTORS)
            r = ref_cells.get(cell, _NO_VECTORS)
            pairs, unmatched_p, unmatched_r = _match_vectors(p, r)
            tp = sum(1 for _, _, angle in pairs if angle < spatial_threshold)
            far = len(pairs) - tp
            counts = per_class[class_id]
            counts.tp += tp
            counts.fp += unmatched_p + far
            counts.fn += unmatched_r + far
            counts.n_matched += len(pairs)
            counts.n_refs += len(r)
            counts.angle_sum += sum(angle for _, _, angle in pairs)
            seg = per_segment[segment]
            seg[0] += unmatched_p + far
            seg[1] += unmatched_r + far

        # per segment, S = min(fp, fn) substitutions, fn - S deletions and
        # fp - S insertions add up to max(fp, fn) errors
        errors = sum(max(fp, fn) for fp, fn in per_segment.values())
        classes = per_class.values()
        total_refs = sum(c.n_refs for c in classes)
        er_undefined = total_refs == 0
        er = 0.0 if er_undefined else errors / total_refs
        f1 = _average([2 * c.tp for c in classes],
                      [2 * c.tp + c.fp + c.fn for c in classes],
                      average, 100.0, empty=100.0)
        le = _average([c.angle_sum for c in classes],
                      [c.n_matched for c in classes],
                      average, 1.0, empty=180.0 if per_class else 0.0)
        lr = _average([c.n_matched for c in classes],
                      [c.n_refs for c in classes],
                      average, 100.0, empty=100.0)
        return SeldScores(er, f1, le, lr, er_undefined, dict(per_class))

    return score


def format_scores_line(scores: SeldScores) -> str:
    return (
        f"ER {scores.er:.2f} F1 {scores.f1:.1f} "
        f"LE {scores.le:.1f} LR {scores.lr:.1f}"
    )


def format_sweep_table(rows) -> str:
    """Aligned text table over (threshold, SeldScores) rows."""
    lines = [f"{'thr':>5} {'ER':>6} {'F1':>6} {'LE':>7} {'LR':>6}"]
    for thr, scores in rows:
        lines.append(
            f"{thr:>5.2f} {scores.er:>6.2f} {scores.f1:>6.1f} "
            f"{scores.le:>7.1f} {scores.lr:>6.1f}"
        )
    return "\n".join(lines)


def scores_to_csv(scores: SeldScores) -> str:
    """Flat metric,value rows; per-class rows keyed by class id."""
    lines = [
        "metric,value",
        f"er,{scores.er:.6f}",
        f"f1,{scores.f1:.6f}",
        f"le,{scores.le:.6f}",
        f"lr,{scores.lr:.6f}",
        f"er_undefined,{int(scores.er_undefined)}",
    ]
    for class_id in sorted(scores.per_class):
        c = scores.per_class[class_id]
        lines.append(
            f"class_{class_id},tp={c.tp};fp={c.fp};fn={c.fn};"
            f"matched={c.n_matched};refs={c.n_refs}"
        )
    return "\n".join(lines) + "\n"


def _average(nums, dens, average: str, scale: float, empty: float) -> float:
    """scale * num/den per class, aggregated over the classes with den > 0.

    micro takes the ratio of the summed numerators and denominators, macro
    the mean of the per-class ratios; empty is returned when no class has
    a denominator. The micro sums use Python's sum() in class order, and
    scale multiplies the summed numerator before the division: np.sum's
    pairwise order, or scaling the quotient, rounds differently, and the
    reported scores are pinned to these bits.
    """
    if average == "micro":
        den = sum(dens)
        return scale * sum(nums) / den if den else empty
    shares = [num / den for num, den in zip(nums, dens) if den]
    return scale * float(np.mean(shares)) if shares else empty
