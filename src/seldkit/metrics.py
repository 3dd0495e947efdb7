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

The public functions take events as a dataset_io.Events, the columns that
read_label_csv and decode return, or as any iterable of Event. All cells
of a call are grouped by one sort, their cost entries come from one
stacked matmul, and the tallies from bincount.
The float sums run in a fixed order: each class's angle sum adds its
matched angles cell by cell in segment order (pred row order within a
cell), and macro means and micro sums take the classes in ascending id.
ER and every count are exact; F1, LE and LR depend on that order only in
their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accdoa import _EPS_NORM, _row_norms, _unit_vectors, decode
from .dataset_io import Events, _first_of_runs, _sorted_unique
from .errors import SeldkitError, ZeroVector

SEGMENT_LABEL_FRAMES = 10
SPATIAL_THRESHOLD_DEG = 20.0

_SWEEP_THRESHOLDS = (0.3, 0.5, 0.7)


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
    a = np.asarray(v1, dtype=np.float64)[None]
    b = np.asarray(v2, dtype=np.float64)[None]
    na, nb = _row_norms(a), _row_norms(b)
    if (na < _EPS_NORM).any() or (nb < _EPS_NORM).any():
        raise ZeroVector("cannot measure an angle to a zero vector")
    return float(_angles(a, na, b, nb)[0])


def _angles(a, na, b, nb) -> np.ndarray:
    """Great-circle angles in degrees between matching rows of a and b,
    given their norms.

    Each dot product is its own stacked 1x3 @ 3x1 matmul, which rounds like
    np.dot of the two rows; a (P, 3) @ (3, R) product becomes a BLAS gemv
    when P or R is 1 and can differ in the last bit.
    """
    dots = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    return np.rad2deg(np.arccos(np.clip(dots / (na * nb), -1.0, 1.0)))


def segment_events(events, segment_len: int = SEGMENT_LABEL_FRAMES) -> dict:
    """Group events into (segment, class) cells of deduplicated DoAs.

    Returns {(segment, class_id): sorted unique (azimuth, elevation)}; a
    source holding one direction across a whole segment contributes a
    single DoA to its cell.
    """
    segment, class_id, az, el = _segment_columns(Events.of(events), segment_len)
    cells = {}
    for cell_doa in zip(segment.tolist(), class_id.tolist(), az.tolist(), el.tolist()):
        cells.setdefault(cell_doa[:2], []).append(cell_doa[2:])
    return cells


def match_cell(pred_doas, ref_doas) -> tuple:
    """Minimum-total-angle assignment between two DoA lists.

    Returns (pairs, n_unmatched_pred, n_unmatched_ref) where pairs is a
    list of (pred_index, ref_index, angle_degrees); min(P, R) pairs are
    always formed, however far apart they are.
    """
    if not pred_doas or not ref_doas:
        return [], len(pred_doas), len(ref_doas)
    pred, ref = _unit_vectors(pred_doas), _unit_vectors(ref_doas)
    _, i, j, angle = _match_cells((pred, _row_norms(pred), np.array([len(pred)])),
                                  (ref, _row_norms(ref), np.array([len(ref)])))
    pairs = list(zip(i.tolist(), j.tolist(), angle.tolist()))
    return pairs, len(pred) - len(pairs), len(ref) - len(pairs)


def _segment_columns(events: Events, segment_len: int) -> tuple:
    """(segment, class_id, azimuth, elevation) of the distinct DoAs of each
    (segment, class) cell, sorted by segment, class, azimuth, elevation."""
    if not segment_len >= 1:
        raise SeldkitError(f"segment_len must be at least 1, got {segment_len}")
    return _sorted_unique(events.frame // segment_len, events.class_id,
                          events.azimuth, events.elevation)


def _match_cells(pred, ref) -> tuple:
    """Minimum-total-angle assignments of many cells at once.

    pred and ref are (unit vectors, their norms, DoAs per cell) over the
    same cells; each side's vectors run cell by cell. Every cost entry of
    every cell comes out of one stacked matmul. A 1 x R or P x 1 cell takes
    its first minimum, the pair linear_sum_assignment picks there too;
    larger cells are solved by linear_sum_assignment one at a time.
    Returns (cell, pred row in cell, ref row in cell, angle) arrays of the
    pairs, by cell and then pred row.
    """
    (p_vecs, p_norms, n_p), (r_vecs, r_norms, n_r) = pred, ref
    size = n_p * n_r
    first = np.cumsum(size) - size
    entry_cell = np.repeat(np.arange(len(size)), size)
    i, j = np.divmod(np.arange(len(entry_cell)) - first[entry_cell], n_r[entry_cell])
    pi = i + (np.cumsum(n_p) - n_p)[entry_cell]
    ri = j + (np.cumsum(n_r) - n_r)[entry_cell]
    cost = _angles(np.take(p_vecs, pi, axis=0), p_norms[pi],
                   np.take(r_vecs, ri, axis=0), r_norms[ri])
    if not np.isfinite(cost).all():  # a nan would mispair the line cells
        raise ValueError("matrix contains invalid numeric entries")

    solved = size > 0
    low = np.repeat(np.minimum.reduceat(cost, first[solved]), size[solved])
    at_low = np.flatnonzero(cost == low)
    line = (n_p[solved] == 1) | (n_r[solved] == 1)
    picks = [at_low[np.searchsorted(at_low, first[solved][line])]]
    square = solved & (n_p > 1) & (n_r > 1)
    if square.any():
        # imported here, so a run that never meets such a cell loads no scipy.optimize
        from scipy.optimize import linear_sum_assignment

        starts, n_rows, n_cols = first[square], n_p[square], n_r[square]
        rows, cols = zip(*(
            linear_sum_assignment(cost[f:f + p * r].reshape(p, r))
            for f, p, r in zip(starts.tolist(), n_rows.tolist(), n_cols.tolist())
        ))
        n_pairs = np.minimum(n_rows, n_cols)
        picks.append(np.repeat(starts, n_pairs) + np.concatenate(rows)
                     * np.repeat(n_cols, n_pairs) + np.concatenate(cols))
    pos = np.sort(np.concatenate(picks))
    return entry_cell[pos], i[pos], j[pos], cost[pos]


def compute_seld_scores(preds, refs,
                        spatial_threshold: float = SPATIAL_THRESHOLD_DEG,
                        segment_len: int = SEGMENT_LABEL_FRAMES,
                        average: str = "macro") -> SeldScores:
    """Score predicted events against references, each an Events or an
    iterable of Event.

    Empty references leave ER without a denominator: er is then 0.0 with
    er_undefined set. When both sides are empty every score is perfect by
    convention (0, 100, 0, 100).
    """
    scorer = _reference_scorer(Events.of(refs), spatial_threshold,
                               segment_len, average)
    return scorer(Events.of(preds))


def threshold_sweep(accdoa_pred, refs, thresholds=_SWEEP_THRESHOLDS,
                    **score_kwargs) -> list:
    """Decode a prediction tensor at each threshold and score it.

    The references are segmented and converted to unit vectors once for
    all thresholds. Returns [(threshold, SeldScores)] in the given
    threshold order.
    """
    score = _reference_scorer(Events.of(refs), **score_kwargs)
    return [(thr, score(decode(accdoa_pred, thr))) for thr in thresholds]


def _reference_scorer(refs, spatial_threshold: float = SPATIAL_THRESHOLD_DEG,
                      segment_len: int = SEGMENT_LABEL_FRAMES,
                      average: str = "macro"):
    """Segment and convert the reference Events once; return a function
    from prediction Events to SeldScores."""
    if average not in ("macro", "micro"):
        raise SeldkitError(f"average must be 'macro' or 'micro', got {average!r}")
    ref_segment, ref_class, ref_vecs = _cell_vectors(refs, segment_len)
    ref_norms = _row_norms(ref_vecs)

    def score(preds) -> SeldScores:
        pred_segment, pred_class, pred_vecs = _cell_vectors(preds, segment_len)
        cell_segment, cell_class, n_p, n_r = _cells_of_both(
            (pred_segment, pred_class), (ref_segment, ref_class))
        pair_cell, _, _, angle = _match_cells(
            (pred_vecs, _row_norms(pred_vecs), n_p), (ref_vecs, ref_norms, n_r))

        tp = np.bincount(pair_cell[angle < spatial_threshold],
                         minlength=len(cell_segment))
        fp, fn = n_p - tp, n_r - tp
        # per segment, S = min(fp, fn) substitutions, fn - S deletions and
        # fp - S insertions add up to max(fp, fn) errors
        seg_starts = np.flatnonzero(_first_of_runs(cell_segment))
        errors = int(np.maximum(np.add.reduceat(fp, seg_starts),
                                np.add.reduceat(fn, seg_starts)).sum())
        class_ids, cell_k = np.unique(cell_class, return_inverse=True)

        def by_class(values):
            return np.bincount(cell_k, values, len(class_ids)).astype(np.int64).tolist()

        # bincount adds in array order: each class's angles by segment, and
        # within a cell by pred row
        per_class = {
            class_id: ClassCounts(*counts) for class_id, *counts in zip(
                class_ids.tolist(), by_class(tp), by_class(fp), by_class(fn),
                by_class(np.minimum(n_p, n_r)), by_class(n_r),
                np.bincount(cell_k[pair_cell], angle, len(class_ids))
                .astype(np.float64).tolist())
        }
        classes = per_class.values()
        total_refs = len(ref_vecs)
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
        return SeldScores(er, f1, le, lr, er_undefined, per_class)

    return score


def _cells_of_both(pred, ref) -> tuple:
    """The (segment, class) cells either side's (segment, class_id) columns
    reach, by segment and then class: (segment, class_id, pred DoAs, ref
    DoAs) per cell. Each side's rows must run cell by cell in this order,
    as _segment_columns leaves them, for the counts to index its rows."""
    segment, class_id = (np.concatenate(cols) for cols in zip(pred, ref))
    order = np.lexsort((class_id, segment))
    starts = _first_of_runs(segment[order], class_id[order])
    cell_of = np.empty(len(order), dtype=np.intp)
    cell_of[order] = np.cumsum(starts) - 1
    n_cells = np.count_nonzero(starts)
    n_pred = len(pred[0])
    return (segment[order][starts], class_id[order][starts],
            np.bincount(cell_of[:n_pred], minlength=n_cells),
            np.bincount(cell_of[n_pred:], minlength=n_cells))


def _cell_vectors(events: Events, segment_len: int) -> tuple:
    """(segment, class_id, unit vectors) of each cell's distinct DoAs, as
    sorted by _segment_columns.

    All DoAs of the call are converted at once, so an elevation outside
    [-90, 90] anywhere among the events is rejected.
    """
    segment, class_id, az, el = _segment_columns(events, segment_len)
    return segment, class_id, _unit_vectors(np.stack((az, el), axis=-1))


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


def sweep_to_csv(rows) -> str:
    """threshold,er,f1,le,lr rows over (threshold, SeldScores) rows."""
    return "threshold,er,f1,le,lr\n" + "".join(
        f"{thr},{s.er:.6f},{s.f1:.6f},{s.le:.6f},{s.lr:.6f}\n" for thr, s in rows
    )


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
