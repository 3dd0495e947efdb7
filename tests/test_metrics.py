"""Tests for the segment-based localization/detection scores."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

import helpers
import oracles
from seldkit import (
    Event,
    Events,
    compute_seld_scores,
    decode,
    doa_to_unit_vector,
    encode,
    enumerate_swap_patterns,
    segment_events,
    threshold_sweep,
)
from seldkit import cli
from seldkit.accdoa import _row_norms
from seldkit.dataset_io import read_label_csv, write_feature_file, write_label_csv
from seldkit.errors import ElevationOutOfRange, SeldkitError
from seldkit.metrics import (
    SeldScores,
    _angles,
    _assign,
    _cost_entries,
    format_scores_line,
    format_sweep_table,
    scores_to_csv,
    sweep_to_csv,
)


def deduped(events):
    """Keep the first event per (frame, class) cell."""
    seen = set()
    out = []
    for ev in events:
        key = (ev.frame, ev.class_id)
        if key not in seen:
            seen.add(key)
            out.append(ev)
    return out


def match_cells(pred, ref):
    """(cell, pred row in cell, ref row in cell, angle) arrays of the pairs
    the scorer forms in cells of (unit vectors, norms, DoAs per cell)."""
    cell, pi, ri, cost = _cost_entries(pred, ref)
    pos = _assign(cost, pred[2], ref[2])
    cell = cell[pos]
    return (cell, pi[pos] - (np.cumsum(pred[2]) - pred[2])[cell],
            ri[pos] - (np.cumsum(ref[2]) - ref[2])[cell], cost[pos])


def match_one_cell(preds, refs):
    """[(pred row, ref row, angle)] of the pairs the scorer forms in one
    cell of (azimuth, elevation) DoA lists."""
    def side(doas):
        vecs = doa_to_unit_vector(np.reshape(doas, (-1, 2)))
        return vecs, _row_norms(vecs), np.array([len(vecs)])

    _, i, j, angle = match_cells(side(preds), side(refs))
    return list(zip(i.tolist(), j.tolist(), angle.tolist()))


def angle(doa_a, doa_b):
    """The scorer's great-circle angle between two DoAs, in degrees."""
    return match_one_cell([doa_a], [doa_b])[0][2]


class TestAngularDistance:
    def test_axis_cases(self):
        assert angle((0, 0), (0, 0)) == 0.0
        assert_allclose(angle((0, 0), (90, 0)), 90.0, rtol=1e-12)
        assert_allclose(angle((0, 0), (180, 0)), 180.0, rtol=1e-12)
        assert_allclose(angle((0, 0), (45, 0)), 45.0, rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 50, 3))
        keep = np.minimum(_row_norms(a), _row_norms(b)) >= 1e-3
        a, b = a[keep], b[keep]
        assert_allclose(
            _angles(a, _row_norms(a), b, _row_norms(b)),
            _angles(3.0 * a, _row_norms(3.0 * a), 0.25 * b, _row_norms(0.25 * b)),
            atol=1e-10,
        )

    def test_near_parallel_vectors_stay_finite(self):
        got = angle((0.0, 0.0), (float(np.rad2deg(1e-9)), 0.0))
        assert np.isfinite(got)
        assert got < 1e-5

    def test_matches_doa_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            doa_a = (float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            doa_b = (float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            assert_allclose(angle(doa_a, doa_b), oracles.angle_between(doa_a, doa_b),
                            atol=1e-9)


class TestSegmentEvents:
    def test_ten_frame_boundaries(self):
        events = [Event(0, 1, 10.0, 0.0), Event(9, 1, 20.0, 0.0),
                  Event(10, 1, 30.0, 0.0)]
        cells = segment_events(events)
        assert set(cells) == {(0, 1), (1, 1)}
        assert cells[(0, 1)] == [(10.0, 0.0), (20.0, 0.0)]
        assert cells[(1, 1)] == [(30.0, 0.0)]

    def test_deduplicates_within_cell(self):
        events = [Event(0, 2, 10.0, 5.0), Event(3, 2, 10.0, 5.0),
                  Event(7, 2, 10.0, 6.0)]
        cells = segment_events(events)
        assert cells[(0, 2)] == [(10.0, 5.0), (10.0, 6.0)]

    def test_classes_separate(self):
        events = [Event(0, 1, 10.0, 0.0), Event(0, 2, 10.0, 0.0)]
        assert set(segment_events(events)) == {(0, 1), (0, 2)}


class TestMatchCell:
    def test_empty_sides(self):
        assert match_one_cell([], []) == []
        assert match_one_cell([(0.0, 0.0)], []) == []
        assert match_one_cell([], [(0.0, 0.0), (1.0, 0.0)]) == []

    def test_single_pair(self):
        pairs = match_one_cell([(10.0, 0.0)], [(40.0, 0.0)])
        assert len(pairs) == 1
        assert pairs[0][:2] == (0, 0)
        assert_allclose(pairs[0][2], 30.0, rtol=1e-12)

    def test_crossed_pairs_take_the_cheaper_assignment(self):
        preds = [(0.0, 0.0), (20.0, 0.0)]
        refs = [(25.0, 0.0), (5.0, 0.0)]
        pairs = match_one_cell(preds, refs)
        assert sorted((i, j) for i, j, _ in pairs) == [(0, 1), (1, 0)]
        assert_allclose(sorted(a for _, _, a in pairs), [5.0, 5.0], rtol=1e-12)

    def test_rectangular_cells(self):
        preds = [(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)]
        refs = [(92.0, 0.0)]
        pairs = match_one_cell(preds, refs)
        assert [pair[:2] for pair in pairs] == [(1, 0)]
        assert_allclose(pairs[0][2], 2.0, rtol=1e-10)

    def test_total_angle_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_p = int(rng.integers(1, 6))
            n_r = int(rng.integers(1, 6))
            preds = [(float(rng.uniform(-180, 180)), float(rng.uniform(-89, 89)))
                     for _ in range(n_p)]
            refs = [(float(rng.uniform(-180, 180)), float(rng.uniform(-89, 89)))
                    for _ in range(n_r)]
            pairs = match_one_cell(preds, refs)
            cost = np.array([
                [oracles.angle_between(p, r) for r in refs] for p in preds
            ])
            best_total, _ = oracles.brute_force_assignment(cost)
            assert_allclose(sum(a for _, _, a in pairs), best_total, atol=1e-9)


class TestHandScores:
    def test_perfect_match(self):
        rng = np.random.default_rng(4)
        refs = helpers.random_events(rng, n_frames=30, max_events=10)
        while not refs:
            refs = helpers.random_events(rng, n_frames=30, max_events=10)
        scores = compute_seld_scores(refs, refs)
        assert scores.er == 0.0
        assert scores.f1 == 100.0
        assert scores.le < 1e-9
        assert scores.lr == 100.0
        assert not scores.er_undefined

    def test_both_empty(self):
        scores = compute_seld_scores([], [])
        assert (scores.er, scores.f1, scores.le, scores.lr) == \
            (0.0, 100.0, 0.0, 100.0)
        assert scores.er_undefined

    def test_empty_predictions(self):
        refs = [Event(0, 1, 30.0, 0.0), Event(12, 4, -50.0, 10.0)]
        scores = compute_seld_scores([], refs)
        assert scores.er == 1.0
        assert scores.f1 == 0.0
        assert scores.le == 180.0
        assert scores.lr == 0.0
        assert not scores.er_undefined

    def test_empty_references(self):
        preds = [Event(0, 1, 30.0, 0.0)]
        scores = compute_seld_scores(preds, [])
        assert scores.er == 0.0
        assert scores.er_undefined
        assert scores.f1 == 0.0
        assert scores.le == 180.0
        assert scores.lr == 100.0

    def test_single_substitution_at_25_degrees(self):
        refs = [Event(0, 3, 0.0, 0.0)]
        preds = [Event(0, 3, 25.0, 0.0)]
        scores = compute_seld_scores(preds, refs)
        assert scores.er == 1.0
        assert scores.f1 == 0.0
        assert_allclose(scores.le, 25.0, rtol=1e-12)
        assert scores.lr == 100.0

    def test_threshold_is_strict(self):
        refs = [Event(0, 0, 0.0, 0.0)]
        hit = compute_seld_scores([Event(0, 0, 19.9, 0.0)], refs)
        assert (hit.er, hit.f1) == (0.0, 100.0)
        miss = compute_seld_scores([Event(0, 0, 20.1, 0.0)], refs)
        assert (miss.er, miss.f1) == (1.0, 0.0)

    def test_missed_second_source(self):
        refs = [Event(0, 0, 0.0, 0.0), Event(0, 0, 90.0, 0.0)]
        preds = [Event(0, 0, 1.0, 0.0)]
        scores = compute_seld_scores(preds, refs)
        assert scores.er == 0.5
        assert_allclose(scores.f1, 200.0 / 3.0, rtol=1e-12)
        assert_allclose(scores.le, 1.0, rtol=1e-9)
        assert scores.lr == 50.0
        counts = scores.per_class[0]
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)
        assert (counts.n_matched, counts.n_refs) == (1, 2)

    def test_macro_vs_micro_f1(self):
        # class 0: three exact hits; class 1: one substitution
        refs = [Event(0, 0, 0.0, 0.0), Event(10, 0, 10.0, 0.0),
                Event(20, 0, 20.0, 0.0), Event(0, 1, 0.0, 0.0)]
        preds = [Event(0, 0, 0.0, 0.0), Event(10, 0, 10.0, 0.0),
                 Event(20, 0, 20.0, 0.0), Event(0, 1, 120.0, 0.0)]
        macro = compute_seld_scores(preds, refs, average="macro")
        micro = compute_seld_scores(preds, refs, average="micro")
        assert macro.f1 == 50.0
        assert micro.f1 == 75.0
        # ER is micro by construction and unchanged by the toggle;
        # one substitution against four reference events
        assert macro.er == micro.er == 0.25

    def test_macro_vs_micro_le_lr(self):
        # class 0: matches at 10 and 30 degrees; class 1: one at 80,
        # plus two misses so the per-class recall shares have
        # different weights
        refs = [Event(0, 0, 0.0, 0.0), Event(10, 0, 0.0, 0.0),
                Event(20, 1, 0.0, 0.0), Event(30, 1, 0.0, 0.0),
                Event(40, 1, 0.0, 0.0)]
        preds = [Event(0, 0, 10.0, 0.0), Event(10, 0, 30.0, 0.0),
                 Event(20, 1, 80.0, 0.0)]
        macro = compute_seld_scores(preds, refs, average="macro")
        micro = compute_seld_scores(preds, refs, average="micro")
        assert_allclose(macro.le, (20.0 + 80.0) / 2.0, rtol=1e-12)
        assert_allclose(micro.le, (10.0 + 30.0 + 80.0) / 3.0, rtol=1e-12)
        assert_allclose(macro.lr, 100.0 * (1.0 + 1.0 / 3.0) / 2.0, rtol=1e-12)
        assert_allclose(micro.lr, 100.0 * 3.0 / 5.0, rtol=1e-12)

    def test_duplicate_frames_collapse_within_segment(self):
        # the same DoA held over a whole segment counts once
        refs = [Event(f, 2, 45.0, 10.0) for f in range(10)]
        preds = [Event(0, 2, 45.0, 10.0)]
        scores = compute_seld_scores(preds, refs)
        assert scores.er == 0.0
        assert scores.f1 == 100.0
        assert scores.lr == 100.0

    def test_average_validation(self):
        with pytest.raises(ValueError):
            compute_seld_scores([], [], average="weighted")

    def test_bad_average_is_an_input_error(self):
        events = [Event(0, 0, 0.0, 0.0)]
        with pytest.raises(SeldkitError, match="average must be"):
            compute_seld_scores(events, events, average="weighted")
        with pytest.raises(SeldkitError, match="average must be"):
            threshold_sweep(encode(events, 1), events, average="weighted")


class TestAgainstBruteForce:
    def test_random_scenes(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            preds = helpers.random_events(rng, n_frames=30, n_classes=5)
            refs = helpers.random_events(rng, n_frames=30, n_classes=5)
            for average in ("macro", "micro"):
                got = compute_seld_scores(preds, refs, average=average)
                want = oracles.brute_force_seld_scores(preds, refs,
                                                       average=average)
                assert_allclose(got.er, want["er"], atol=1e-12)
                assert_allclose(got.f1, want["f1"], atol=1e-9)
                assert_allclose(got.le, want["le"], atol=1e-9)
                assert_allclose(got.lr, want["lr"], atol=1e-9)
                assert got.er_undefined == want["er_undefined"]

    def test_clustered_scenes_stress_the_assignment(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            # pack everything into one class and segment so cells get big
            preds = []
            refs = []
            for i in range(int(rng.integers(1, 5))):
                preds.append(Event(int(rng.integers(0, 10)), 0,
                                   float(rng.uniform(-40, 40)),
                                   float(rng.uniform(-20, 20))))
            for i in range(int(rng.integers(1, 5))):
                refs.append(Event(int(rng.integers(0, 10)), 0,
                                  float(rng.uniform(-40, 40)),
                                  float(rng.uniform(-20, 20))))
            preds = deduped(preds)
            refs = deduped(refs)
            got = compute_seld_scores(preds, refs)
            want = oracles.brute_force_seld_scores(preds, refs)
            assert_allclose(got.er, want["er"], atol=1e-12)
            assert_allclose(got.f1, want["f1"], atol=1e-9)
            assert_allclose(got.le, want["le"], atol=1e-9)
            assert_allclose(got.lr, want["lr"], atol=1e-9)


class TestOneAveragingRule:
    """F1, LE and LR equal, bit for bit, what the three separate macro/micro
    functions they replaced (kept in oracles) give on the same tallies."""

    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_seeded_scenes(self, average):
        rng = np.random.default_rng(11)
        for n_classes in range(1, 14):
            for _ in range(6):
                n_frames = int(rng.integers(10, 80))
                preds = helpers.random_events(rng, n_frames, n_classes, max_events=120)
                refs = helpers.random_events(rng, n_frames, n_classes, max_events=120)
                for p, r in ((preds, refs), (preds, []), ([], refs), ([], [])):
                    got = compute_seld_scores(p, r, average=average)
                    want = oracles.separate_averages(got.per_class, average)
                    assert (got.f1, got.le, got.lr) == want

    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_er_is_pooled_max_of_fp_and_fn(self, average):
        # segment 0: one substitution and one miss (fp 1, fn 2); segment 1:
        # one miss and two insertions (fp 2, fn 1); 3 references in all
        refs = [Event(0, 0, 0.0, 0.0), Event(1, 1, 0.0, 0.0)]
        refs.append(Event(12, 2, 90.0, 0.0))
        preds = [Event(0, 0, 90.0, 0.0), Event(13, 3, 0.0, 0.0),
                 Event(14, 4, 0.0, 0.0)]
        scores = compute_seld_scores(preds, refs, average=average)
        assert scores.er == (2 + 2) / 3


def random_doas(rng, n, clustered=False):
    if clustered:
        return [(float(rng.uniform(-40, 40)), float(rng.uniform(-20, 20)))
                for _ in range(n)]
    return [(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
            for _ in range(n)]


class TestArrayCostMatchesScalar:
    """The array cost matrix and one-cell matching reproduce the per-entry scalar
    angles bit for bit, including the 1-row and 1-column shapes where a
    plain a @ b.T would take a different BLAS path."""

    SHAPES = [(1, 1), (1, 4), (4, 1), (1, 40), (40, 1), (3, 3), (7, 10)]

    @pytest.mark.parametrize("clustered", [False, True])
    def test_cost_matrix_and_pairs(self, clustered):
        rng = np.random.default_rng(31 + clustered)
        shapes = self.SHAPES + [
            (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            for _ in range(40)
        ]
        for n_p, n_r in shapes:
            for _ in range(5):
                preds = random_doas(rng, n_p, clustered)
                refs = random_doas(rng, n_r, clustered)
                want = oracles.scalar_cost_matrix(preds, refs)
                rows, cols = linear_sum_assignment(want)
                assert match_one_cell(preds, refs) == [
                    (int(i), int(j), float(want[i, j])) for i, j in zip(rows, cols)]

    def test_one_row_helpers_match_scalar(self):
        rng = np.random.default_rng(33)
        for p, r in zip(random_doas(rng, 200), random_doas(rng, 200)):
            a, b = doa_to_unit_vector([p])[0], doa_to_unit_vector([r])[0]
            assert np.array_equal(a, oracles._scalar_unit_vector(*p))
            assert angle(p, r) == oracles._scalar_angle(a, b)

    def test_many_cells_at_once_match_cell_by_cell(self):
        # one ragged batch of cells of every shape, empty sides included,
        # pairs the same as matching each cell on its own
        rng = np.random.default_rng(34)
        shapes = [(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                  for _ in range(200)]
        cells = [(random_doas(rng, p, True), random_doas(rng, r, True))
                 for p, r in shapes]

        def side(k):
            vecs = doa_to_unit_vector(np.reshape([d for cell in cells for d in cell[k]],
                                                 (-1, 2)))
            return vecs, _row_norms(vecs), np.array([len(c[k]) for c in cells])

        cell, i, j, angle = match_cells(side(0), side(1))
        got = list(zip(cell.tolist(), i.tolist(), j.tolist(), angle.tolist()))
        want = [(c, *pair) for c, (preds, refs) in enumerate(cells)
                for pair in match_one_cell(preds, refs)]
        assert got == want


class TestLineCellTies:
    """A 1 x R or P x 1 cell is solved by its first minimum, not by
    linear_sum_assignment; on equal angles both pick the same pair."""

    CELLS = [
        ([(0.0, 0.0)], [(10.0, 0.0), (-10.0, 0.0)]),
        ([(10.0, 0.0), (-10.0, 0.0)], [(0.0, 0.0)]),
        ([(0.0, 0.0)], [(30.0, 0.0), (0.0, 5.0), (-30.0, 0.0), (0.0, -5.0)]),
        ([(90.0, 10.0), (90.0, -10.0), (0.0, 0.0)], [(90.0, 0.0)]),
    ]

    @pytest.mark.parametrize("preds, refs", CELLS)
    def test_same_pair_as_linear_sum_assignment(self, preds, refs):
        cost = oracles.scalar_cost_matrix(preds, refs)
        assert np.count_nonzero(cost == cost.min()) > 1  # a real tie
        rows, cols = linear_sum_assignment(cost)
        assert match_one_cell(preds, refs) == [(int(i), int(j), float(cost[i, j]))
                         for i, j in zip(rows, cols)]

    @pytest.mark.parametrize("preds, refs", CELLS)
    def test_scores_match_brute_force(self, preds, refs):
        pred_events = [Event(3, 2, az, el) for az, el in preds]
        ref_events = [Event(5, 2, az, el) for az, el in refs]
        for average in ("macro", "micro"):  # 20 degrees is clear of every angle
            got = compute_seld_scores(pred_events, ref_events, average=average)
            want = oracles.brute_force_seld_scores(pred_events, ref_events,
                                                   average=average)
            assert (got.er, got.f1, got.lr) == (want["er"], want["f1"], want["lr"])
            assert_allclose(got.le, want["le"], rtol=1e-12)


class TestRowOrderInvariance:
    """Scores and report texts depend on the set of label rows, not on
    their order or on repeated rows."""

    @staticmethod
    def rewrite(path, rng, out):
        lines = path.read_text().splitlines(keepends=True)
        lines += [lines[k] for k in rng.integers(0, len(lines), len(lines) // 2)]
        out.write_text("".join(lines[k] for k in rng.permutation(len(lines))))
        return out

    def test_shuffled_and_duplicated_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(45)
        for trial in range(8):
            refs = helpers.random_events(rng, 60, max_events=150,
                                         integer_angles=True)
            preds = [Event(e.frame, e.class_id,
                           float(rng.integers(-180, 180)), e.elevation)
                     if rng.random() < 0.3 else e
                     for e in refs if rng.random() < 0.8]
            preds += helpers.random_events(rng, 60, max_events=30,
                                           integer_angles=True)
            ref_csv, pred_csv = tmp_path / "ref.csv", tmp_path / "pred.csv"
            write_label_csv(refs, ref_csv)
            write_label_csv(sorted(set(preds)), pred_csv)
            tensor = tmp_path / "pred.slsa"
            write_feature_file(
                encode(refs, 60) + rng.normal(0.0, 0.3, (3, 13, 60)), tensor)

            def reports(pred, ref):
                texts = []
                for argv in (["score", str(pred), str(ref)],
                             ["score", str(tensor), str(ref), "--sweep"]):
                    report = tmp_path / "report.csv"
                    assert cli.main([*argv, "--report", str(report)]) == 0
                    texts.append(report.read_text())
                return texts, capsys.readouterr().out

            want = reports(pred_csv, ref_csv)
            want_scores = compute_seld_scores(read_label_csv(pred_csv),
                                              read_label_csv(ref_csv))
            pred_2 = self.rewrite(pred_csv, rng, tmp_path / "pred2.csv")
            ref_2 = self.rewrite(ref_csv, rng, tmp_path / "ref2.csv")
            assert reports(pred_2, ref_2) == want
            assert compute_seld_scores(read_label_csv(pred_2),
                                       read_label_csv(ref_2)) == want_scores


class TestSwapPatternInvariance:
    """The 16 swap patterns are rotations and reflections of the sphere, so
    mapping both sides' DoAs by one of them keeps every angle between them
    and so every score."""

    @staticmethod
    def scene(rng):
        """Random refs and preds, with no pred/ref pair of a cell within
        1e-6 degrees of the 20 degree gate, where rounding could flip it."""
        while True:
            refs = helpers.random_events(rng, 60, max_events=80)
            preds = [Event(e.frame, e.class_id,
                           e.azimuth + float(rng.uniform(-40.0, 40.0)), e.elevation)
                     for e in refs if rng.random() < 0.8]
            preds = sorted(set(preds + helpers.random_events(rng, 60, max_events=20)))
            refs, preds = Events.of(refs), Events.of(preds)
            pred_cells, ref_cells = segment_events(preds), segment_events(refs)
            angles = [angle(p, r) for cell, doas in pred_cells.items()
                      for p in doas for r in ref_cells.get(cell, ())]
            if all(abs(angle - 20.0) > 1e-6 for angle in angles):
                return preds, refs

    @pytest.mark.parametrize("average", ["macro", "micro"])
    def test_scores_agree_under_every_pattern(self, average):
        rng = np.random.default_rng(46)
        for _ in range(10):
            preds, refs = self.scene(rng)
            want = compute_seld_scores(preds, refs, average=average)
            for pattern in enumerate_swap_patterns():
                def mapped(events):
                    az, el = zip(*map(pattern.map_doa, events.azimuth, events.elevation))
                    return Events(events.frame, events.class_id, az, el)

                got = compute_seld_scores(mapped(preds), mapped(refs), average=average)
                assert [got.er, got.f1, got.le, got.lr] == pytest.approx(
                    [want.er, want.f1, want.le, want.lr], rel=0, abs=1e-9)
                assert got.er_undefined == want.er_undefined
                for class_id, counts in want.per_class.items():
                    c = got.per_class[class_id]
                    assert (c.tp, c.fp, c.fn, c.n_matched, c.n_refs) == (
                        counts.tp, counts.fp, counts.fn, counts.n_matched, counts.n_refs)
                    assert c.angle_sum == pytest.approx(counts.angle_sum, rel=1e-12)
                assert got.per_class.keys() == want.per_class.keys()


class TestBoundariesAndTies:
    def test_twenty_degrees_measures_just_under_the_gate(self):
        # 20 degrees of azimuth comes out one ulp short of 20.0 and counts
        # as a location-dependent true positive
        assert match_one_cell([(20.0, 0.0)], [(0.0, 0.0)]) == [(0, 0, 19.999999999999993)]
        scores = compute_seld_scores([Event(0, 0, 20.0, 0.0)],
                                     [Event(0, 0, 0.0, 0.0)])
        assert (scores.er, scores.f1) == (0.0, 100.0)
        assert scores.le == 19.999999999999993

    def test_tied_assignment_keeps_the_diagonal(self):
        got = match_one_cell([(10, 0), (-10, 0)], [(0, 10), (0, -10)])
        assert got == [(0, 0, 14.106044260566337), (1, 1, 14.106044260566337)]

    def test_elevation_out_of_range_in_a_matched_cell(self):
        with pytest.raises(ElevationOutOfRange):
            compute_seld_scores([Event(0, 0, 0.0, 91.0)],
                                [Event(0, 0, 0.0, 0.0)])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_azimuth_in_a_matched_cell(self):
        # a 1 x R cell with a bad DoA ahead of a cell that matches cleanly;
        # it is named as an input error before any angle is taken
        for bad in (float("nan"), float("inf"), float("-inf")):
            message = f"azimuth {bad} is not finite"
            with pytest.raises(SeldkitError, match=message):
                compute_seld_scores(
                    [Event(0, 0, bad, 0.0), Event(0, 1, 5.0, 0.0)],
                    [Event(0, 0, 0.0, 0.0), Event(1, 0, 9.0, 0.0),
                     Event(0, 1, 0.0, 0.0)])
            with pytest.raises(SeldkitError, match=message):
                threshold_sweep(encode([Event(0, 0, 0.0, 0.0)], 1),
                                [Event(0, 0, bad, 0.0), Event(0, 0, 9.0, 0.0)])
            with pytest.raises(SeldkitError, match=message):
                match_one_cell([(bad, 0.0)], [(0.0, 0.0), (9.0, 0.0)])

    def test_elevation_out_of_range_in_an_unmatched_cell(self):
        # every DoA of a call is converted up front, so a bad event is
        # rejected even where it has nothing to be matched against
        with pytest.raises(ElevationOutOfRange):
            compute_seld_scores([Event(0, 0, 0.0, 91.0)],
                                [Event(0, 1, 0.0, 0.0)])
        with pytest.raises(ElevationOutOfRange):
            threshold_sweep(encode([Event(0, 0, 0.0, 0.0)], 1),
                            [Event(0, 1, 0.0, -91.0)])


class TestThresholdSweep:
    def test_perfect_tensor_scores_perfectly_everywhere(self):
        rng = np.random.default_rng(7)
        refs = helpers.random_events(rng, n_frames=30, max_events=8)
        tensor = encode(refs, 30)
        rows = threshold_sweep(tensor, refs)
        assert [thr for thr, _ in rows] == [0.3, 0.5, 0.7]
        for _, scores in rows:
            assert scores.er == 0.0
            assert scores.f1 == 100.0
            assert scores.le < 1e-9
            assert scores.lr == 100.0

    def test_recall_never_rises_with_threshold(self):
        rng = np.random.default_rng(8)
        refs = helpers.random_events(rng, n_frames=20, max_events=10)
        while not refs:
            refs = helpers.random_events(rng, n_frames=20, max_events=10)
        tensor = encode(refs, 20) * 0.6 + rng.uniform(
            -0.2, 0.2, size=(3, 13, 20)
        )
        rows = threshold_sweep(tensor, refs)
        recalls = [scores.lr for _, scores in rows]
        assert recalls[0] >= recalls[1] - 1e-12
        assert recalls[1] >= recalls[2] - 1e-12

    @staticmethod
    def sweep_case(name):
        """(prediction tensor, references) of one named sweep input."""
        rng = np.random.default_rng(34)
        refs = helpers.random_events(rng, n_frames=40, max_events=30)
        tensor = encode(refs, 40)
        if name == "seeded":
            return tensor * 0.6 + rng.uniform(-0.3, 0.3, (3, 13, 40)), refs
        if name == "none_above_0.3":
            return tensor * 0.25 + rng.uniform(-0.02, 0.02, (3, 13, 40)), refs
        if name == "all_emptied_at_0.7":
            # references at 0.6, and prediction-only cells at 0.45
            others = encode(helpers.random_events(rng, n_frames=40, max_events=30), 40)
            on_ref = np.linalg.norm(tensor, axis=0) > 0
            return np.where(on_ref, 0.6 * tensor, 0.45 * others), refs
        v = doa_to_unit_vector([(37.0, 12.0)])[0]
        tensor = np.zeros((3, 13, 40))
        if name == "one_doa_two_activities":
            # one direction twice in a segment, scaled by 2 so both decode
            # to the same DoA, the stronger row first in segment 1; a
            # reference sits in segment 0 only
            for frame, cls, activity in ((2, 4, 0.4), (5, 4, 0.8), (12, 4, 0.8),
                                         (15, 4, 0.4), (21, 4, 0.4), (22, 4, 0.6)):
                tensor[:, cls, frame] = activity * v
            return tensor, [Event(3, 4, 37.0, 12.0), Event(30, 4, 0.0, 0.0)]
        assert name == "norms_on_thresholds"
        for frame, vec in enumerate(([0.3, 0, 0], [0, 0.5, 0], [0, 0, 0.7],
                                     [0, 0, -0.7 - 1e-12], 0.5 * v)):
            tensor[:, frame % 2, 8 * frame + 1] = vec
        assert {0.3, 0.5, 0.7} <= set(np.linalg.norm(tensor, axis=0).ravel().tolist())
        return tensor, [Event(1, 0, 0.0, 0.0), Event(9, 1, 90.0, 0.0),
                        Event(17, 0, 0.0, 90.0), Event(33, 0, 37.0, 12.0)]

    @pytest.mark.parametrize("average", ["macro", "micro"])
    @pytest.mark.parametrize("case", ["seeded", "none_above_0.3",
                                      "all_emptied_at_0.7",
                                      "one_doa_two_activities",
                                      "norms_on_thresholds"])
    def test_matches_scoring_each_threshold(self, case, average):
        tensor, refs = self.sweep_case(case)
        rows = threshold_sweep(tensor, refs, average=average)
        want = [(thr, compute_seld_scores(decode(tensor, thr), refs, average=average))
                for thr in (0.3, 0.5, 0.7)]
        assert rows == want
        decoded = [len(decode(tensor, thr)) for thr in (0.3, 0.5, 0.7)]
        if case == "none_above_0.3":
            assert decoded == [0, 0, 0]
        if case == "all_emptied_at_0.7":
            assert decoded[1] > 0 and decoded[2] == 0


class TestFormatting:
    def test_scores_line_format(self):
        line = format_scores_line(SeldScores(0.0, 100.0, 0.0, 100.0))
        assert line == "ER 0.00 F1 100.0 LE 0.0 LR 100.0"
        line = format_scores_line(SeldScores(0.34, 33.333, 25.04, 66.67))
        assert line == "ER 0.34 F1 33.3 LE 25.0 LR 66.7"

    def test_sweep_table(self):
        refs = [Event(0, 0, 0.0, 0.0)]
        rows = threshold_sweep(encode(refs, 1), refs)
        table = format_sweep_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["thr", "ER", "F1", "LE", "LR"]
        assert lines[1].split() == ["0.30", "0.00", "100.0", "0.0", "100.0"]

    def test_sweep_csv(self):
        rows = [(0.3, SeldScores(0.25, 80.0, 12.3456789, 100.0)),
                (0.5, SeldScores(1.0, 0.0, 180.0, 0.0))]
        assert sweep_to_csv(rows) == (
            "threshold,er,f1,le,lr\n"
            "0.3,0.250000,80.000000,12.345679,100.000000\n"
            "0.5,1.000000,0.000000,180.000000,0.000000\n"
        )

    def test_scores_csv(self):
        refs = [Event(0, 3, 0.0, 0.0)]
        scores = compute_seld_scores(refs, refs)
        text = scores_to_csv(scores)
        lines = text.strip().splitlines()
        assert lines[0] == "metric,value"
        fields = dict(line.split(",", 1) for line in lines[1:6])
        assert float(fields["er"]) == 0.0
        assert float(fields["f1"]) == 100.0
        assert fields["er_undefined"] == "0"
        assert lines[6] == "class_3,tp=1;fp=0;fn=0;matched=1;refs=1"
