"""Tests for ACCDOA encoding, decoding, DoA conversions, and ensembling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import helpers
import oracles
from seldkit import (
    Event,
    Events,
    decode,
    doa_to_unit_vector,
    encode,
    ensemble_average,
    unit_vector_to_doa,
)
from seldkit.errors import (
    ClassOutOfRange,
    ElevationOutOfRange,
    EmptyEnsemble,
    FrameOutOfRange,
    SameClassOverlap,
    SeldkitError,
    ShapeMismatch,
    ZeroVector,
)


class TestDoaToUnitVector:
    def test_axis_directions(self):
        doas = [(0, 0), (90, 0), (180, 0), (-90, 0), (0, 90), (0, -90)]
        want = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        assert_allclose(doa_to_unit_vector(doas), want, atol=1e-15)

    def test_oblique_direction(self):
        vec = doa_to_unit_vector([(45.0, 30.0)])
        expected = [[
            np.cos(np.pi / 4) * np.cos(np.pi / 6),
            np.sin(np.pi / 4) * np.cos(np.pi / 6),
            np.sin(np.pi / 6),
        ]]
        assert_allclose(vec, expected, rtol=1e-15)

    def test_always_unit_norm(self):
        rng = np.random.default_rng(2)
        doas = np.stack([rng.uniform(-180, 180, 100), rng.uniform(-90, 90, 100)], axis=-1)
        vecs = doa_to_unit_vector(doas)
        assert vecs.shape == (100, 3)
        assert np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) < 1e-12)

    def test_elevation_out_of_range(self):
        with pytest.raises(ElevationOutOfRange, match="elevation 90.5 outside"):
            doa_to_unit_vector([(0.0, 0.0), (0.0, 90.5), (0.0, -91.0)])
        with pytest.raises(ElevationOutOfRange, match="elevation -91.0 outside"):
            doa_to_unit_vector([(0.0, -91.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_azimuth(self, bad):
        with pytest.raises(SeldkitError, match=f"azimuth {bad} is not finite"):
            doa_to_unit_vector([(0.0, 0.0), (bad, 0.0), (0.0, 95.0)])
        # the first bad row is named, whichever way it is bad
        with pytest.raises(ElevationOutOfRange, match="elevation 95.0 outside"):
            doa_to_unit_vector([(0.0, 95.0), (bad, 0.0)])
        with pytest.raises(SeldkitError, match=f"azimuth {bad} is not finite"):
            encode(Events([0], [0], [bad], [0.0]), 2)
        with pytest.raises(SeldkitError, match=f"azimuth {bad} is not finite"):
            encode(Events([0, 1], [0, 0], [bad, 0.0], [0.0, 0.0]), 1)

    def test_bad_shape(self):
        for doas in ([0.0, 0.0], [(0.0, 0.0, 0.0)], np.zeros((2, 2, 2))):
            with pytest.raises(ShapeMismatch):
                doa_to_unit_vector(doas)
        assert doa_to_unit_vector(np.empty((0, 2))).shape == (0, 3)


class TestUnitVectorToDoa:
    def test_axis_directions(self):
        az, el = unit_vector_to_doa([[1, 0, 0], [0, 1, 0], [-1, 0, 0]])
        assert (az[0], el[0]) == (0.0, 0.0)
        assert_allclose(az[1:], [90.0, -180.0], atol=1e-9)
        assert az[2] == -180.0
        assert_allclose(el[1:], 0.0, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vecs = rng.standard_normal((50, 3))
        vecs = vecs[np.linalg.norm(vecs, axis=1) >= 1e-3]
        assert_allclose(unit_vector_to_doa(vecs), unit_vector_to_doa(7.5 * vecs),
                        atol=1e-12)

    def test_poles_report_zero_azimuth(self):
        az, el = unit_vector_to_doa([[0, 0, 1], [0, 0, -1], [0, 0, 0.2]])
        assert az.tolist() == [0.0, 0.0, 0.0]
        assert el.tolist() == [90.0, -90.0, 90.0]

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        az = rng.uniform(-180.0, 180.0, 300)
        el = rng.uniform(-89.5, 89.5, 300)
        got_az, got_el = unit_vector_to_doa(doa_to_unit_vector(np.stack([az, el], axis=-1)))
        az_err = np.abs(got_az - az)
        az_err = np.minimum(az_err, 360.0 - az_err)
        assert np.all(az_err < 1e-9)
        assert np.all(np.abs(got_el - el) < 1e-9)

    def test_azimuth_wraps_to_half_open_range(self):
        az, _ = unit_vector_to_doa(doa_to_unit_vector([(-180.0, 10.0)]))
        assert az[0] == -180.0

    def test_bad_inputs(self):
        for vecs in ([1.0, 0.0, 0.0], [[1.0, 0.0]], np.zeros((2, 3, 1))):
            with pytest.raises(ShapeMismatch):
                unit_vector_to_doa(vecs)
        with pytest.raises(ZeroVector, match="norm 1e-12 "):
            unit_vector_to_doa([[1.0, 0.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 0.0, 0.0]])


class TestEncode:
    def test_empty_events(self):
        tensor = encode([], 10)
        assert tensor.shape == (3, 13, 10)
        assert tensor.dtype == np.float64
        assert_array_equal(tensor, 0.0)

    def test_single_event_vector(self):
        tensor = encode([Event(4, 7, 45.0, 30.0)], 10)
        assert_allclose(tensor[:, 7, 4], doa_to_unit_vector([(45.0, 30.0)])[0], rtol=1e-15)
        tensor[:, 7, 4] = 0.0
        assert_array_equal(tensor, 0.0)

    def test_norms_are_exactly_zero_or_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            events = helpers.random_events(rng, n_frames=25)
            tensor = encode(events, 25)
            norms = np.linalg.norm(tensor, axis=0)
            active = norms > 0
            assert int(active.sum()) == len(events)
            assert_allclose(norms[active], 1.0, atol=1e-15)

    def test_same_frame_different_class_ok(self):
        tensor = encode([Event(0, 1, 0, 0), Event(0, 2, 90, 0)], 1)
        assert np.linalg.norm(tensor[:, 1, 0]) == pytest.approx(1.0)
        assert np.linalg.norm(tensor[:, 2, 0]) == pytest.approx(1.0)

    def test_same_class_same_frame_rejected(self):
        with pytest.raises(SameClassOverlap):
            encode([Event(0, 1, 0, 0), Event(0, 1, 90, 0)], 1)

    def test_frame_out_of_range(self):
        with pytest.raises(FrameOutOfRange):
            encode([Event(10, 0, 0, 0)], 10)

    def test_class_out_of_range(self):
        for class_id in (13, -1):
            with pytest.raises(ClassOutOfRange,
                               match=rf"^event class {class_id} outside \[0, 13\)$"):
                encode([Event(0, 12, 0, 0), Event(1, class_id, 0, 0)], 10)
        assert encode([Event(0, 12, 0, 0)], 10).shape == (3, 13, 10)


class TestDecode:
    def test_strict_threshold(self):
        tensor = np.zeros((3, 13, 4))
        tensor[:, 2, 1] = 0.6 * doa_to_unit_vector([(30.0, -10.0)])[0]
        tensor[:, 5, 3] = 0.5 * doa_to_unit_vector([(0.0, 0.0)])[0]
        events = list(decode(tensor, threshold=0.5))
        # norm 0.5 sits exactly on the threshold and stays silent
        assert [(e.frame, e.class_id) for e in events] == [(1, 2)]
        assert_allclose((events[0].azimuth, events[0].elevation), (30.0, -10.0),
                        atol=1e-12)

    def test_threshold_one_silences_unit_vectors(self):
        tensor = encode([Event(0, 0, 10.0, 5.0)], 1)
        assert list(decode(tensor, threshold=1.0)) == []

    def test_sorted_by_frame_then_class(self):
        tensor = encode(
            [Event(3, 1, 0, 0), Event(0, 9, 0, 0), Event(0, 2, 0, 0)], 4
        )
        got = [(e.frame, e.class_id) for e in decode(tensor)]
        assert got == [(0, 2), (0, 9), (3, 1)]

    def test_threshold_floor(self):
        # below 1e-9 a vector may pass the threshold yet have no direction;
        # such thresholds are refused whatever the tensor holds
        tensor = np.zeros((3, 13, 4))
        tensor[:, 0, 0] = 5e-10 * doa_to_unit_vector([(0.0, 0.0)])[0]
        tensor[:, 1, 2] = 2e-9 * doa_to_unit_vector([(90.0, 0.0)])[0]
        for threshold in (1e-12, 1e-10, 0.999e-9):
            for t in (tensor, np.zeros((3, 13, 4))):
                with pytest.raises(SeldkitError, match="1e-09"):
                    decode(t, threshold=threshold)
        events = list(decode(tensor, threshold=1e-9))
        assert [(e.frame, e.class_id) for e in events] == [(2, 1)]
        assert_allclose(events[0].azimuth, 90.0, atol=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(SeldkitError):
            decode(np.zeros((3, 13, 4)), threshold=0.0)
        with pytest.raises(SeldkitError):
            decode(np.zeros((3, 13, 4)), threshold=-0.5)
        with pytest.raises(ShapeMismatch):
            decode(np.zeros((2, 13, 4)))
        with pytest.raises(ShapeMismatch):
            decode(np.zeros((3, 13)))

    def test_round_trip_under_all_thresholds(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            events = helpers.random_events(rng, n_frames=30)
            tensor = encode(events, 30)
            for threshold in (0.3, 0.5, 0.7):
                got = decode(tensor, threshold)
                assert [(e.frame, e.class_id) for e in got] == [
                    (e.frame, e.class_id) for e in events
                ]
                for a, b in zip(got, events):
                    az_err = abs(a.azimuth - b.azimuth)
                    az_err = min(az_err, 360.0 - az_err)
                    assert az_err < 1e-9
                    assert abs(a.elevation - b.elevation) < 1e-9

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            tensor = rng.uniform(-0.8, 0.8, size=(3, 13, 12))
            previous = None
            for threshold in (0.3, 0.5, 0.7):
                cells = {(e.frame, e.class_id) for e in decode(tensor, threshold)}
                if previous is not None:
                    assert cells <= previous
                previous = cells


class TestDecodeNonFinite:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e200])
    def test_rejected_naming_the_first_cell(self, value):
        tensor = encode([Event(0, 0, 10.0, 0.0), Event(3, 2, 0.0, 0.0)], 5)
        tensor[1, 4, 2] = value
        tensor[0, 1, 4] = value
        # (frame 2, class 4) comes before (frame 4, class 1)
        with pytest.raises(SeldkitError, match="class 4 in frame 2"):
            decode(tensor)


class TestDecodeMatchesScalar:
    """decode reproduces the per-cell scalar conversion bit for bit."""

    def seeded_tensor(self):
        rng = np.random.default_rng(41)
        n_classes, n_frames = 13, 300
        tensor = rng.uniform(-1.0, 1.0, (3, n_classes, n_frames))
        tensor *= rng.uniform(0.0, 1.2, (1, n_classes, n_frames))
        special = [
            (0.0, 0.0, 0.8),            # north pole
            (0.0, 0.0, -0.8),           # south pole
            (4e-10, -3e-10, 0.9),       # pole within the 1e-9 tolerance
            (2e-9, 0.0, 0.9),           # just outside it
            (-0.8, 0.0, 0.0),           # azimuth +180 wraps to -180
            (-0.8, -0.0, 0.0),          # azimuth -180
            (-0.6, 1e-300, 0.1),
            (np.nextafter(0.5, 1.0), 0.0, 0.0),   # just above 0.5
            (np.nextafter(0.5, 0.0), 0.0, 0.0),   # just below 0.5
            (0.5, 0.0, 0.0),            # exactly 0.5, stays silent
            (0.0, 0.6, 0.0),            # equal norms, different directions
            (0.0, 0.0, 0.6),
            (0.6, 0.0, 0.0),
            (0.3, 0.4, 0.0),            # norm 0.5 from two components
            (1.0, 1.0, 1.0),
        ]
        for k, vec in enumerate(special):
            tensor[:, k % n_classes, 7 + 11 * k] = vec
        return tensor

    @staticmethod
    def hexed(events):
        return [(f, c, float(a).hex(), float(e).hex()) for f, c, a, e in events]

    @pytest.mark.parametrize("threshold", [1e-9, 0.3, 0.5, 0.7])
    def test_field_by_field(self, threshold):
        tensor = self.seeded_tensor()
        got = [(e.frame, e.class_id, e.azimuth, e.elevation)
               for e in decode(tensor, threshold)]
        want = oracles.scalar_decode(tensor, threshold)
        assert len(got) > 100
        assert self.hexed(got) == self.hexed(want)
        assert all(type(v) is float for _, _, *doa in got for v in doa)
        assert all(type(v) is int for *cell, _, _ in got for v in cell)

    def test_float32_input(self):
        tensor = self.seeded_tensor().astype(np.float32)
        got = [(e.frame, e.class_id, e.azimuth, e.elevation)
               for e in decode(tensor, 0.5)]
        assert self.hexed(got) == self.hexed(oracles.scalar_decode(tensor, 0.5))

    def test_one_row_inverse_matches_scalar(self):
        rng = np.random.default_rng(42)
        for vec in rng.standard_normal((200, 3)):
            got = [v[0] for v in unit_vector_to_doa(vec[None])]
            want = oracles._scalar_doa(vec)
            assert [float(v).hex() for v in got] == [v.hex() for v in want]


class TestEnsembleAverage:
    def test_single_tensor_identity(self):
        rng = np.random.default_rng(31)
        tensor = rng.standard_normal((3, 13, 8))
        assert_array_equal(ensemble_average([tensor]), tensor)

    def test_repeated_tensor(self):
        rng = np.random.default_rng(32)
        tensor = rng.standard_normal((3, 13, 8))
        assert_allclose(ensemble_average([tensor] * 3), tensor, rtol=1e-15)

    def test_matches_mean(self):
        rng = np.random.default_rng(33)
        tensors = [rng.standard_normal((3, 5, 6)) for _ in range(4)]
        assert_allclose(ensemble_average(tensors), np.mean(tensors, axis=0),
                        rtol=1e-12)

    def test_disagreement_shrinks_norm(self):
        a = encode([Event(0, 0, 0.0, 0.0)], 1)
        b = encode([Event(0, 0, 90.0, 0.0)], 1)
        avg = ensemble_average([a, b])
        norm = float(np.linalg.norm(avg[:, 0, 0]))
        assert norm == pytest.approx(np.sqrt(0.5), rel=1e-12)
        # opposite directions cancel outright
        c = encode([Event(0, 0, 180.0, 0.0)], 1)
        assert_allclose(ensemble_average([a, c]), 0.0, atol=1e-16)

    def test_order_invariance(self):
        rng = np.random.default_rng(34)
        tensors = [rng.standard_normal((3, 4, 5)) for _ in range(5)]
        forward = ensemble_average(tensors)
        backward = ensemble_average(tensors[::-1])
        assert_allclose(forward, backward, rtol=1e-12, atol=1e-15)

    def test_bad_inputs(self):
        with pytest.raises(EmptyEnsemble):
            ensemble_average([])
        with pytest.raises(ShapeMismatch):
            ensemble_average([np.zeros((2, 13, 4))])
        with pytest.raises(ShapeMismatch):
            ensemble_average([np.zeros((3, 13, 4)), np.zeros((3, 13, 5))])
