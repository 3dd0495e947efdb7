"""Tests for WAV/CSV/manifest readers and the SLSA feature container."""

import os
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.io import wavfile

import helpers
from seldkit import (
    Event,
    Events,
    MultichannelClip,
    compute_seld_scores,
    dataset_io,
    encode,
    normalize_azimuth,
    read_feature_file,
    read_foa_wav,
    read_label_csv,
    read_manifest,
    threshold_sweep,
    write_feature_file,
    write_label_csv,
)
from seldkit.errors import (
    BadMagic,
    ClassOutOfRange,
    FrameOutOfRange,
    MalformedRow,
    MalformedWav,
    SeldkitError,
    ShapeMismatch,
    TooShort,
    TruncatedPayload,
    VersionMismatch,
    WrongChannelCount,
    WrongSampleRate,
)


class TestNormalizeAzimuth:
    def test_fixed_points(self):
        assert normalize_azimuth(0.0) == 0.0
        assert normalize_azimuth(179.0) == 179.0
        assert normalize_azimuth(180.0) == -180.0
        assert normalize_azimuth(-180.0) == -180.0
        assert normalize_azimuth(190.0) == -170.0
        assert normalize_azimuth(-190.0) == 170.0
        assert normalize_azimuth(360.0) == 0.0
        assert normalize_azimuth(540.0) == -180.0
        assert normalize_azimuth(-540.0) == -180.0

    def test_idempotent_and_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            az = float(rng.uniform(-1000.0, 1000.0))
            wrapped = normalize_azimuth(az)
            assert -180.0 <= wrapped < 180.0
            assert normalize_azimuth(wrapped) == wrapped
            # wrapping never moves by anything but whole turns
            turns = (az - wrapped) / 360.0
            assert abs(turns - round(turns)) < 1e-9


class TestMultichannelClip:
    def test_accepts_and_locks_samples(self):
        data = np.zeros((4, 600), dtype=np.float32)
        clip = MultichannelClip(data)
        assert clip.samples.dtype == np.float64
        assert clip.samples.shape == (4, 600)
        with pytest.raises(ValueError):
            clip.samples[0, 0] = 1.0

    def test_copies_input(self):
        data = np.zeros((4, 600))
        clip = MultichannelClip(data)
        data[0, 0] = 5.0
        assert clip.samples[0, 0] == 0.0

    def test_wrong_channel_count(self):
        with pytest.raises(WrongChannelCount):
            MultichannelClip(np.zeros((2, 600)))
        with pytest.raises(WrongChannelCount):
            MultichannelClip(np.zeros(600))

    def test_too_short(self):
        with pytest.raises(TooShort):
            MultichannelClip(np.zeros((4, 511)))
        MultichannelClip(np.zeros((4, 512)))

    def test_non_finite(self):
        data = np.zeros((4, 600))
        data[2, 3] = np.nan
        with pytest.raises(SeldkitError):
            MultichannelClip(data)


class TestReadFoaWav:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = 0.5 * rng.standard_normal((4, 1000))
        path = tmp_path / "clip.wav"
        helpers.write_wav(path, samples, dtype=np.float32)
        clip = read_foa_wav(path)
        assert clip.samples.shape == (4, 1000)
        assert_array_equal(clip.samples, samples.astype(np.float32).astype(np.float64))

    def test_int16_scaling(self, tmp_path):
        raw = np.zeros((600, 4), dtype=np.int16)
        raw[0] = [-32768, 32767, 16384, -16384]
        path = tmp_path / "clip.wav"
        wavfile.write(path, 24000, raw)
        clip = read_foa_wav(path)
        assert clip.samples[0, 0] == -1.0
        assert clip.samples[1, 0] == 32767.0 / 32768.0
        assert clip.samples[2, 0] == 0.5
        assert clip.samples[3, 0] == -0.5

    def test_int32_scaling(self, tmp_path):
        raw = np.zeros((600, 4), dtype=np.int32)
        raw[0] = [-(2 ** 31), 2 ** 31 - 1, 2 ** 30, 0]
        path = tmp_path / "clip.wav"
        wavfile.write(path, 24000, raw)
        clip = read_foa_wav(path)
        assert clip.samples[0, 0] == -1.0
        assert clip.samples[1, 0] == (2 ** 31 - 1) / 2 ** 31
        assert clip.samples[2, 0] == 0.5

    @pytest.mark.parametrize("kind", ["int16", "int24", "int32", "float32"])
    def test_bytes_equal_whole_array_scaling(self, tmp_path, kind):
        # the reader scales integer PCM in place; the bytes must equal
        # those of astype(float64) / scale over the whole array
        rng = np.random.default_rng(19)
        path = tmp_path / "clip.wav"
        if kind == "float32":
            wavfile.write(path, 24000, rng.uniform(-1, 1, (700, 4)).astype(np.float32))
        elif kind == "int24":
            raw = rng.integers(-2 ** 23, 2 ** 23, (700, 4)).astype("<i4")
            raw[0] = [-2 ** 23, 2 ** 23 - 1, 1, -1]
            payload = raw.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
            path.write_bytes(
                b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVEfmt "
                + struct.pack("<IHHIIHH", 16, 1, 4, 24000, 24000 * 12, 12, 24)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        else:
            info = np.iinfo(kind)
            raw = rng.integers(info.min, info.max, (700, 4), endpoint=True, dtype=kind)
            raw[0] = [info.min, info.max, 1, -1]
            wavfile.write(path, 24000, raw)
        _, data = wavfile.read(path)
        want = data.astype(np.float64)
        if kind != "float32":
            want = want / 2.0 ** (8 * data.itemsize - 1)
            assert want.min() == -1.0
        got = read_foa_wav(path).samples
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want.T).tobytes()

    def test_clip_takes_over_the_read_samples(self, tmp_path):
        # a 60 s int16 clip is 11 MiB of PCM and 44 MiB as float64; the
        # reader hands its float64 array to the clip rather than having the
        # constructor copy it a second time (about 104 MiB)
        path = tmp_path / "long.wav"
        raw = np.random.default_rng(20).integers(
            -20000, 20000, (60 * 24000, 4), dtype=np.int16)
        wavfile.write(path, 24000, raw)
        del raw
        assert helpers.traced_peak_mib(read_foa_wav, path) < 70.0
        clip = read_foa_wav(path)
        with pytest.raises(ValueError):
            clip.samples[0, 0] = 1.0

    def test_wrong_channel_count_checked_before_rate(self, tmp_path):
        path = tmp_path / "stereo48k.wav"
        wavfile.write(path, 48000, np.zeros((600, 2), dtype=np.int16))
        with pytest.raises(WrongChannelCount):
            read_foa_wav(path)

    def test_mono_rejected(self, tmp_path):
        path = tmp_path / "mono.wav"
        wavfile.write(path, 24000, np.zeros(600, dtype=np.int16))
        with pytest.raises(WrongChannelCount):
            read_foa_wav(path)

    def test_wrong_rate(self, tmp_path):
        path = tmp_path / "fast.wav"
        wavfile.write(path, 48000, np.zeros((600, 4), dtype=np.int16))
        with pytest.raises(WrongSampleRate):
            read_foa_wav(path)

    def test_unsupported_sample_format(self, tmp_path):
        path = tmp_path / "bytes.wav"
        wavfile.write(path, 24000, np.zeros((600, 4), dtype=np.uint8))
        with pytest.raises(MalformedWav):
            read_foa_wav(path)

    def test_short_and_non_finite_clips_name_the_path(self, tmp_path):
        short, bad = tmp_path / "short.wav", tmp_path / "nan.wav"
        wavfile.write(short, 24000, np.zeros((300, 4), dtype=np.int16))
        samples = np.zeros((600, 4), dtype=np.float32)
        samples[5, 1] = np.inf
        wavfile.write(bad, 24000, samples)
        with pytest.raises(TooShort, match=f"^{re.escape(str(short))}: clip has 300"):
            read_foa_wav(short)
        with pytest.raises(SeldkitError, match=f"^{re.escape(str(bad))}: clip contains"):
            read_foa_wav(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_foa_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"RIFFgarbage that is not really a wav file")
        with pytest.raises(MalformedWav):
            read_foa_wav(path)

    def test_failed_scipy_import_is_no_fault_of_the_file(self, tmp_path,
                                                         monkeypatch):
        # the reader imports scipy.io on its first call; an install without
        # it is an internal error (exit 2), not a malformed WAV (exit 1)
        path = tmp_path / "ok.wav"
        wavfile.write(path, 24000, np.zeros((600, 4), dtype=np.int16))
        monkeypatch.setitem(sys.modules, "scipy.io", None)
        with pytest.raises(ImportError):
            read_foa_wav(path)

    @staticmethod
    def int16_wav(claimed, payload, riff_size=None, rf64=False):
        """A 4-channel 24 kHz int16 WAV whose data chunk declares claimed
        bytes and holds payload; riff_size defaults to the true size."""
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 4, 24000, 24000 * 8, 8, 16)
        if rf64:  # the 32-bit sizes are 0xFFFFFFFF; ds64 holds the real ones
            tail = fmt + b"data" + struct.pack("<I", 0xFFFFFFFF) + payload
            ds64 = b"ds64" + struct.pack("<IQQQI", 28, 40 + len(tail), claimed, 0, 0)
            return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + tail
        body = b"WAVE" + fmt + b"data" + struct.pack("<I", claimed) + payload
        return b"RIFF" + struct.pack("<I", riff_size or len(body)) + body

    @pytest.mark.parametrize("riff_size", [None, 0xFFFFFFF8],
                             ids=["riff_size_true", "riff_size_claimed"])
    def test_data_chunk_cut_short(self, tmp_path, riff_size):
        # 2,000 frames on disk, 0xFFFFFFF0 bytes declared: scipy reads the
        # 2,000 frames with a warning at most, which is not an error
        path = tmp_path / "cut.wav"
        payload = np.arange(8000, dtype="<i2").tobytes()
        path.write_bytes(self.int16_wav(0xFFFFFFF0, payload, riff_size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check must not be a warning
            with pytest.raises(MalformedWav, match=(
                    f"^{re.escape(str(path))}: data chunk declares 4294967280 "
                    "bytes but 16000 follow it")):
                read_foa_wav(path)

    @pytest.mark.parametrize("rf64", [False, True], ids=["riff", "rf64"])
    def test_data_chunk_sizes(self, tmp_path, rf64):
        # a data chunk holding what it declares reads as every frame; one
        # byte more declared than held is a cut file
        payload = np.arange(8000, dtype="<i2").tobytes()
        path = tmp_path / "whole.wav"
        path.write_bytes(self.int16_wav(len(payload), payload, rf64=rf64))
        clip = read_foa_wav(path)
        assert clip.samples.shape == (4, 2000)
        assert clip.samples[1, 0] == 1 / 2 ** 15
        path.write_bytes(self.int16_wav(len(payload) + 1, payload, rf64=rf64))
        with pytest.raises(MalformedWav, match="declares 16001 bytes but 16000"):
            read_foa_wav(path)


class TestEvents:
    ROWS = [Event(0, 3, 30.0, -10.0), Event(2, 5, -120.5, 45.0)]

    def test_rows_round_trip_through_columns(self):
        events = Events.of(iter(self.ROWS))
        assert len(events) == 2
        assert list(events) == list(events) == self.ROWS
        assert [col.dtype for col in (events.frame, events.class_id,
                                      events.azimuth, events.elevation)] == [
            np.int64, np.int64, np.float64, np.float64]
        assert all(type(e.frame) is int and type(e.azimuth) is float for e in events)

    def test_of_returns_events_unchanged(self):
        events = Events.of(self.ROWS)
        assert Events.of(events) is events

    def test_empty(self):
        events = Events.of([])
        assert len(events) == 0 and not events and list(events) == []

    def test_columns_must_share_one_length(self):
        with pytest.raises(ShapeMismatch):
            Events([0, 1], [0, 1], [0.0], [0.0, 0.0])
        with pytest.raises(ShapeMismatch):
            Events([[0]], [[0]], [[0.0]], [[0.0]])

    @pytest.mark.parametrize("bad", [2 ** 70, 2 ** 63, -(2 ** 63) - 1, 0.5, np.nan,
                                     np.inf, np.uint64(2 ** 63)])
    @pytest.mark.parametrize("column", ["frame", "class_id"])
    def test_frame_and_class_int64_cannot_hold_rejected(self, tmp_path, bad, column):
        # 2**70 was an OverflowError; 0.5 was read as 0 and scored F1 100
        # against an event in frame 0
        row = {"frame": 0, "class_id": 0, "azimuth": 0.0, "elevation": 0.0}
        events = [Event(**{**row, column: bad})]
        error = FrameOutOfRange if column == "frame" else ClassOutOfRange
        message = f"^event {column} {bad} is not an integer int64 can hold$"
        good = [Event(**row)]
        for call in (lambda: Events.of(events), lambda: encode(events, 10),
                     lambda: compute_seld_scores(events, good),
                     lambda: compute_seld_scores(good, events),
                     lambda: threshold_sweep(encode(good, 10), events),
                     lambda: write_label_csv(events, tmp_path / "out.csv")):
            with pytest.raises(error, match=message):
                call()
        assert not (tmp_path / "out.csv").exists()

    def test_rows_and_columns_give_equal_events(self):
        rng = np.random.default_rng(3)
        frame, class_id = rng.integers(0, 2 ** 62, 200), rng.integers(0, 13, 200)
        az, el = rng.uniform(-180, 180, 200), rng.uniform(-90, 90, 200)
        rows = [Event(*values) for values in zip(frame.tolist(), class_id.tolist(),
                                                 az.tolist(), el.tolist())]
        from_rows, from_columns = Events.of(rows), Events(frame, class_id, az, el)
        for name in ("frame", "class_id", "azimuth", "elevation"):
            got, want = getattr(from_rows, name), getattr(from_columns, name)
            assert got.dtype == want.dtype
            assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [2 ** 70, 0.5])
    @pytest.mark.parametrize("column", ["frame", "class_id"])
    def test_rows_and_columns_reject_alike(self, bad, column):
        row = {"frame": 3, "class_id": 1, "azimuth": 0.0, "elevation": 0.0}
        rows = [Event(**row), Event(**{**row, column: bad})]
        columns = {name: [getattr(e, name) for e in rows] for name in row}
        raised = []
        for call in (lambda: Events.of(rows), lambda: Events(**columns)):
            with pytest.raises(SeldkitError) as info:
                call()
            raised.append((type(info.value), str(info.value)))
        error = FrameOutOfRange if column == "frame" else ClassOutOfRange
        assert raised[0] == raised[1]
        assert raised[0][0] is error

    def test_integral_values_of_any_type_accepted(self):
        events = Events([np.float64(3.0), 2 ** 62 + 1, np.uint64(7), True],
                        [1.0, np.int8(2), np.uint32(3), 0],
                        [0.0] * 4, [0.0] * 4)
        assert events.frame.tolist() == [3, 2 ** 62 + 1, 7, 1]
        assert events.class_id.tolist() == [1, 2, 3, 0]

    def test_signed_integer_columns_skip_the_exactness_check(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("checked an integer column")

        monkeypatch.setattr(dataset_io, "_exact_int64", no_check)
        for frames in ([0, 5], np.array([0, 5]), np.array([0, 5], dtype=np.int32)):
            assert Events(frames, frames, [0.0, 1.0], [0.0, 1.0]).frame.tolist() == [0, 5]


class TestReadLabelCsv:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,3,0,30,-10\n2,5,1,-120,45\n")
        events = list(read_label_csv(path))
        assert events == [
            Event(0, 3, 30.0, -10.0),
            Event(2, 5, -120.0, 45.0),
        ]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("\n0,0,0,0,0\n\n\n1,0,0,10,0\n")
        assert len(read_label_csv(path)) == 2

    def test_azimuth_wrapped_and_duplicates_dropped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,0,190,5\n0,1,0,-170,5\n0,1,0,-170,5\n")
        events = list(read_label_csv(path))
        assert events == [Event(0, 1, -170.0, 5.0)]

    def test_sorted_output(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("5,2,0,0,0\n1,9,0,0,0\n1,2,0,0,0\n")
        events = read_label_csv(path)
        assert [(e.frame, e.class_id) for e in events] == [(1, 2), (1, 9), (5, 2)]

    def test_source_column_ignored(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,0,10,5\n1,1,7,10,5\n")
        events = list(read_label_csv(path))
        assert len(events) == 2
        assert events[0].azimuth == events[1].azimuth == 10.0

    def test_field_count_errors(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,0,10\n")
        with pytest.raises(MalformedRow):
            read_label_csv(path)
        path.write_text("0,1,0,10,5,9\n")
        with pytest.raises(MalformedRow):
            read_label_csv(path)

    def test_unreadable_text_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        for blob in (b"\xff\xfe0,1,0,10,5\n", b"0,1,0,10,5\n\xc3\x28\n",
                     b"x" * 200_000 + b"\n"):
            path.write_bytes(blob)
            with pytest.raises(MalformedRow, match="l.csv"):
                read_label_csv(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,0,10.5,5\n")
        with pytest.raises(MalformedRow):
            read_label_csv(path)

    def test_negative_frame(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("-1,1,0,10,5\n")
        with pytest.raises(MalformedRow):
            read_label_csv(path)

    def test_integers_beyond_int64_and_float_range(self, tmp_path):
        path = tmp_path / "labels.csv"
        for row in (b"9223372036854775808,1,0,10,5", b"0,1,0," + b"9" * 400 + b",5"):
            path.write_bytes(b"0,1,0,10,5\n" + row + b"\n")
            with pytest.raises(MalformedRow, match="labels.csv:2: "):
                read_label_csv(path)
        path.write_bytes(b"9223372036854775807,1,0,10,5\n")
        assert list(read_label_csv(path)) == [Event(2 ** 63 - 1, 1, 10.0, 5.0)]

    @pytest.mark.parametrize("blob", ['0,1,0,"10\n",5\n0,1,0,x,5\n',
                                      "0,1,0,10,5\n\n0,1,0,x,5\n"])
    def test_errors_name_the_line_the_row_is_on(self, tmp_path, blob):
        # a quoted field that spans lines is one row, and a blank line is
        # none, so the bad row is the second one but sits on line 3
        path = tmp_path / "l.csv"
        path.write_text(blob)
        with pytest.raises(MalformedRow, match=r"l\.csv:3: "):
            read_label_csv(path)

    def test_class_out_of_range(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,13,0,10,5\n")
        with pytest.raises(ClassOutOfRange):
            read_label_csv(path)
        path.write_text("0,-1,0,10,5\n")
        with pytest.raises(ClassOutOfRange):
            read_label_csv(path)
        path.write_text("0,13,0,10,5\n")
        assert len(read_label_csv(path, n_classes=14)) == 1

    def test_elevation_bounds(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1,0,10,90\n")
        with pytest.raises(MalformedRow):
            read_label_csv(path)
        path.write_text("0,1,0,10,-90\n0,2,0,10,89\n")
        events = read_label_csv(path)
        assert [e.elevation for e in events] == [-90.0, 89.0]


def _row_order_cases():
    """(id, columns, whether they pack into one int64 key)."""
    rng = np.random.default_rng(12)
    n = 500
    frames = rng.integers(0, 60, n)
    classes = rng.integers(0, 13, n)
    whole_az = rng.integers(-180, 180, n).astype(np.float64)
    whole_az[rng.random(n) < 0.2] = -0.0
    whole_az[rng.random(n) < 0.2] = 0.0
    whole_el = rng.integers(-90, 90, n).astype(np.float64)
    big = np.int64(2 ** 62)
    i64 = np.iinfo(np.int64)

    def f(*values):
        return np.array(values, dtype=np.float64)

    def i(*values):
        return np.array(values, dtype=np.int64)

    label_rows = (frames, classes, whole_az, whole_el)
    return [
        ("label_rows", label_rows, True),
        ("presorted", tuple(c[np.lexsort(label_rows[::-1])] for c in label_rows), True),
        ("reversed", tuple(c[np.lexsort(label_rows[::-1])[::-1]] for c in label_rows), True),
        ("segments_and_classes", (frames // 10, classes), True),
        ("decoded_directions", (frames, classes, rng.uniform(-180, 180, n),
                                rng.uniform(-90, 90, n)), False),
        ("one_half_degree", (frames, classes, np.where(frames == 3, 0.5, whole_az)), False),
        ("signed_zeros_only", (f(0.0, -0.0, 0.0, -0.0), i(1, 1, 0, 0)), True),
        ("nan", (i(0, 0, 0, 1), f(1.0, np.nan, 0.0, 1.0)), False),
        ("inf", (i(0, 0, 0, 1), f(1.0, np.inf, 0.0, -np.inf)), False),
        ("inf_only", (f(np.inf, np.inf),), False),
        ("int64_extremes", (i(i64.max, i64.min, 0, i64.min, i64.max),), False),
        ("int32_and_float32", (np.array([2 ** 31 - 1, -2 ** 31, 0, -2 ** 31], np.int32),
                               np.array([1, 0, 2 ** 24 + 2, 0], np.float32)), False),
        ("int64_top_span", (i(i64.max, 0, 1, i64.max - 1, 0),), True),
        ("int64_bottom_span", (i(i64.min, -1, i64.min + 5, i64.min),), True),
        ("float_span_under_2pow53", (f(0, 2 ** 53 - 1, 7, 2 ** 53 - 2, 7),), True),
        ("float_span_2pow53", (f(0, 2 ** 53, 7, 2 ** 53 - 2),), False),
        ("large_whole_floats", (f(2.0 ** 60, 2.0 ** 60 + 512, 2.0 ** 60, 2.0 ** 60 + 256),), True),
        ("spans_product_2pow63", (i(0, 2 ** 32 - 1, 5, 0), i(2 ** 31 - 1, 0, 3, 2 ** 31 - 1)),
         True),
        ("spans_product_over_2pow63", (i(0, 2 ** 32 - 1, 5, 0), i(2 ** 31, 0, 3, 2 ** 31)),
         False),
        ("three_wide_columns", (i(big, 0), i(0, 1), i(1, 0)), False),
        ("one_row", (i(5), f(-0.0)), True),
        ("empty", (i(), f()), False),
    ]


class TestRowOrder:
    """_row_order is np.lexsort's permutation, packed key or not."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("columns, packs",
                             [case[1:] for case in _row_order_cases()],
                             ids=[case[0] for case in _row_order_cases()])
    def test_equals_lexsort(self, columns, packs):
        assert (dataset_io._packed_key(columns) is not None) == packs
        got = dataset_io._row_order(*columns)
        assert got.dtype == np.intp
        assert_array_equal(got, np.lexsort(columns[::-1]))

    def test_seeded_columns(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            columns = []
            for _ in range(int(rng.integers(1, 5))):
                low = int(rng.integers(-2 ** 40, 2 ** 40))
                column = rng.integers(low, low + int(rng.integers(1, 6)), n)
                columns.append(column.astype(np.float64) if rng.random() < 0.5 else column)
            assert_array_equal(dataset_io._row_order(*columns),
                               np.lexsort(columns[::-1]))


class TestWriteLabelCsv:
    def test_integer_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for _ in range(20):
            events = helpers.random_events(rng, n_frames=40, integer_angles=True)
            path = tmp_path / "out.csv"
            write_label_csv(events, path)
            assert list(read_label_csv(path)) == events

    def test_rounding_and_clamping(self, tmp_path):
        events = [
            Event(0, 0, 10.4, 89.7),
            Event(1, 1, 179.6, -90.0),
            Event(2, 2, -0.5, 0.49),
        ]
        path = tmp_path / "out.csv"
        write_label_csv(events, path)
        got = list(read_label_csv(path))
        # rounds to nearest degree, re-wraps azimuth, clamps elevation to 89
        assert got == [
            Event(0, 0, 10.0, 89.0),
            Event(1, 1, -180.0, -90.0),
            Event(2, 2, 0.0, 0.0),
        ]

    def test_no_temp_files_left(self, tmp_path):
        write_label_csv([Event(0, 0, 0.0, 0.0)], tmp_path / "out.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("rows, error, message", [
        ([Event(0, 0, 0.0, 0.0), Event(-1, 0, 0.0, 0.0)], FrameOutOfRange,
         "event frame -1, below 0"),
        ([Event(3, -2, 0.0, 0.0), Event(-5, 1, 0.0, 0.0)], FrameOutOfRange,
         "event frame -5, below 0"),
        ([Event(3, 2, 0.0, 0.0), Event(4, -1, 0.0, 0.0), Event(5, -3, 0.0, 0.0)],
         ClassOutOfRange, "event class -1, below 0"),
        ([Event(-(2 ** 63), 0, 0.0, 0.0)], FrameOutOfRange,
         f"event frame {-(2 ** 63)}, below 0"),
    ])
    def test_negative_frame_or_class_refused_before_writing(self, tmp_path, rows,
                                                            error, message):
        # the reader rejects negative frames and classes, so the writer must
        # not emit them: write_label_csv([Event(-1, ...)]) used to read back
        # as "frame -1 outside [0, 2^63)"
        path = tmp_path / "out.csv"
        for events in (rows, Events.of(rows)):
            with pytest.raises(error, match=f"^refusing to write {message}$"):
                write_label_csv(events, path)
            assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_every_class_the_reader_takes_round_trips(self, tmp_path):
        # classes of 13 and above stay writable: read_label_csv(n_classes=...)
        # reads them back
        events = [Event(0, 0, 10.0, 5.0), Event(0, 13, -20.0, 0.0),
                  Event(2 ** 63 - 1, 40, 170.0, -90.0)]
        path = tmp_path / "out.csv"
        write_label_csv(events, path)
        assert list(read_label_csv(path, n_classes=41)) == events
        with pytest.raises(ClassOutOfRange):
            read_label_csv(path)

    def test_bytes_match_one_f_string_per_row(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 400
        events = Events(
            np.concatenate([rng.integers(0, 2 ** 63, n // 2), rng.integers(0, 50, n // 2)]),
            rng.integers(0, 40, n),
            np.concatenate([rng.uniform(-540.0, 540.0, n - 8),
                            [-0.0, 0.0, -0.4, 179.5, 179.6, -180.4, -179.5, 540.0]]),
            np.concatenate([rng.uniform(-95.0, 95.0, n - 8),
                            [-0.0, -0.4, 0.0, 89.5, -90.5, 89.4, -89.6, 0.5]]))
        assert (events.frame > 2 ** 53).any() and (events.azimuth < 0).any()
        az = normalize_azimuth(np.rint(events.azimuth)).astype(np.int64)
        el = np.clip(np.rint(events.elevation), -90, 89).astype(np.int64)
        assert -180 in az.tolist()
        want = "".join(
            f"{f},{c},0,{a},{e}\n" for f, c, a, e in zip(
                events.frame.tolist(), events.class_id.tolist(), az.tolist(), el.tolist()))
        path = tmp_path / "out.csv"
        write_label_csv(events, path)
        assert path.read_bytes() == want.encode("utf-8")
        write_label_csv([], path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("az, el", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)])
    def test_non_finite_direction_refused(self, tmp_path, az, el):
        path = tmp_path / "out.csv"
        with pytest.raises(SeldkitError, match="non-finite direction"):
            write_label_csv([Event(0, 0, 10.0, 0.0), Event(1, 2, az, el)], path)
        assert not path.exists()


class TestFeatureContainer:
    def test_frozen_container_size(self, tmp_path):
        # 4 magic + 4 version + 4 ndim + 3*8 dims + 4*7*200*10 payload
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros((7, 200, 10), dtype=np.float32), path)
        assert path.stat().st_size == 56036

    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(10):
            shape = tuple(int(rng.integers(1, 8)) for _ in range(int(rng.integers(1, 4))))
            tensor = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / "t.slsa"
            write_feature_file(tensor, path)
            got = read_feature_file(path)
            assert got.dtype == np.float32
            assert_array_equal(got, tensor)

    def test_float64_rounds_to_float32(self, tmp_path):
        tensor = np.array([[1.0 / 3.0, np.pi]])
        path = tmp_path / "t.slsa"
        write_feature_file(tensor, path)
        assert_array_equal(read_feature_file(path), tensor.astype(np.float32))

    def test_row_major_payload(self, tmp_path):
        tensor = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        path = tmp_path / "t.slsa"
        write_feature_file(tensor, path)
        blob = path.read_bytes()
        payload = np.frombuffer(blob[12 + 3 * 8:], dtype="<f4")
        assert_array_equal(payload, np.arange(24, dtype=np.float32))

    def test_header_fields(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros((3, 5), dtype=np.float32), path)
        blob = path.read_bytes()
        assert blob[:4] == b"SLSA"
        version, ndim = struct.unpack_from("<II", blob, 4)
        assert (version, ndim) == (1, 2)
        assert struct.unpack_from("<2Q", blob, 12) == (3, 5)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(SeldkitError):
            write_feature_file(np.array([1.0, np.inf]), tmp_path / "t.slsa")

    def test_beyond_float32_range_rejected(self, tmp_path):
        # finite in float64, but the float32 payload would hold +/-inf
        for value in (1e39, -1e39):
            with pytest.raises(SeldkitError):
                write_feature_file(np.array([1.0, value]), tmp_path / "t.slsa")
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros(3), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WAVE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_feature_file(path)
        path.write_bytes(b"SL")
        with pytest.raises(BadMagic):
            read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros(3), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            read_feature_file(path)

    def test_truncations(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros((2, 3), dtype=np.float32), path)
        blob = path.read_bytes()
        for cut in (8, 20, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedPayload):
                read_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros(3), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SeldkitError):
            read_feature_file(path)

    def test_payload_is_not_copied_on_write_or_read(self, tmp_path):
        # the payload goes to and comes from the file through its own
        # buffer: no bytes object of the whole file on either side
        tensor = np.random.default_rng(6).standard_normal(
            (7, 200, 4800)).astype(np.float32)
        payload_mib = tensor.nbytes / 2 ** 20
        path = tmp_path / "t.slsa"
        peak = helpers.traced_peak_mib
        assert peak(write_feature_file, tensor, path) <= 1.2 * payload_mib
        assert peak(read_feature_file, path) <= 1.2 * payload_mib
        assert_array_equal(read_feature_file(path), tensor)

    def test_result_is_writable_copy(self, tmp_path):
        path = tmp_path / "t.slsa"
        write_feature_file(np.zeros(3), path)
        got = read_feature_file(path)
        got[0] = 1.0
        assert got[0] == 1.0


class TestReadManifest:
    def test_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "audio_path,label_path,split\n"
            "a.wav,a.csv,train\n"
            "b.wav,b.csv,val\n"
        )
        manifest = read_manifest(path)
        assert len(manifest.entries) == 2
        assert manifest.entries[0].audio_path == "a.wav"
        assert manifest.entries[1].split == "val"

    def test_extra_columns_allowed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("audio_path,label_path,split,note\na.wav,a.csv,train,x\n")
        assert len(read_manifest(path).entries) == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("audio_path,split\na.wav,train\n")
        with pytest.raises(MalformedRow):
            read_manifest(path)

    def test_empty_audio_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("audio_path,label_path,split\n,a.csv,train\n")
        with pytest.raises(MalformedRow):
            read_manifest(path)

    def test_audio_label_collision(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("audio_path,label_path,split\na.wav,a.wav,train\n")
        with pytest.raises(SeldkitError):
            read_manifest(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("audio_path,label_path,split\na.wav,a.csv,train\nb.wav\n")
        with pytest.raises(MalformedRow, match="m.csv:3"):
            read_manifest(path)

    def test_errors_name_the_line_after_blank_lines(self, tmp_path):
        # rows used to be numbered by count, so each blank line moved every
        # later error one line up
        path = tmp_path / "m.csv"
        path.write_text("audio_path,label_path,split\n\na.wav,a.csv,train\n\nb.wav\n")
        with pytest.raises(MalformedRow, match="m.csv:5: missing fields"):
            read_manifest(path)
        path.write_text(
            "audio_path,label_path,split\n\nx.wav,a.csv,train\n\n\nx.wav,b.csv,val\n")
        with pytest.raises(SeldkitError, match=r"m.csv:6: .*m.csv:3$"):
            read_manifest(path)

    def test_unreadable_text_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        for blob in (b"\xff\xfeaudio_path,label_path,split\n",
                     b"audio_path,label_path,split\n" + b"x" * 200_000 + b"\n"):
            path.write_bytes(blob)
            with pytest.raises(MalformedRow, match="m.csv"):
                read_manifest(path)

    @pytest.mark.parametrize("text, line", [
        ("audio_path,label_path,split\na\0.wav,a.csv,train\n", 2),
        ("audio_path,label_path,split\na.wav,a.csv,train\nb.wav,b\0.csv,val\n", 3),
        ("audio_path,label_path,split\na.wav,a.csv,tr\0ain\n", 2),
        ("audio_path,label_path,split,note\na.wav,a.csv,train,\0\n", 2),
        ("audio_path,label_path,split\r\na.wav,a.csv,train\r\n\0\r\n", 3),
        ('audio_path,label_path,split\n"a\nb\0.wav",a.csv,train\n', 3),
        ("audio_path,label_path,split,\0\na.wav,a.csv,train\n", 1),
    ])
    def test_nul_byte_rejected_naming_the_line(self, tmp_path, text, line):
        # no path can hold a NUL: extract used to exit 2 with "ValueError:
        # embedded null byte" when opening such an audio path
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        message = f"^{re.escape(str(path))}:{line}: NUL byte$"
        with pytest.raises(MalformedRow, match=message):
            read_manifest(path)

    def test_duplicate_audio(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "audio_path,label_path,split\na.wav,a.csv,train\na.wav,b.csv,val\n"
        )
        with pytest.raises(SeldkitError):
            read_manifest(path)

    def test_output_stem_collision(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "audio_path,label_path,split\n"
            "a/x.wav,a.csv,train\nc.wav,c.csv,train\nb/x.flac,b.csv,val\n"
        )
        with pytest.raises(SeldkitError, match=r"m.csv:4: .*b/x.flac.*m.csv:2"):
            read_manifest(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_feature_file(np.zeros(3), tmp_path / "t.slsa")
            write_label_csv([Event(0, 0, 0.0, 0.0)], tmp_path / "l.csv")
        finally:
            os.umask(old)
        for name in ("t.slsa", "l.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_synced_before_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write_feature_file(np.zeros(3), tmp_path / "t.slsa")
        assert calls == ["fsync", "replace"]
