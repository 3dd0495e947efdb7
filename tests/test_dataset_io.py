"""Tests for WAV/CSV/manifest readers and the SLSA feature container."""

import os
import re
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.io import wavfile

import helpers
from seldkit import (
    Event,
    Events,
    MultichannelClip,
    normalize_azimuth,
    read_feature_file,
    read_foa_wav,
    read_label_csv,
    read_manifest,
    write_feature_file,
    write_label_csv,
)
from seldkit.errors import (
    BadMagic,
    ClassOutOfRange,
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
        assert clip.n_samples == 600
        assert clip.sample_rate == 24000
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

    def test_wrong_rate(self):
        with pytest.raises(WrongSampleRate):
            MultichannelClip(np.zeros((4, 600)), sample_rate=48000)


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

    def test_unreadable_text_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        for blob in (b"\xff\xfeaudio_path,label_path,split\n",
                     b"audio_path,label_path,split\n" + b"x" * 200_000 + b"\n"):
            path.write_bytes(blob)
            with pytest.raises(MalformedRow, match="m.csv"):
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
