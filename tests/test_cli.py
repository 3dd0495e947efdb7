"""End-to-end tests for the command line front end.

Every test but one drives cli.main in process and checks the exit code,
the text on stdout/stderr, and the bytes of any files written; the extract
thread test runs the command in child processes. Subcommand plumbing is
verified against direct library calls on the same inputs.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from seldkit import accdoa, augment, cli, features
from seldkit.dataset_io import (
    read_feature_file,
    read_label_csv,
    write_feature_file,
    write_label_csv,
)

IDENTITY_CONFIG = """\
# every knob off
cs_prob = 0
fs_prob = 0
tm_prob = 0
mm_prob = 0
ps_range = 0
"""


def nonempty_events(seed, n_frames=20):
    rng = np.random.default_rng(seed)
    events = helpers.random_events(rng, n_frames, integer_angles=True)
    while not events:
        events = helpers.random_events(rng, n_frames, integer_angles=True)
    return events


def write_manifest(path, rows):
    lines = ["audio_path,label_path,split"]
    lines += [f"{audio},{label},{split}" for audio, label, split in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_feature_label_pair(tmp_path, seed, n_labels=20, stem="a"):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((7, 30, 8 * n_labels)).astype(np.float32)
    labs = accdoa.encode(nonempty_events(seed, n_labels), n_labels)
    f_path = tmp_path / f"{stem}.slsa"
    l_path = tmp_path / f"{stem}_labels.slsa"
    write_feature_file(feats, f_path)
    write_feature_file(labs, l_path)
    return f_path, l_path


class TestEncodeDecodeCmd:
    def test_round_trip_through_files(self, tmp_path, capsys):
        events = nonempty_events(0)
        csv_in = tmp_path / "ref.csv"
        tensor = tmp_path / "t.slsa"
        csv_out = tmp_path / "back.csv"
        write_label_csv(events, csv_in)

        rc = cli.main(["encode", str(csv_in), "--frames", "20",
                       "--out", str(tensor)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == f"wrote {tensor} ({len(events)} events, 20 frames)\n"

        rc = cli.main(["decode", str(tensor), "--out", str(csv_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == f"wrote {csv_out} ({len(events)} events at threshold 0.5)\n"
        assert list(read_label_csv(csv_out)) == list(read_label_csv(csv_in))

    def test_decode_threshold_flag(self, tmp_path, capsys):
        events = nonempty_events(1)
        tensor = tmp_path / "t.slsa"
        write_feature_file(accdoa.encode(events, 20), tensor)
        csv_out = tmp_path / "none.csv"
        rc = cli.main(["decode", str(tensor), "--threshold", "1.5",
                       "--out", str(csv_out)])
        assert rc == 0
        assert "(0 events at threshold 1.5)" in capsys.readouterr().out
        assert list(read_label_csv(csv_out)) == []

    def test_encode_rejects_out_of_range_frame(self, tmp_path, capsys):
        csv_in = tmp_path / "ref.csv"
        csv_in.write_text("25,3,0,10,5\n", encoding="utf-8")
        rc = cli.main(["encode", str(csv_in), "--frames", "20",
                       "--out", str(tmp_path / "t.slsa")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_classes_flag(self, tmp_path, capsys):
        csv_in = tmp_path / "ref.csv"
        csv_in.write_text("0,13,0,10,5\n", encoding="utf-8")
        tensor = tmp_path / "t.slsa"
        rc = cli.main(["encode", str(csv_in), "--frames", "2",
                       "--classes", "14", "--out", str(tensor)])
        assert rc == 0
        capsys.readouterr()
        assert read_feature_file(tensor).shape == (3, 14, 2)


def write_raw_slsa(path, tensor):
    """An SLSA container written byte by byte, so it can hold the non-finite
    values write_feature_file refuses."""
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    header = b"SLSA" + struct.pack("<II", 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


class TestNonFiniteTensor:
    """A tensor with an inf or nan cell is an input error: exit 1 with one
    "error:" line, and no output file."""

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("command", ["decode", "score_sweep", "ensemble_csv"])
    def test_exit_one(self, tmp_path, capsys, command, value):
        events = nonempty_events(40)
        tensor = accdoa.encode(events, 20)
        tensor[2, 5, 7] = value
        bad = tmp_path / "bad.slsa"
        write_raw_slsa(bad, tensor)
        ref = tmp_path / "ref.csv"
        write_label_csv(events, ref)
        out = tmp_path / "out.csv"
        argv = {
            "decode": ["decode", str(bad), "--out", str(out)],
            "score_sweep": ["score", str(bad), str(ref), "--sweep",
                            "--report", str(out)],
            "ensemble_csv": ["ensemble", str(bad), "--out",
                             str(tmp_path / "avg.slsa"), "--csv", str(out)],
        }[command]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1, captured.err
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert not out.exists()
        assert not (tmp_path / "avg.slsa").exists()
        if command != "ensemble_csv":
            assert "class 5 in frame 7" in captured.err


class TestScoreCmd:
    def test_perfect_line(self, tmp_path, capsys):
        events = nonempty_events(2)
        ref = tmp_path / "ref.csv"
        write_label_csv(events, ref)
        rc = cli.main(["score", str(ref), str(ref)])
        assert rc == 0
        assert capsys.readouterr().out == "ER 0.00 F1 100.0 LE 0.0 LR 100.0\n"

    def test_report_csv(self, tmp_path, capsys):
        events = nonempty_events(3)
        ref = tmp_path / "ref.csv"
        write_label_csv(events, ref)
        report = tmp_path / "scores.csv"
        rc = cli.main(["score", str(ref), str(ref), "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == "er,0.000000"
        assert lines[2] == "f1,100.000000"
        assert lines[5] == "er_undefined,0"

    @pytest.mark.parametrize("sweep", [False, True])
    def test_failed_report_write_keeps_old_report(self, tmp_path, capsys,
                                                  monkeypatch, sweep):
        events = nonempty_events(3)
        ref = tmp_path / "ref.csv"
        write_label_csv(events, ref)
        pred = ref
        if sweep:
            pred = tmp_path / "pred.slsa"
            write_feature_file(accdoa.encode(events, 20), pred)
        report = tmp_path / "scores.csv"
        report.write_bytes(b"old report\n")

        def replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", replace)
        argv = ["score", str(pred), str(ref), "--report", str(report)]
        rc = cli.main(argv + (["--sweep"] if sweep else []))
        assert rc == 1
        assert capsys.readouterr().err == "error: disk gone\n"
        assert report.read_bytes() == b"old report\n"
        assert set(tmp_path.iterdir()) == {ref, pred, report}

    def test_sweep_over_tensor(self, tmp_path, capsys):
        events = nonempty_events(4)
        ref = tmp_path / "ref.csv"
        write_label_csv(events, ref)
        tensor = tmp_path / "pred.slsa"
        write_feature_file(accdoa.encode(events, 20), tensor)
        report = tmp_path / "sweep.csv"
        rc = cli.main(["score", str(tensor), str(ref), "--sweep",
                       "--report", str(report)])
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 4
        assert out_lines[0].split() == ["thr", "ER", "F1", "LE", "LR"]
        for line in out_lines[1:]:
            fields = line.split()
            assert fields[1] == "0.00"
            assert fields[2] == "100.0"
        csv_lines = report.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "threshold,er,f1,le,lr"
        assert [l.split(",")[0] for l in csv_lines[1:]] == ["0.3", "0.5", "0.7"]
        assert csv_lines[1] == "0.3,0.000000,100.000000,0.000000,100.000000"

    def test_average_flag_is_validated(self, tmp_path):
        ref = tmp_path / "ref.csv"
        write_label_csv(nonempty_events(5), ref)
        with pytest.raises(SystemExit) as exc:
            cli.main(["score", str(ref), str(ref), "--average", "weighted"])
        assert exc.value.code == 1

    def test_missing_reference_file(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        write_label_csv(nonempty_events(6), ref)
        rc = cli.main(["score", str(ref), str(tmp_path / "absent.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExtractCmd:
    def make_scene(self, tmp_path, n_clips=2):
        rows = []
        for i in range(n_clips):
            wav = tmp_path / f"clip{i}.wav"
            if i % 2 == 0:
                clip = helpers.make_plane_wave_clip(40.0, 20.0,
                                                    n_samples=12000, seed=i)
            else:
                clip = helpers.make_noise_clip(n_samples=12000, seed=i)
            helpers.write_wav(wav, clip.samples)
            rows.append((str(wav), str(tmp_path / f"clip{i}.csv"), "train"))
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, rows)
        return manifest, rows

    def test_writes_salsa_features(self, tmp_path, capsys):
        manifest, rows = self.make_scene(tmp_path)
        out_dir = tmp_path / "feat"
        rc = cli.main(["extract", str(manifest), str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        for audio, _, _ in rows:
            out_path = out_dir / (Path(audio).stem + ".slsa")
            assert f"wrote {out_path}" in out
            from seldkit.dataset_io import read_foa_wav

            want = np.ascontiguousarray(
                features.salsa(read_foa_wav(audio)), dtype=np.float32
            )
            assert np.array_equal(read_feature_file(out_path), want)

    def test_output_stem_collision_rejected(self, tmp_path, capsys):
        rows = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            wav = tmp_path / sub / "x.wav"
            helpers.write_wav(wav, helpers.make_noise_clip(n_samples=12000).samples)
            rows.append((str(wav), str(tmp_path / sub / "x.csv"), "train"))
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, rows)
        out_dir = tmp_path / "feat"
        rc = cli.main(["extract", str(manifest), str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert f"{manifest}:3" in err and f"{manifest}:2" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_stats_path_of_a_clip_output_rejected(self, tmp_path, capsys,
                                                  existing):
        # the second clip's features would be written over the stats file;
        # the path is spelt through ".." so only the resolved paths match
        manifest, rows = self.make_scene(tmp_path)
        out_dir = tmp_path / "feat"
        stats = out_dir / ".." / "feat" / (Path(rows[1][0]).stem + ".slsa")
        if existing:
            out_dir.mkdir()
            stats.write_bytes(b"stats bytes")
        rc = cli.main(["extract", str(manifest), str(out_dir),
                       "--stats", str(stats)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert rows[1][0] in err
        if existing:
            assert [p.name for p in out_dir.iterdir()] == [stats.name]
            assert stats.read_bytes() == b"stats bytes"
        else:
            assert not out_dir.exists()

    @pytest.mark.parametrize("over", ["manifest", "audio"])
    def test_output_over_an_input_fails_before_any_clip(self, tmp_path, capsys,
                                                         monkeypatch, over):
        # "manifest": extract feat/clip1.slsa feat, whose clip1.wav row
        # would be written over it; "audio": a row lists w/feat/clip1.slsa,
        # RIFF bytes that extracting into w/feat would replace
        out_dir = tmp_path / "w" / "feat"
        out_dir.mkdir(parents=True)
        manifest, rows = self.make_scene(tmp_path)
        if over == "manifest":
            victim = out_dir / "clip1.slsa"
            write_manifest(victim, rows)
            manifest = victim
        else:
            victim = out_dir / "clip1.slsa"
            victim.write_bytes(Path(rows[1][0]).read_bytes())
            write_manifest(manifest, [rows[0], (str(victim), rows[1][1], "train")])
        before = victim.read_bytes()
        calls = []
        monkeypatch.setattr(features, "salsa", lambda clip: calls.append(clip))
        rc = cli.main(["extract", str(manifest), str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1 and calls == []
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"error: {over} {victim} and features of ")
        assert err.endswith(" are the same file") and "\n" not in err
        assert victim.read_bytes() == before
        assert [p.name for p in out_dir.iterdir()] == [victim.name]

    @pytest.mark.parametrize("kind", ["not_slsa", "wrong_bins"])
    def test_unusable_stats_fail_before_any_clip(self, tmp_path, capsys,
                                                 monkeypatch, kind):
        manifest, _ = self.make_scene(tmp_path, n_clips=3)
        stats = tmp_path / "stats.slsa"
        if kind == "not_slsa":
            stats.write_bytes(b"frame,class\n")
        else:
            write_feature_file(np.ones((2, 7, 100)), stats)
        stats_bytes = stats.read_bytes()
        calls = []
        salsa = features.salsa
        monkeypatch.setattr(features, "salsa",
                            lambda clip: calls.append(clip) or salsa(clip))
        out_dir = tmp_path / "feat"
        rc = cli.main(["extract", str(manifest), str(out_dir), "--stats", str(stats)])
        captured = capsys.readouterr()
        assert rc == 1 and calls == []
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err and str(stats) in err
        assert list(tmp_path.rglob("*.slsa")) == [stats]
        assert stats.read_bytes() == stats_bytes

    def test_threads_do_not_change_output(self, tmp_path):
        # the command as a user runs it, with stats fitted on the way:
        # one worker and two must write the same features and stats
        manifest, rows = self.make_scene(tmp_path, n_clips=3)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        outputs = []
        for threads in ("1", "2"):
            out_dir, stats = tmp_path / f"t{threads}", tmp_path / f"t{threads}.slsa"
            proc = subprocess.run(
                [sys.executable, "-m", "seldkit.cli", "extract", str(manifest),
                 str(out_dir), "--stats", str(stats), "--threads", threads],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            names = sorted(p.name for p in out_dir.iterdir())
            assert names == sorted(Path(a).stem + ".slsa" for a, _, _ in rows)
            outputs.append([stats.read_bytes()]
                           + [(out_dir / n).read_bytes() for n in names])
        assert outputs[0] == outputs[1]

    def test_stats_fit_then_reuse(self, tmp_path, capsys):
        manifest, rows = self.make_scene(tmp_path)
        stats_path = tmp_path / "norm.slsa"

        rc = cli.main(["extract", str(manifest), str(tmp_path / "d1"),
                       "--stats", str(stats_path)])
        assert rc == 0
        assert f"fitted stats over 2 clips -> {stats_path}" in \
            capsys.readouterr().out
        assert stats_path.exists()

        rc = cli.main(["extract", str(manifest), str(tmp_path / "d2"),
                       "--stats", str(stats_path)])
        assert rc == 0
        assert "fitted" not in capsys.readouterr().out
        # the fitting run normalizes through the saved file as well
        for audio, _, _ in rows:
            name = Path(audio).stem + ".slsa"
            assert (tmp_path / "d1" / name).read_bytes() == \
                (tmp_path / "d2" / name).read_bytes()

        # a reusing run must equal: load stats, normalize fresh features
        from seldkit.dataset_io import read_foa_wav

        stats = features.load_norm_stats(stats_path)
        for audio, _, _ in rows:
            want = np.ascontiguousarray(
                features.normalize(features.salsa(read_foa_wav(audio)), stats),
                dtype=np.float32,
            )
            got = read_feature_file(tmp_path / "d2" / (Path(audio).stem + ".slsa"))
            assert np.array_equal(got, want)

        rc = cli.main(["extract", str(manifest), str(tmp_path / "d3"),
                       "--stats", str(stats_path)])
        capsys.readouterr()
        assert rc == 0
        for audio, _, _ in rows:
            name = Path(audio).stem + ".slsa"
            assert (tmp_path / "d2" / name).read_bytes() == \
                (tmp_path / "d3" / name).read_bytes()

    def test_failed_write_stops_the_run(self, tmp_path, capsys):
        # a directory where the first clip's .slsa goes makes its write
        # fail; the run stops there, so no later clip is written
        manifest, rows = self.make_scene(tmp_path)
        out_dir = tmp_path / "feat"
        (out_dir / (Path(rows[0][0]).stem + ".slsa")).mkdir(parents=True)
        rc = cli.main(["extract", str(manifest), str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "wrote" not in captured.out
        assert not (out_dir / (Path(rows[1][0]).stem + ".slsa")).exists()
        assert not list(out_dir.glob("*.tmp"))

    def test_missing_audio_reported_and_rest_written(self, tmp_path, capsys):
        wav = tmp_path / "good.wav"
        helpers.write_wav(wav, helpers.make_noise_clip(n_samples=12000).samples)
        manifest = tmp_path / "manifest.csv"
        missing = tmp_path / "nowhere.wav"
        write_manifest(manifest, [
            (str(wav), "x.csv", "train"),
            (str(missing), "y.csv", "train"),
        ])
        rc = cli.main(["extract", str(manifest), str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert (tmp_path / "out" / "good.slsa").exists()

    @pytest.mark.parametrize("stats", [False, True])
    def test_every_clip_failing_still_names_each_clip(self, tmp_path, capsys,
                                                      stats):
        # a failed stats fit (no frames at all) must not hide why the clips
        # failed, and each failure names its path once
        wavs = [tmp_path / "truncated.wav", tmp_path / "short.wav"]
        wavs[0].write_bytes(b"RIFF\x00\x00")
        helpers.write_wav(wavs[1], np.zeros((4, 300)))
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [(str(w), f"{w.stem}.csv", "train") for w in wavs])
        argv = ["extract", str(manifest), str(tmp_path / "out")]
        if stats:
            argv += ["--stats", str(tmp_path / "stats.slsa")]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 + stats
        for wav, line in zip(wavs, lines):
            assert line.startswith(f"error: {wav}: ")
            assert line.count(str(wav)) == 1
        if stats:
            assert lines[2] == "error: no feature frames to fit statistics on"
            assert not (tmp_path / "stats.slsa").exists()

    def test_cut_wav_reported_and_rest_written(self, tmp_path, capsys):
        # a data chunk declaring more bytes than the file holds is an input
        # error, not a short clip
        manifest, rows = self.make_scene(tmp_path)
        cut = Path(rows[1][0])
        blob = bytearray(cut.read_bytes())
        at = blob.index(b"data") + 4
        blob[at:at + 4] = struct.pack("<I", 0xFFFFFFF0)
        cut.write_bytes(bytes(blob))
        out_dir = tmp_path / "out"
        rc = cli.main(["extract", str(manifest), str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: {cut}: data chunk declares")
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in out_dir.iterdir()) == \
            [Path(rows[0][0]).stem + ".slsa"]

    def test_thread_count_validated(self, tmp_path, capsys):
        manifest, _ = self.make_scene(tmp_path, n_clips=1)
        rc = cli.main(["extract", str(manifest), str(tmp_path / "out"),
                       "--threads", "0"])
        assert rc == 1
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestAugmentCmd:
    def test_identity_config_copies_input(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=7)
        config = tmp_path / "id.cfg"
        config.write_text(IDENTITY_CONFIG, encoding="utf-8")
        f_out = tmp_path / "out.slsa"
        l_out = tmp_path / "out_labels.slsa"
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in), "--out-features", str(f_out),
                       "--out-labels", str(l_out), "--config", str(config)])
        assert rc == 0
        assert capsys.readouterr().out == \
            f"wrote {f_out} and {l_out} (seed {augment.DEFAULT_SEED})\n"
        assert f_out.read_bytes() == f_in.read_bytes()
        assert l_out.read_bytes() == l_in.read_bytes()

    def test_spare_feature_frames_are_trimmed(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((7, 30, 165)).astype(np.float32)
        labs = accdoa.encode(nonempty_events(8, 20), 20)
        f_in = tmp_path / "a.slsa"
        l_in = tmp_path / "a_labels.slsa"
        write_feature_file(feats, f_in)
        write_feature_file(labs, l_in)
        config = tmp_path / "id.cfg"
        config.write_text(IDENTITY_CONFIG, encoding="utf-8")
        f_out = tmp_path / "out.slsa"
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in), "--out-features", str(f_out),
                       "--out-labels", str(tmp_path / "out_l.slsa"),
                       "--config", str(config)])
        assert rc == 0
        capsys.readouterr()
        got = read_feature_file(f_out)
        assert got.shape == (7, 30, 160)
        assert np.array_equal(got, feats[:, :, :160])

    def test_misaligned_features_rejected(self, tmp_path, capsys):
        labs = accdoa.encode(nonempty_events(9, 20), 20)
        config = tmp_path / "id.cfg"
        config.write_text(IDENTITY_CONFIG, encoding="utf-8")
        for n_frames in (152, 170):
            rng = np.random.default_rng(n_frames)
            f_in = tmp_path / f"f{n_frames}.slsa"
            l_in = tmp_path / f"l{n_frames}.slsa"
            write_feature_file(
                rng.standard_normal((7, 30, n_frames)).astype(np.float32), f_in
            )
            write_feature_file(labs, l_in)
            rc = cli.main(["augment", "--features", str(f_in),
                           "--labels", str(l_in),
                           "--out-features", str(tmp_path / "of.slsa"),
                           "--out-labels", str(tmp_path / "ol.slsa"),
                           "--config", str(config)])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        [], ["--fs-prob", "1"], ["--mode", "tm_mm", "--tm-prob", "1"],
    ])
    def test_no_label_frames_exit_one(self, tmp_path, capsys, flags):
        f_in = tmp_path / "f.slsa"
        l_in = tmp_path / "l.slsa"
        write_feature_file(np.zeros((7, 200, 0)), f_in)
        write_feature_file(np.zeros((3, 13, 0)), l_in)
        rc = cli.main(["augment", "--features", str(f_in), "--labels", str(l_in),
                       "--out-features", str(tmp_path / "of.slsa"),
                       "--out-labels", str(tmp_path / "ol.slsa"), *flags])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err == "error: no label frames to augment\n"
        assert not (tmp_path / "of.slsa").exists()

    @pytest.mark.filterwarnings("ignore:mode=all:RuntimeWarning")
    def test_seed_makes_runs_repeatable(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=10)
        config = tmp_path / "busy.cfg"
        config.write_text(
            "cs_prob = 1\nps_range = 2\nfs_prob = 1\n"
            "tm_prob = 1\nmm_prob = 0\nmode = all\n",
            encoding="utf-8",
        )
        outs = []
        for run, seed in enumerate(("123", "123", "124")):
            f_out = tmp_path / f"f{run}.slsa"
            l_out = tmp_path / f"l{run}.slsa"
            rc = cli.main(["augment", "--features", str(f_in),
                           "--labels", str(l_in),
                           "--out-features", str(f_out),
                           "--out-labels", str(l_out),
                           "--config", str(config), "--seed", seed])
            assert rc == 0
            outs.append(f_out.read_bytes() + l_out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_flags_override_config_file(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=11)
        config = tmp_path / "id.cfg"
        config.write_text(IDENTITY_CONFIG, encoding="utf-8")
        f_out = tmp_path / "out.slsa"
        l_out = tmp_path / "out_l.slsa"
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in), "--out-features", str(f_out),
                       "--out-labels", str(l_out), "--config", str(config),
                       "--cs-prob", "1", "--seed", "5"])
        assert rc == 0
        capsys.readouterr()

        cfg, seed = augment.config_from_mapping(
            {"cs_prob": "1", "fs_prob": "0", "tm_prob": "0", "mm_prob": "0",
             "ps_range": "0", "seed": "5"}
        )
        feats = read_feature_file(f_in)
        labs = read_feature_file(l_in).astype(np.float64)
        want_f, want_l = augment.augment_pipeline(
            (feats, labs), None, cfg, augment.make_rng(seed)
        )
        assert np.array_equal(read_feature_file(f_out),
                              np.ascontiguousarray(want_f, dtype=np.float32))
        assert np.array_equal(read_feature_file(l_out),
                              np.ascontiguousarray(want_l, dtype=np.float32))

    def test_mixup_with_partner(self, tmp_path, capsys):
        f_a, l_a = make_feature_label_pair(tmp_path, seed=12, stem="a")
        f_b, l_b = make_feature_label_pair(tmp_path, seed=13, stem="b")
        f_out = tmp_path / "out.slsa"
        l_out = tmp_path / "out_l.slsa"
        rc = cli.main(["augment", "--features", str(f_a), "--labels", str(l_a),
                       "--partner-features", str(f_b),
                       "--partner-labels", str(l_b),
                       "--out-features", str(f_out),
                       "--out-labels", str(l_out),
                       "--cs-prob", "0", "--fs-prob", "0", "--tm-prob", "0",
                       "--mm-prob", "1", "--ps-range", "0", "--seed", "21"])
        assert rc == 0
        capsys.readouterr()

        cfg, seed = augment.config_from_mapping(
            {"cs_prob": "0", "fs_prob": "0", "tm_prob": "0", "mm_prob": "1",
             "ps_range": "0", "seed": "21"}
        )
        pair_a = (read_feature_file(f_a), read_feature_file(l_a).astype(np.float64))
        pair_b = (read_feature_file(f_b), read_feature_file(l_b).astype(np.float64))
        want_f, want_l = augment.augment_pipeline(
            pair_a, pair_b, cfg, augment.make_rng(seed)
        )
        assert np.array_equal(read_feature_file(f_out),
                              np.ascontiguousarray(want_f, dtype=np.float32))
        got_l = read_feature_file(l_out)
        assert np.array_equal(got_l, np.ascontiguousarray(want_l, np.float32))
        # the mixed label must be one of the two inputs, never a blend
        assert (np.array_equal(got_l, read_feature_file(l_a))
                or np.array_equal(got_l, read_feature_file(l_b)))

    def test_partner_flags_must_pair(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=14)
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in),
                       "--out-features", str(tmp_path / "of.slsa"),
                       "--out-labels", str(tmp_path / "ol.slsa"),
                       "--partner-features", str(f_in),
                       "--mm-prob", "0"])
        assert rc == 1
        assert "together" in capsys.readouterr().err

    def test_mode_all_warns(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=15)
        config = tmp_path / "id.cfg"
        config.write_text(IDENTITY_CONFIG, encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            rc = cli.main(["augment", "--features", str(f_in),
                           "--labels", str(l_in),
                           "--out-features", str(tmp_path / "of.slsa"),
                           "--out-labels", str(tmp_path / "ol.slsa"),
                           "--config", str(config), "--mode", "all"])
        assert rc == 0
        capsys.readouterr()

    def test_partner_of_another_shape_exits_one_whatever_the_seed(self, tmp_path,
                                                                 capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=17, n_labels=10)
        f_b, l_b = make_feature_label_pair(tmp_path, seed=18, n_labels=20, stem="b")
        f_out, l_out = tmp_path / "of.slsa", tmp_path / "ol.slsa"
        errors = set()
        for seed in range(12):
            rc = cli.main(["augment", "--features", str(f_in), "--labels", str(l_in),
                           "--partner-features", str(f_b), "--partner-labels", str(l_b),
                           "--out-features", str(f_out), "--out-labels", str(l_out),
                           "--seed", str(seed)])
            assert rc == 1
            errors.add(capsys.readouterr().err)
            assert not f_out.exists() and not l_out.exists()
        assert errors == {"error: feature shapes differ: (7, 30, 80) vs (7, 30, 160)\n"}

    @pytest.mark.parametrize("seed", ["0", "17"])
    def test_missing_partner_exits_one_whatever_the_seed(self, tmp_path, capsys,
                                                         seed):
        # the default config mixes with probability 0.5; the missing partner
        # is an input error even on seeds whose mixup coin would not land
        f_in, l_in = make_feature_label_pair(tmp_path, seed=16)
        f_out, l_out = tmp_path / "of.slsa", tmp_path / "ol.slsa"
        rc = cli.main(["augment", "--features", str(f_in), "--labels", str(l_in),
                       "--out-features", str(f_out), "--out-labels", str(l_out),
                       "--seed", seed])
        assert rc == 1
        assert "mixup partner" in capsys.readouterr().err
        assert not f_out.exists() and not l_out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_one_file_for_both_outputs_rejected(self, tmp_path, capsys, existing):
        # --out-labels is spelt through ".." so only the resolved paths
        # match; the check comes before any read, so with no input files
        # it is still the error reported
        f_in, l_in = (make_feature_label_pair(tmp_path, seed=16) if existing
                      else (tmp_path / "none.slsa", tmp_path / "none_labels.slsa"))
        (tmp_path / "sub").mkdir()
        out = tmp_path / "o.slsa"
        if existing:
            out.write_bytes(b"old bytes")
        rc = cli.main(["augment", "--features", str(f_in), "--labels", str(l_in),
                       "--out-features", str(out),
                       "--out-labels", str(tmp_path / "sub" / ".." / "o.slsa"),
                       "--mm-prob", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "--out-features" in err and "--out-labels" in err
        assert "same file" in err
        if existing:
            assert out.read_bytes() == b"old bytes"
        else:
            assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=16)
        config = tmp_path / "bad.cfg"
        config.write_text("cs_probb = 0\n", encoding="utf-8")
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in),
                       "--out-features", str(tmp_path / "of.slsa"),
                       "--out-labels", str(tmp_path / "ol.slsa"),
                       "--config", str(config)])
        assert rc == 1
        assert "cs_probb" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "cs_prob = abc",
        "ps_range = 2.5",
        "seed = 1.5",
        "ps_range = 100000000000000000000",
        "mm_beta_alpha = inf",
    ])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, line):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=17)
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in),
                       "--out-features", str(tmp_path / "of.slsa"),
                       "--out-labels", str(tmp_path / "ol.slsa"),
                       "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        key, _, value = line.partition(" = ")
        assert key in err and value in err
        assert not (tmp_path / "of.slsa").exists()


    @pytest.mark.parametrize("flag, value", [
        ("--cs-prob", "abc"),
        ("--ps-range", "2.5"),
        ("--seed", "1.5"),
        ("--mode", "fs"),
        ("--tm-ratio-max", "1"),
    ])
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flag, value):
        f_in, l_in = make_feature_label_pair(tmp_path, seed=18)
        rc = cli.main(["augment", "--features", str(f_in),
                       "--labels", str(l_in),
                       "--out-features", str(tmp_path / "of.slsa"),
                       "--out-labels", str(tmp_path / "ol.slsa"), flag, value])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert value in err
        assert not (tmp_path / "of.slsa").exists()


class TestGradcheckCmd:
    def test_default_run_passes(self, capsys):
        rc = cli.main(["gradcheck"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for line, name in zip(lines, ("channel", "freq", "multi")):
            fields = line.split()
            assert fields[0] == f"{name}:"
            assert fields[1] == "PASS"
            assert fields[2] == "max_err_ratio"
            assert float(fields[3]) <= 1
        assert lines[3] == "15 checks total"

    def test_twenty_seeds_pass(self, capsys):
        # the relative error of a near-zero entry is rounding, not a wrong
        # gradient: a fixed relative threshold failed freq and multi here
        rc = cli.main(["gradcheck", "--seeds", "20"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 3

    def test_seeds_flag_changes_the_count(self, capsys):
        rc = cli.main(["gradcheck", "--seeds", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "6 checks total"

    def test_custom_shape_and_ratio(self, capsys):
        rc = cli.main(["gradcheck", "--shape", "4,8,3", "--ratio", "4",
                       "--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 3

    def test_ratio_must_divide(self, capsys):
        rc = cli.main(["gradcheck", "--ratio", "5"])
        assert rc == 1
        assert "divide" in capsys.readouterr().err

    def test_shape_must_be_three_ints(self, capsys):
        rc = cli.main(["gradcheck", "--shape", "4,6"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestNumericFlags:
    """A numeric flag outside its domain is an input error: exit 1 with one
    "error:" line and no output file."""

    @pytest.mark.parametrize("argv, message", [
        (["decode", "{t}", "--threshold", "nan", "--out", "{out}"], "threshold"),
        (["decode", "{t}", "--threshold", "inf", "--out", "{out}"], "threshold"),
        (["ensemble", "{t}", "--out", "{avg}", "--threshold", "nan",
          "--csv", "{out}"], "threshold"),
        (["encode", "{ref}", "--frames", "-1", "--out", "{out}"], "non-negative"),
        (["encode", "{empty}", "--frames", "5", "--classes", "-1",
          "--out", "{out}"], "non-negative"),
        (["encode", "{empty}", "--frames", "-200000000000", "--classes", "-1",
          "--out", "{out}"], "non-negative"),
        (["gradcheck", "--ratio", "0"], ">= 1"),
        (["gradcheck", "--seeds", "0"], ">= 1"),
        (["gradcheck", "--seeds", "-1"], ">= 1"),
        (["gradcheck", "--shape", "4,6,0"], ">= 1"),
    ], ids=["decode_nan", "decode_inf", "ensemble_csv_nan", "encode_frames",
            "encode_classes", "encode_both_negative", "gradcheck_ratio",
            "gradcheck_seeds_0", "gradcheck_seeds_neg", "gradcheck_shape"])
    def test_exit_one(self, tmp_path, capsys, argv, message):
        events = nonempty_events(41)
        paths = {"t": tmp_path / "t.slsa", "ref": tmp_path / "ref.csv",
                 "empty": tmp_path / "empty.csv", "out": tmp_path / "out",
                 "avg": tmp_path / "avg.slsa"}
        write_feature_file(accdoa.encode(events, 20), paths["t"])
        write_label_csv(events, paths["ref"])
        paths["empty"].write_text("", encoding="utf-8")
        rc = cli.main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1, captured.err
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert message in captured.err
        assert captured.out == ""
        assert not paths["out"].exists() and not paths["avg"].exists()


class TestFlagBudget:
    """A flag that sizes an array beyond the budget is an input error,
    checked before anything is allocated. The CLI runs in a child process
    whose address space is capped at 1 GiB, so an unchecked flag ends in a
    MemoryError there and never loads the machine."""

    @pytest.mark.parametrize("argv, flag", [
        (["encode", "{ref}", "--frames", "100000000000", "--out", "{out}"],
         "--frames and --classes"),
        (["encode", "{ref}", "--frames", "20", "--classes", "10000000000",
          "--out", "{out}"], "--frames and --classes"),
        (["gradcheck", "--shape", "4000,4000,4000"], "--shape"),
        (["gradcheck", "--shape", "1000000,1,1", "--ratio", "1"], "--shape"),
    ], ids=["encode_frames", "encode_classes", "gradcheck_shape",
            "gradcheck_weights"])
    def test_exit_one_under_capped_memory(self, tmp_path, argv, flag):
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        paths = {"ref": tmp_path / "ref.csv", "out": tmp_path / "out.slsa"}
        write_label_csv(nonempty_events(43), paths["ref"])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "seldkit.cli",
             *(arg.format(**paths) for arg in argv)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_address_space)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {flag}: "), proc.stderr
        assert "over the budget" in proc.stderr
        assert not paths["out"].exists()


class TestEnsembleCmd:
    def test_single_tensor_round_trips(self, tmp_path, capsys):
        events = nonempty_events(17)
        t_in = tmp_path / "t.slsa"
        write_feature_file(accdoa.encode(events, 20), t_in)
        t_out = tmp_path / "avg.slsa"
        rc = cli.main(["ensemble", str(t_in), "--out", str(t_out)])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote {t_out} (mean of 1 tensors)\n"
        assert t_out.read_bytes() == t_in.read_bytes()

    def test_mean_of_three(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        paths = []
        tensors = []
        for i in range(3):
            t = rng.uniform(-1, 1, size=(3, 13, 10)).astype(np.float32)
            p = tmp_path / f"t{i}.slsa"
            write_feature_file(t, p)
            paths.append(str(p))
            tensors.append(read_feature_file(p))
        t_out = tmp_path / "avg.slsa"
        rc = cli.main(["ensemble", *paths, "--out", str(t_out)])
        assert rc == 0
        capsys.readouterr()
        want = np.ascontiguousarray(
            accdoa.ensemble_average(tensors), dtype=np.float32
        )
        assert np.array_equal(read_feature_file(t_out), want)

    def test_csv_decoding(self, tmp_path, capsys):
        events = nonempty_events(19)
        t_in = tmp_path / "t.slsa"
        write_feature_file(accdoa.encode(events, 20), t_in)
        csv_out = tmp_path / "avg.csv"
        rc = cli.main(["ensemble", str(t_in), "--out", str(tmp_path / "a.slsa"),
                       "--csv", str(csv_out)])
        assert rc == 0
        assert f"wrote {csv_out}" in capsys.readouterr().out
        assert list(read_label_csv(csv_out)) == events

    def test_csv_is_the_decode_of_out(self, tmp_path, capsys):
        # three models put 0.5, 0.5 and the next float32 up in one cell:
        # the float64 mean is above 0.5, its float32 rounding in --out is
        # 0.5, so only a decode of the written tensor agrees with the file
        paths = []
        above = np.nextafter(np.float32(0.5), np.float32(1))
        for i, x in enumerate([0.5, 0.5, above]):
            t = np.zeros((3, 13, 10), dtype=np.float32)
            t[0, 4, 7] = x
            paths.append(str(tmp_path / f"t{i}.slsa"))
            write_feature_file(t, paths[-1])
        avg, csv_out, decoded = (tmp_path / "avg.slsa", tmp_path / "avg.csv",
                                 tmp_path / "dec.csv")
        assert cli.main(["ensemble", *paths, "--out", str(avg),
                         "--csv", str(csv_out)]) == 0
        assert cli.main(["decode", str(avg), "--out", str(decoded)]) == 0
        capsys.readouterr()
        assert read_feature_file(avg)[0, 4, 7] == np.float32(0.5)
        assert csv_out.read_bytes() == decoded.read_bytes() == b""

    @pytest.mark.parametrize("existing", [False, True])
    def test_one_file_for_out_and_csv_rejected(self, tmp_path, capsys, existing):
        # --csv is spelt through ".." so only the resolved paths match; the
        # check comes before any read, so with no input file it is still
        # the error reported
        t_in = tmp_path / "t.slsa"
        if existing:
            write_feature_file(accdoa.encode(nonempty_events(19), 20), t_in)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "e.out"
        if existing:
            out.write_bytes(b"old bytes")
        rc = cli.main(["ensemble", str(t_in), "--out", str(out),
                       "--csv", str(tmp_path / "sub" / ".." / "e.out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "--out" in err and "--csv" in err and "same file" in err
        if existing:
            assert out.read_bytes() == b"old bytes"
        else:
            assert not out.exists()

    def test_mismatched_shapes(self, tmp_path, capsys):
        p1 = tmp_path / "t1.slsa"
        p2 = tmp_path / "t2.slsa"
        write_feature_file(np.zeros((3, 13, 10), dtype=np.float32), p1)
        write_feature_file(np.zeros((3, 13, 11), dtype=np.float32), p2)
        rc = cli.main(["ensemble", str(p1), str(p2),
                       "--out", str(tmp_path / "a.slsa")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestStatsCmd:
    def test_fit_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        paths = []
        for i in range(2):
            p = tmp_path / f"f{i}.slsa"
            write_feature_file(
                rng.standard_normal((7, 30, 40)).astype(np.float32), p
            )
            paths.append(str(p))
        out = tmp_path / "norm.slsa"
        rc = cli.main(["stats", *paths, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote {out} (fitted on 2 files)\n"

        want_path = tmp_path / "want.slsa"
        features.save_norm_stats(
            features.compute_norm_stats(read_feature_file(p) for p in paths),
            want_path,
        )
        assert out.read_bytes() == want_path.read_bytes()

    def test_shape_mismatch_reported(self, tmp_path, capsys):
        p1 = tmp_path / "f1.slsa"
        p2 = tmp_path / "f2.slsa"
        write_feature_file(np.zeros((7, 30, 10), dtype=np.float32), p1)
        write_feature_file(np.zeros((7, 31, 10), dtype=np.float32), p2)
        rc = cli.main(["stats", str(p1), str(p2),
                       "--out", str(tmp_path / "n.slsa")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestNoOutputOverAnInput:
    """An output path that resolves to one of the command's inputs, or to
    another of its outputs, is refused before anything is read or written."""

    # argv, and the two flags the error names
    CASES = {
        "encode": (["encode", "{d}/ref.csv", "--frames", "20", "--out", "{d}/sub/../ref.csv"],
                   ("labels", "--out")),
        "decode": (["decode", "{d}/t.slsa", "--out", "{d}/t.slsa"], ("tensor", "--out")),
        "score": (["score", "{d}/ref.csv", "{d}/ref.csv", "--report", "{d}/ref.csv"],
                  ("pred", "--report")),
        "score_sweep": (["score", "{d}/t.slsa", "{d}/ref.csv", "--sweep",
                         "--report", "{d}/t.slsa"], ("pred", "--report")),
        "ensemble": (["ensemble", "{d}/t.slsa", "{d}/u.slsa", "--out", "{d}/u.slsa",
                      "--csv", "{d}/t.slsa"], ("tensor", "--out")),
        "ensemble_csv": (["ensemble", "{d}/t.slsa", "{d}/u.slsa", "--out", "{d}/new.slsa",
                          "--csv", "{d}/t.slsa"], ("tensor", "--csv")),
        "augment_labels": (["augment", "--features", "{d}/a.slsa", "--labels",
                            "{d}/a_labels.slsa", "--out-features", "{d}/new.slsa",
                            "--out-labels", "{d}/a_labels.slsa", "--mm-prob", "0"],
                           ("--labels", "--out-labels")),
        "augment_partner": (["augment", "--features", "{d}/a.slsa", "--labels",
                             "{d}/a_labels.slsa", "--partner-features", "{d}/t.slsa",
                             "--partner-labels", "{d}/u.slsa", "--out-features",
                             "{d}/sub/../t.slsa", "--out-labels", "{d}/new.slsa"],
                            ("--partner-features", "--out-features")),
        "augment_config": (["augment", "--features", "{d}/a.slsa", "--labels",
                            "{d}/a_labels.slsa", "--config", "{d}/id.cfg",
                            "--out-features", "{d}/new.slsa", "--out-labels", "{d}/id.cfg"],
                           ("--config", "--out-labels")),
        "stats": (["stats", "{d}/a.slsa", "{d}/t.slsa", "--out", "{d}/t.slsa"],
                  ("features", "--out")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_one_and_inputs_unchanged(self, tmp_path, capsys, case):
        d = tmp_path
        (d / "sub").mkdir()
        make_feature_label_pair(d, seed=19)
        write_label_csv(nonempty_events(19), d / "ref.csv")
        write_feature_file(accdoa.encode(nonempty_events(20), 20), d / "t.slsa")
        write_feature_file(accdoa.encode(nonempty_events(21), 20), d / "u.slsa")
        (d / "id.cfg").write_text(IDENTITY_CONFIG, encoding="utf-8")
        before = {p: p.read_bytes() for p in d.iterdir() if p.is_file()}
        argv, (flag_in, flag_out) = self.CASES[case]
        rc = cli.main([arg.format(d=d) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"error: {flag_in} {d}/") and "\n" not in err
        assert err.endswith(" are the same file") and f" and {flag_out} {d}/" in err
        assert {p: p.read_bytes() for p in d.iterdir() if p.is_file()} == before


class TestExitCodes:
    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "x.slsa", "--out", "y.csv", "--bogus"])
        assert exc.value.code == 1

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_missing_input_file_returns_one(self, tmp_path, capsys):
        rc = cli.main(["decode", str(tmp_path / "absent.slsa"),
                       "--out", str(tmp_path / "y.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_errors_return_two(self, tmp_path, capsys, monkeypatch):
        tensor = tmp_path / "t.slsa"
        write_feature_file(np.zeros((3, 13, 5), dtype=np.float32), tensor)

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.accdoa, "decode", boom)
        rc = cli.main(["decode", str(tensor), "--out", str(tmp_path / "y.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("internal error: RuntimeError")


BAD_INPUTS = {
    "non_utf8": b"\xff\xfe0,1,0,10,5\n",
    "random": np.random.default_rng(2024).bytes(512),
    "random_ascii": bytes(np.random.default_rng(2025).integers(9, 127, 512,
                                                              dtype=np.uint8)),
    "huge_field": b"x" * 200_000 + b"\n",
    "huge_int": b"0,1,0," + b"9" * 400 + b",5\n",
}


def contract_argv(command, bad, tmp_path):
    """argv that makes `command` read the file `bad` as its input."""
    out = str(tmp_path / "out")
    if command == "augment":
        f_in, l_in = make_feature_label_pair(tmp_path, seed=30)
        return ["augment", "--features", str(f_in), "--labels", str(l_in),
                "--config", bad, "--out-features", out, "--out-labels", out + "2"]
    ref = tmp_path / "ref.csv"
    write_label_csv(nonempty_events(31), ref)
    return {
        "encode": ["encode", bad, "--frames", "20", "--out", out],
        "score_pred": ["score", bad, str(ref)],
        "score_ref": ["score", str(ref), bad],
        "score_sweep": ["score", bad, str(ref), "--sweep"],
        "extract": ["extract", bad, out],
        "decode": ["decode", bad, "--out", out],
        "ensemble": ["ensemble", bad, "--out", out],
        "stats": ["stats", bad, "--out", out],
    }[command]


class TestInputBytesContract:
    """Whatever bytes an input file holds, the CLI reports an input error
    (exit 1, one "error:" line), never an internal one (exit 2)."""

    @pytest.mark.parametrize("payload", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("command", [
        "encode", "score_pred", "score_ref", "score_sweep", "extract",
        "augment", "decode", "ensemble", "stats",
    ])
    def test_bad_bytes_exit_one(self, tmp_path, capsys, command, payload):
        bad = tmp_path / "bad.in"
        bad.write_bytes(BAD_INPUTS[payload])
        rc = cli.main(contract_argv(command, str(bad), tmp_path))
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
