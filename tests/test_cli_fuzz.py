"""`seldkit extract` and `seldkit augment` report any manifest or config
bytes they cannot use as input errors.

A valid manifest (one readable clip, one missing, one directory) and a
valid augment config get bytes overwritten (NUL, quotes, separators, line
ends, bytes that are not UTF-8, any others), inserted and cut off. Each run
of cli.main must exit 0, or 1 with only "error:" lines on stderr; exit 2
would be an internal error. A run that exits 1 from augment writes nothing.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest

import helpers
from seldkit import Event, cli, encode
from seldkit.dataset_io import write_feature_file

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECIAL = st.sampled_from([b"\0", b'"', b",", b"\n", b"\r", b"\r\n", b"=", b"#",
                           b" ", b"\xff", b"\xc3", b"\xe2\x80\xa8", b"/", b".."])
EDIT = st.tuples(st.integers(0, 200), st.booleans(),
                 st.one_of(SPECIAL, st.binary(min_size=1, max_size=4)))
# {d} stands for the directory of the scene's files
MANIFEST = (b"audio_path,label_path,split\n{d}/clip.wav,{d}/clip.csv,train\n"
            b"{d}/gone.wav,,val\n{d}/folder.wav,x.csv,test\n")
CONFIG = (b"# knobs\ncs_prob = 0.5\nps_range = 3\nfs_prob = 1\ntm_prob = 0.5\n"
          b"tm_ratio_min = 0.05\ntm_ratio_max = 0.5\nmm_prob = 0.5\n"
          b"mm_beta_alpha = 0.2\nmode = custom\nseed = 5\n")


def edited(blob, edits, cut):
    """blob with each (offset, insert, patch) inserted at its offset or
    written over the bytes there, then cut at cut (None keeps it whole)."""
    blob = bytearray(blob)
    for offset, insert, patch in edits:
        offset = min(offset, len(blob))
        blob[offset:offset if insert else offset + len(patch)] = patch
    return bytes(blob[:cut])


def mutations(base):
    return st.builds(edited, st.just(base), st.lists(EDIT, max_size=4),
                     st.one_of(st.none(), st.integers(0, len(base))))


def run(argv):
    """cli.main's exit code, after checking it is 0 with nothing on stderr
    or 1 with only error lines there; warnings are recorded apart."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        rc = cli.main([str(arg) for arg in argv])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1), lines
    assert all(line.startswith("error: ") for line in lines), lines
    assert bool(lines) == (rc == 1), lines
    return rc


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 1-frame clip, a directory named like a WAV, a feature/label pair
    and a mixup partner."""
    d = tmp_path_factory.mktemp("cli_fuzz")
    helpers.write_wav(d / "clip.wav", helpers.make_noise_clip(n_samples=600, seed=3).samples)
    (d / "folder.wav").mkdir()
    rng = np.random.default_rng(4)
    for stem in ("a", "b"):
        write_feature_file(rng.standard_normal((7, 12, 16)).astype(np.float32),
                           d / f"{stem}.slsa")
        write_feature_file(encode([Event(1, 2, 30.0, 10.0)], 2), d / f"{stem}_labels.slsa")
    return d


@settings(max_examples=100, deadline=None)
@given(mutations(MANIFEST))
# a NUL in an audio path made extract exit 2 with "ValueError: embedded
# null byte"
@example(MANIFEST.replace(b"clip.wav", b"clip\0.wav"))
@example(MANIFEST.replace(b"split", b"split,\0"))
@example(MANIFEST.replace(b"\n", b"\r\n"))
@example(MANIFEST)
def test_any_manifest_bytes_exit_zero_or_one(scene, blob):
    manifest, out_dir = scene / "manifest.csv", scene / "out"
    manifest.write_bytes(blob.replace(b"{d}", str(scene).encode()))
    rc = run(["extract", manifest, out_dir])
    if blob == MANIFEST:  # two of its three clips cannot be read
        assert rc == 1 and (out_dir / "clip.slsa").exists()


def test_nul_in_an_audio_path_names_the_line(scene, capsys):
    manifest = scene / "nul.csv"
    manifest.write_bytes(b"audio_path,label_path,split\nclip\0.wav,,train\n")
    assert cli.main(["extract", str(manifest), str(scene / "out_nul")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:2: NUL byte\n"


@settings(max_examples=100, deadline=None)
@given(mutations(CONFIG))
@example(CONFIG.replace(b"mode = custom", b"mode = cus\0tom"))
@example(CONFIG.replace(b"ps_range = 3", b"ps_range = 1e-300"))
@example(CONFIG.replace(b"ps_range = 3", b"ps_range = 9223372036854775807"))
@example(CONFIG.replace(b"mm_beta_alpha = 0.2", b"mm_beta_alpha = 1e-300"))
@example(CONFIG.replace(b"tm_ratio_max = 0.5", b"tm_ratio_max = 0.99999"))
@example(CONFIG)
def test_any_augment_config_bytes_exit_zero_or_one(scene, blob):
    config = scene / "augment.cfg"
    config.write_bytes(blob)
    out_f, out_l = scene / "out.slsa", scene / "out_labels.slsa"
    for path in (out_f, out_l):
        path.unlink(missing_ok=True)
    rc = run(["augment", "--features", scene / "a.slsa", "--labels",
              scene / "a_labels.slsa", "--partner-features", scene / "b.slsa",
              "--partner-labels", scene / "b_labels.slsa", "--out-features", out_f,
              "--out-labels", out_l, "--config", config])
    assert out_f.exists() == out_l.exists() == (rc == 0)
    if blob == CONFIG:
        assert rc == 0
