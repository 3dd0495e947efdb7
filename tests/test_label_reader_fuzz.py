"""The label CSV reader's two paths agree on any bytes, and the CLI
commands that read label CSVs report bad bytes as input errors.

read_label_csv parses a file of digits, commas, minus signs and newlines
(LF or CRLF) with np.loadtxt and sends everything else through the csv
module. Both must return the same events, or raise the same input error
with the same message, whatever the file holds; so must a file and its
CRLF copy.
"""

import contextlib
import io
import warnings

import pytest

from seldkit import Event, SeldkitError, cli, dataset_io, encode
from seldkit.dataset_io import (
    _read_label_rows,
    read_label_csv,
    write_feature_file,
    write_label_csv,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIELD = st.one_of(
    st.integers(-200, 200).map(str),
    st.sampled_from(["", "-", "--1", "1-", "007", "-0", "+4", " 7", "1_0",
                     '"5"', "\u0663", "1.5", "9223372036854775808",
                     "-9223372036854775809", "13", "89", "90", "-90", "-91"]),
)
ROW = st.lists(FIELD, min_size=1, max_size=7).map(",".join)
END = st.sampled_from(["\n", "\n", "\n", "\n\n", "\n \n", "\r\n", "\r", ""])
TEXT = st.lists(st.tuples(ROW, END), max_size=10).map(
    lambda rows: "".join(row + end for row, end in rows))
# rows of five integers, mostly in range, so that most files read
CLEAN_ROW = st.tuples(st.integers(-1, 30), st.integers(-1, 13), st.integers(0, 3),
                      st.integers(-400, 400), st.integers(-91, 90))
CLEAN = st.lists(st.tuples(CLEAN_ROW, st.sampled_from(["\n", "\n", "\n\n"])),
                 max_size=12).map(lambda rows: "".join(
                     ",".join(map(str, row)) + end for row, end in rows))
BLOB = st.one_of(
    CLEAN.map(str.encode),
    TEXT.map(lambda text: text.encode("utf-8")),
    st.text(alphabet="0123456789,-\n", max_size=60).map(str.encode),
    st.binary(max_size=40),
)
# files of clean rows where some rows have one field swapped for an
# integer of 300 or more digits, far beyond int64 and, as an azimuth,
# beyond the float range
HUGE = st.tuples(st.sampled_from(["", "-"]), st.sampled_from("19"),
                 st.integers(300, 400)).map(lambda t: t[0] + t[1] * t[2])
HUGE_ROW = st.tuples(CLEAN_ROW, st.integers(0, 4), HUGE).map(
    lambda t: ",".join(t[2] if k == t[1] else str(v) for k, v in enumerate(t[0])))
HUGE_BLOB = st.lists(
    st.one_of(HUGE_ROW, CLEAN_ROW.map(lambda row: ",".join(map(str, row)))),
    min_size=1, max_size=6).map(lambda rows: "\n".join(rows).encode())
HUGE_AZIMUTH = b"0,1,0," + b"9" * 400 + b",5\n"
FRAME_2_63 = b"9223372036854775808,0,0,10,5\n"


def outcome(read, path):
    """The events read returns, or the class and message of its error."""
    try:
        return list(read(path))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(BLOB)
# inputs where np.loadtxt and int() were seen to part ways
@example(b"1_0,0,0,0,0\n")
@example(b'"3",0,0,10,5\n')
@example("\u0663,0,0,10,5\n".encode("utf-8"))  # an Arabic-Indic digit three
@example(b"0,0,0,10,5\n   \n1,0,0,10,5\n")
@example(b"1180591620717411303424,0,0,10,5\n")  # 2**70
@example(b"0,1,0,10\n2,1,0,10\n")
@example(b"0,1,0,10,5,\n")
@example(b"")
# two that neither path may read: an int64 reader has no room for them
@example(HUGE_AZIMUTH)
@example(FRAME_2_63)
# and two that both read
@example(b"0,3,0,30,-10\n2,5,1,-120,45\n0,3,0,-330,-10\n")
@example(b"0,1,0,190,5\r\n0,1,0,-170,5\r\n")
def test_fast_reader_matches_csv_reader(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "labels.csv"
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file must not warn either
        fast = outcome(read_label_csv, path)
    assert fast == outcome(_read_label_rows, path)
    if isinstance(fast, tuple):
        assert issubclass(fast[0], SeldkitError), fast
    else:
        assert all(0 <= e.frame < 2 ** 63 for e in fast)


@settings(max_examples=200, deadline=None)
@given(BLOB)
@example(b"0,1,0,190,5\r\n0,1,0,-170,5\r\n")
@example(b"0,1,0,10\n2,1,0,10\n")
def test_crlf_copy_reads_as_the_lf_copy(tmp_path_factory, blob):
    """Equal events, or the same error class and message (line numbers
    included), from a file and its copy with every line ending CRLF."""
    path = tmp_path_factory.getbasetemp() / "labels.csv"
    lf = blob.replace(b"\r", b"")
    path.write_bytes(lf)
    want = outcome(read_label_csv, path)
    path.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert outcome(read_label_csv, path) == want


def test_clean_file_takes_the_array_path(tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("fell back to the csv reader")

    monkeypatch.setattr(dataset_io, "_read_label_rows", no_fallback)
    path = tmp_path / "labels.csv"
    lf = b"\n5,2,0,190,0\n1,9,3,0,-90\n\n5,2,1,-170,0\n1,2,0,0,89"
    for blob in (lf, lf.replace(b"\n", b"\r\n")):
        path.write_bytes(blob)
        assert list(read_label_csv(path)) == [
            Event(1, 2, 0.0, 89.0), Event(1, 9, 0.0, -90.0),
            Event(5, 2, -170.0, 0.0),
        ]


def test_lone_carriage_return_takes_the_csv_path(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(dataset_io, "_read_label_rows",
                        lambda *args: calls.append(args) or _read_label_rows(*args))
    path = tmp_path / "labels.csv"
    path.write_bytes(b"5,2,0,190,0\r1,9,3,0,-90\r\n")
    assert list(read_label_csv(path)) == [
        Event(1, 9, 0.0, -90.0), Event(5, 2, -170.0, 0.0),
    ]
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(st.one_of(BLOB, HUGE_BLOB))
@example(HUGE_AZIMUTH)
@example(FRAME_2_63)
def test_cli_label_inputs_exit_zero_or_one(tmp_path_factory, blob):
    """encode, score (the file as pred and as ref) and score --sweep (as
    ref) exit 0, or 1 with a single error line; never 2."""
    d = tmp_path_factory.getbasetemp() / "cli_label_fuzz"
    d.mkdir(exist_ok=True)
    labels, ref, tensor, out = (d / name for name in
                                ("in.csv", "ref.csv", "pred.slsa", "out.slsa"))
    labels.write_bytes(blob)
    write_label_csv([Event(0, 1, 10.0, 5.0), Event(3, 2, -40.0, 20.0)], ref)
    write_feature_file(encode(read_label_csv(ref), 20), tensor)
    for argv in (["encode", labels, "--frames", "20", "--out", out],
                 ["score", labels, ref], ["score", ref, labels],
                 ["score", tensor, labels, "--sweep"]):
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = cli.main([str(arg) for arg in argv])
        err = err.getvalue()
        assert rc in (0, 1), (argv, err)
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
