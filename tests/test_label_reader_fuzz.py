"""The label CSV reader's two paths agree on any bytes.

read_label_csv parses a file of digits, commas, minus signs and newlines
with np.loadtxt and sends everything else through the csv module. Both
must return the same events, or raise the same error with the same
message, whatever the file holds.
"""

import warnings

import pytest

from seldkit import Event, dataset_io
from seldkit.dataset_io import _read_label_rows, read_label_csv

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


def outcome(read, path):
    """The events read returns, or the class and message of its error."""
    try:
        return read(path)
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
# and two that both read
@example(b"0,3,0,30,-10\n2,5,1,-120,45\n0,3,0,-330,-10\n")
@example(b"0,1,0,190,5\r\n0,1,0,-170,5\r\n")
def test_fast_reader_matches_csv_reader(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "labels.csv"
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file must not warn either
        fast = outcome(read_label_csv, path)
    assert fast == outcome(lambda p: _read_label_rows(p, 13), path)


def test_clean_file_takes_the_array_path(tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("fell back to the csv reader")

    monkeypatch.setattr(dataset_io, "_read_label_rows", no_fallback)
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\n5,2,0,190,0\n1,9,3,0,-90\n\n5,2,1,-170,0\n1,2,0,0,89")
    assert read_label_csv(path) == [
        Event(1, 2, 0.0, 89.0), Event(1, 9, 0.0, -90.0),
        Event(5, 2, -170.0, 0.0),
    ]
