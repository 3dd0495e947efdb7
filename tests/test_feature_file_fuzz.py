"""The CLI commands that read .slsa feature files report any bytes, shape
or values they cannot use as input errors.

augment, decode, ensemble, score --sweep and stats each get containers of
arbitrary shape (zero-length axes included) and values (nan, inf, signed
zeros, float32 extremes), truncated or padded containers, and plain bytes.
Each run must exit 0 with nothing on stderr, or exit 1 with one "error:"
line; exit 2 would be an internal error.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest

from seldkit import Event, cli
from seldkit.dataset_io import write_label_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

VALUE = st.one_of(
    st.floats(-2.0, 2.0, width=32),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e-45]),
)
# mostly the shapes the commands want, with a few frames so that zero
# frames and misaligned frame counts come up often
FEATURE_SHAPE = st.tuples(st.just(7), st.integers(0, 3), st.integers(0, 17))
LABEL_SHAPE = st.tuples(st.just(3), st.integers(0, 3), st.integers(0, 2))
ANY_SHAPE = st.lists(st.integers(0, 4), max_size=4).map(tuple)


def container(dims, values, version=1) -> bytes:
    return (b"SLSA" + struct.pack(f"<II{len(dims)}Q", version, len(dims), *dims)
            + np.asarray(values, dtype="<f4").tobytes())


@st.composite
def tensor_file(draw, shape):
    dims = draw(shape)
    blob = container(dims, draw(st.lists(VALUE, min_size=int(np.prod(dims)),
                                         max_size=int(np.prod(dims)))))
    damage = draw(st.sampled_from(["none"] * 6 + ["cut", "pad", "version"]))
    if damage == "cut":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if damage == "pad":
        return blob + draw(st.binary(min_size=1, max_size=8))
    if damage == "version":
        return blob[:4] + struct.pack("<I", 2) + blob[8:]
    return blob


def any_file(shape):
    return st.one_of(tensor_file(shape), tensor_file(ANY_SHAPE),
                     st.binary(max_size=40))


AUGMENT_FLAGS = st.sampled_from([
    [], ["--fs-prob", "1"], ["--mode", "tm_mm", "--tm-prob", "1"],
    ["--cs-prob", "1", "--mm-prob", "0"], ["--mm-prob", "1", "--partner"],
])

ZERO_FRAMES = (container((7, 200, 0), []), container((3, 13, 0), []))


@settings(max_examples=60, deadline=None)
@given(any_file(FEATURE_SHAPE), any_file(LABEL_SHAPE), AUGMENT_FLAGS)
@example(*ZERO_FRAMES, [])
@example(*ZERO_FRAMES, ["--fs-prob", "1"])
@example(*ZERO_FRAMES, ["--mode", "tm_mm", "--tm-prob", "1"])
@example(container((7, 1, 8), [3.4e38] * 56), container((3, 1, 1), [0.5] * 3),
         ["--cs-prob", "1", "--mm-prob", "0"])
@example(container((2,), [1.0, 2.0]), container((3,), [1.0] * 3), [])
def test_feature_inputs_exit_zero_or_one(tmp_path_factory, features, labels, flags):
    d = tmp_path_factory.getbasetemp() / "cli_feature_fuzz"
    d.mkdir(exist_ok=True)
    feats, labs, ref, out, out2 = (d / name for name in (
        "f.slsa", "l.slsa", "ref.csv", "out.slsa", "out2.csv"))
    feats.write_bytes(features)
    labs.write_bytes(labels)
    write_label_csv([Event(0, 1, 10.0, 5.0), Event(1, 0, -40.0, 20.0)], ref)
    if flags[-1:] == ["--partner"]:
        flags = flags[:-1] + ["--partner-features", feats, "--partner-labels", labs]
    for argv in (["augment", "--features", feats, "--labels", labs,
                  "--out-features", out, "--out-labels", out2, *flags],
                 ["decode", labs, "--out", out2],
                 ["ensemble", labs, "--out", out, "--csv", out2],
                 ["ensemble", labs, feats, "--out", out],
                 ["score", labs, ref, "--sweep"],
                 ["stats", feats, "--out", out],
                 ["stats", feats, labs, "--out", out]):
        out.unlink(missing_ok=True)
        out2.unlink(missing_ok=True)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = cli.main([str(arg) for arg in argv])
        err = err.getvalue()
        assert rc in (0, 1), (argv[0], err)
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
            assert not out.exists() and not out2.exists()
        else:
            assert err == "", (argv[0], err)
