"""The WAV reader and `seldkit extract` report any header bytes they cannot
use as input errors.

int16, float32 (with non-finite samples), 24-bit and RF64 files get header
bytes overwritten, huge chunk sizes written over any field, and their tails
cut off. read_foa_wav must return a clip or raise a SeldkitError, and
extract must exit 0, or 1 with one "error:" line for the failed clip;
exit 2 would be an internal error.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest

from seldkit import SeldkitError, cli
from seldkit.dataset_io import read_foa_wav

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_FRAMES = 600  # above the 512-sample minimum, so an intact file reads


def chunk(name, payload, size=None):
    size = len(payload) if size is None else size
    return name + struct.pack("<I", size) + payload + b"\0" * (len(payload) % 2)


def fmt_chunk(tag, bits, container, channels=4, block_align=None):
    block_align = channels * container if block_align is None else block_align
    return chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, 24000,
                                      24000 * block_align, block_align, bits))


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def rf64(fmt, payload):
    """An RF64 file: the 32-bit sizes read 0xFFFFFFFF and a ds64 chunk holds
    the real RIFF and data sizes."""
    tail = fmt + b"data" + struct.pack("<I", 0xFFFFFFFF) + payload
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 40 + len(tail), len(payload), 0, 0))
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + tail


def samples(dtype, bad=()):
    """N_FRAMES x 4 samples of a ramp, some replaced by the values in bad."""
    ramp = np.linspace(-0.9, 0.9, 4 * N_FRAMES)
    if dtype == "float32":
        data = ramp.astype("<f4")
        for index, value in bad:
            data[index] = value
        return data.tobytes()
    ints = np.round(ramp * 2 ** 23).astype("<i4")
    if dtype == "int24":
        return ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return (ints >> 8).astype("<i2").tobytes()


def base(kind, bad=()):
    if kind == "int16":
        return riff(fmt_chunk(1, 16, 2), chunk(b"data", samples("int16")))
    if kind == "int24":
        return riff(fmt_chunk(1, 24, 3), chunk(b"data", samples("int24")))
    if kind == "float32":
        return riff(fmt_chunk(3, 32, 4), chunk(b"data", samples("float32", bad)))
    return rf64(fmt_chunk(1, 16, 2), samples("int16"))


HUGE = st.sampled_from([b"\xff\xff\xff\xff", b"\xf0\xff\xff\xff", b"\x00\x00\x00\x80",
                        b"\x00\x00\x00\x00", b"\xff" * 8, b"\x00" * 7 + b"\x80"])
PATCH = st.tuples(st.integers(0, 79), st.one_of(st.binary(min_size=1, max_size=4), HUGE))
NON_FINITE = st.tuples(st.integers(0, 4 * N_FRAMES - 1),
                       st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def wav_bytes(draw):
    kind = draw(st.sampled_from(["int16", "int24", "float32", "rf64"]))
    blob = bytearray(base(kind, draw(st.lists(NON_FINITE, max_size=2))))
    for offset, patch in draw(st.lists(PATCH, max_size=3)):
        blob[offset:offset + len(patch)] = patch
    return bytes(blob[:draw(st.one_of(st.none(), st.integers(0, len(blob))))])


# scipy fails on these three with neither a ValueError nor an EOFError;
# each made extract exit 2
NO_DATA_CHUNK = base("int16").replace(b"data", b"datx")  # UnboundLocalError
ZERO_CHANNELS = riff(fmt_chunk(3, 32, 4, channels=0, block_align=16),
                     chunk(b"data", samples("float32")))  # ZeroDivisionError
ZERO_BLOCK_ALIGN = riff(fmt_chunk(3, 32, 4, block_align=0),
                        chunk(b"data", samples("float32")))  # ZeroDivisionError
F45 = riff(fmt_chunk(3, 32, 4, block_align=180),
           chunk(b"data", samples("float32")))  # TypeError: data type '<f45'


def test_intact_bases_read(tmp_path):
    for kind in ("int16", "int24", "float32", "rf64"):
        path = tmp_path / f"{kind}.wav"
        path.write_bytes(base(kind))
        assert read_foa_wav(path).samples.shape == (4, N_FRAMES)


@settings(max_examples=150, deadline=None)
@given(wav_bytes())
@example(NO_DATA_CHUNK)
@example(ZERO_CHANNELS)
@example(ZERO_BLOCK_ALIGN)
@example(F45)
@example(base("float32", [(5, np.nan)]))
@example(base("rf64")[:28] + b"\xff" * 8 + base("rf64")[36:])  # ds64 data size
@example(base("int24")[:40] + b"\xff\xff\xff\xff" + base("int24")[44:])
def test_any_header_bytes_exit_zero_or_one(tmp_path_factory, blob):
    d = tmp_path_factory.getbasetemp() / "wav_fuzz"
    d.mkdir(exist_ok=True)
    wav, manifest, out_dir = d / "clip.wav", d / "manifest.csv", d / "out"
    wav.write_bytes(blob)
    manifest.write_text(f"audio_path,label_path,split\n{wav},,train\n")
    err = io.StringIO()
    with (warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")  # recorded, so stderr holds errors only
        try:
            read_foa_wav(wav)
            read_error = None
        except SeldkitError as exc:
            read_error = exc
        rc = cli.main(["extract", str(manifest), str(out_dir)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1), lines
    assert len(lines) == rc and all(line.startswith("error: ") for line in lines), lines
    if read_error is not None:
        assert lines == [f"error: {read_error}"]
        assert str(wav) in lines[0]
