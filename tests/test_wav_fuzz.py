"""The WAV reader and `seldkit extract` report any header bytes they cannot
use as input errors, and the reader reads what scipy reads.

int16, float32 (with non-finite samples, signalling NaNs among them),
24-bit, 20-bit in 3 bytes, 12-bit in 2 bytes, WAVE_FORMAT_EXTENSIBLE, RF64
and RIFX files, and files with a LIST chunk before the fmt chunk or an
odd-sized one padded before the data, get header bytes overwritten, huge
chunk sizes written over any field, and their tails cut off. read_foa_wav
must return a clip or raise a SeldkitError, and extract must exit 0, or 1
with one "error:" line for the failed clip; exit 2 would be an internal
error. Neither may raise a Python warning.

scipy.io.wavfile.read is the reference: read_foa_wav accepts no file that
scipy, with a check that the first data chunk holds what it declares and
the reader's channel, rate and dtype rules, rejects, and returns scipy's
samples bit for bit wherever it accepts. Where scipy accepts and it does
not, its message names one of the rules it keeps that scipy does not.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from seldkit import MultichannelClip, SeldkitError, cli
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


def extensible_chunk(tag, bits, container):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk whose subformat GUID names
    tag, with bits valid bits in each container-byte sample."""
    guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return chunk(b"fmt ", struct.pack("<HHIIHHHHI", 0xFFFE, 4, 24000, 96000 * container,
                                      4 * container, 8 * container, 22, bits, 0) + guid)


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def rifx(payload):
    """A big-endian RIFX int16 file."""
    fmt = b"fmt " + struct.pack(">IHHIIHH", 16, 1, 4, 24000, 24000 * 8, 8, 16)
    body = b"WAVE" + fmt + b"data" + struct.pack(">I", len(payload)) + payload
    return b"RIFX" + struct.pack(">I", len(body)) + body


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
    if dtype == "int20":  # 20 bits left-justified in 3 bytes: the low 4 are 0
        ints &= -16
    if dtype in ("int24", "int20"):
        return ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    ints >>= 8
    if dtype == "int12":  # 12 bits left-justified in 2 bytes
        ints &= -16
    return ints.astype(">i2" if dtype == "int16be" else "<i2").tobytes()


INT16 = chunk(b"data", samples("int16"))
LIST = chunk(b"LIST", b"INFOISFT\x06\x00\x00\x00seldk\x00")


def base(kind, bad=()):
    if kind == "int16":
        return riff(fmt_chunk(1, 16, 2), INT16)
    if kind in ("int24", "int20"):
        return riff(fmt_chunk(1, int(kind[3:]), 3), chunk(b"data", samples(kind)))
    if kind == "int12":
        return riff(fmt_chunk(1, 12, 2), chunk(b"data", samples(kind)))
    if kind == "float32":
        return riff(fmt_chunk(3, 32, 4), chunk(b"data", samples("float32", bad)))
    if kind == "extensible_int24":
        return riff(extensible_chunk(1, 24, 3), chunk(b"data", samples("int24")))
    if kind == "extensible_float32":
        return riff(extensible_chunk(3, 32, 4), chunk(b"data", samples("float32", bad)))
    if kind == "list_first":
        return riff(LIST, fmt_chunk(1, 16, 2), INT16)
    if kind == "odd_padded":  # a 5-byte chunk and its pad byte
        return riff(fmt_chunk(1, 16, 2), chunk(b"JUNK", b"seldk"), INT16)
    if kind == "rifx":
        return rifx(samples("int16be"))
    return rf64(fmt_chunk(1, 16, 2), samples("int16"))


KINDS = ["int16", "int24", "int20", "int12", "float32", "extensible_int24",
         "extensible_float32", "list_first", "odd_padded", "rifx", "rf64"]


HUGE = st.sampled_from([b"\xff\xff\xff\xff", b"\xf0\xff\xff\xff", b"\x00\x00\x00\x80",
                        b"\x00\x00\x00\x00", b"\xff" * 8, b"\x00" * 7 + b"\x80"])
PATCH = st.tuples(st.integers(0, 79), st.one_of(st.binary(min_size=1, max_size=4), HUGE))
SIGNALLING_NAN = np.array(0x7FA00000, "<u4").view("<f4")[()]  # its cast to float64 warns
NON_FINITE = st.tuples(st.integers(0, 4 * N_FRAMES - 1),
                       st.sampled_from([np.nan, np.inf, -np.inf, SIGNALLING_NAN]))


@st.composite
def wav_bytes(draw):
    kind = draw(st.sampled_from(KINDS))
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


def scipy_reference(path):
    """The samples scipy.io.wavfile.read returns for path, after a walk that
    rejects a first data chunk declaring more bytes than follow it, and
    after the channel, rate and dtype rules, scaled to float64 and made a
    clip's (4, n) samples; None where any of that fails."""
    blob = path.read_bytes()
    order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(blob[:4])
    offset, rf64_size = 12, b""
    while order and offset + 8 <= len(blob):
        name = blob[offset:offset + 4]
        size = struct.unpack_from(order + "I", blob, offset + 4)[0]
        if name == b"ds64":
            rf64_size = blob[offset + 16:offset + 24]
        elif name == b"data":
            if blob[:4] == b"RF64" and len(rf64_size) == 8:
                size = struct.unpack("<Q", rf64_size)[0]
            if size > len(blob) - offset - 8:
                return None
            break
        offset += 8 + size + size % 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rate, data = wavfile.read(path)
        except Exception:  # scipy's parse failures have no common type
            return None
    if (data.ndim != 2 or data.shape[1] != 4 or rate != 24000
            or data.dtype not in (np.int16, np.int32, np.float32)):
        return None
    with np.errstate(invalid="ignore"):  # a signalling NaN, refused below
        samples = data.astype(np.float64)
    if data.dtype != np.float32:
        samples /= 2.0 ** (8 * data.itemsize - 1)
    try:
        return MultichannelClip(samples.T).samples
    except SeldkitError:
        return None


# the rules read_foa_wav keeps and scipy does not, by the words of their
# messages: one data chunk, whole frames, a whole chunk header at the end,
# and a fmt chunk whose block align, bits and byte rate agree
STRICTER = ("'data' chunk out of place", "'fmt ' chunk out of place", "part frame",
            "chunk header cut short", "unsupported sample format")


def read_or_error(path):
    try:
        return read_foa_wav(path).samples
    except SeldkitError as exc:
        return exc


def test_intact_bases_read(tmp_path):
    for kind in KINDS:
        path = tmp_path / f"{kind}.wav"
        path.write_bytes(base(kind))
        want, got = scipy_reference(path), read_or_error(path)
        if kind == "rifx":  # scipy reads big-endian int16, a dtype never taken
            assert want is None and isinstance(got, SeldkitError)
        else:
            assert got.shape == (4, N_FRAMES)
            assert got.strides == want.strides and got.tobytes("A") == want.tobytes("A")


# scipy reads a GUID past an EXTENSIBLE fmt chunk declared under 40 bytes long
SHORT_EXTENSIBLE = riff(chunk(b"fmt ", extensible_chunk(1, 24, 3)[8:], size=24),
                        chunk(b"data", samples("int24")))


@settings(max_examples=300, deadline=None)
@given(wav_bytes())
@example(base("rf64")[:16] + b"\x1d" + base("rf64")[17:])  # ds64 size odd
@example(riff(fmt_chunk(1, 16, 2), INT16, INT16))  # scipy reads the second
@example(SHORT_EXTENSIBLE)
def test_reader_accepts_only_what_scipy_accepts_and_reads_it_alike(
        tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "wav_oracle.wav"
    path.write_bytes(blob)
    want, got = scipy_reference(path), read_or_error(path)
    if isinstance(got, SeldkitError):
        assert want is None or any(rule in str(got) for rule in STRICTER), got
    else:
        assert want is not None
        assert got.strides == want.strides and got.tobytes("A") == want.tobytes("A")


@settings(max_examples=150, deadline=None)
@given(wav_bytes())
@example(NO_DATA_CHUNK)
@example(ZERO_CHANNELS)
@example(ZERO_BLOCK_ALIGN)
@example(F45)
@example(base("float32", [(5, np.nan)]))
@example(base("float32", [(5, SIGNALLING_NAN)]))
@example(base("rf64")[:28] + b"\xff" * 8 + base("rf64")[36:])  # ds64 data size
@example(base("int24")[:40] + b"\xff\xff\xff\xff" + base("int24")[44:])
def test_any_header_bytes_exit_zero_or_one(tmp_path_factory, blob):
    d = tmp_path_factory.getbasetemp() / "wav_fuzz"
    d.mkdir(exist_ok=True)
    wav, manifest, out_dir = d / "clip.wav", d / "manifest.csv", d / "out"
    wav.write_bytes(blob)
    manifest.write_text(f"audio_path,label_path,split\n{wav},,train\n")
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            read_foa_wav(wav)
            read_error = None
        except SeldkitError as exc:
            read_error = exc
        rc = cli.main(["extract", str(manifest), str(out_dir)])
    lines = err.getvalue().splitlines()
    assert caught == [], [str(w.message) for w in caught]
    assert rc in (0, 1), lines
    assert len(lines) == rc and all(line.startswith("error: ") for line in lines), lines
    if read_error is not None:
        assert lines == [f"error: {read_error}"]
        assert str(wav) in lines[0]
