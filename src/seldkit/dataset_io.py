"""Reading and writing of FOA audio, DCASE-style label CSVs, manifests, and
the toolkit's binary feature container.

All readers are strict: wrong channel counts, sample rates, or malformed
rows are errors, never silently repaired. Nothing here resamples audio or
remaps channels; feature extraction downstream depends on bit-reproducible
input.
"""

from __future__ import annotations

import csv
import io
import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
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

SAMPLE_RATE = 24000
N_CHANNELS = 4
N_CLASSES = 13

_MAGIC = b"SLSA"
_VERSION = 1

# peak scale per integer PCM width; int16 full-scale -32768 maps to -1.0
_INT_SCALE = {np.dtype(np.int16): 2.0 ** 15, np.dtype(np.int32): 2.0 ** 31}


def normalize_azimuth(az: float) -> float:
    """Wrap an azimuth in degrees into [-180, 180)."""
    return (az + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class MultichannelClip:
    """A 4-channel FOA waveform at SAMPLE_RATE, channels in ACN order
    (W, Y, Z, X).

    samples is (4, n_samples) float64 in [-1, 1]; the array is locked
    read-only so clips can be shared freely between threads.
    """

    samples: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.samples, dtype=np.float64))

    @classmethod
    def _taking(cls, samples: np.ndarray) -> MultichannelClip:
        """A clip made from a float64 array no one else holds, without the
        copy the constructor makes."""
        clip = cls.__new__(cls)
        clip._own(samples)
        return clip

    def _own(self, samples: np.ndarray) -> None:
        """Check float64 samples, lock them and make them the clip's."""
        if samples.ndim != 2 or samples.shape[0] != N_CHANNELS:
            raise WrongChannelCount(
                f"expected ({N_CHANNELS}, n) samples, got shape {samples.shape}"
            )
        if samples.shape[1] < 512:
            raise TooShort(
                f"clip has {samples.shape[1]} samples, need at least 512"
            )
        if not np.all(np.isfinite(samples)):
            raise SeldkitError("clip contains non-finite samples")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True, order=True)
class Event:
    """One active sound event in one 100 ms label frame."""

    frame: int
    class_id: int
    azimuth: float
    elevation: float


@dataclass(frozen=True)
class ManifestEntry:
    audio_path: str
    label_path: str
    split: str


@dataclass
class DatasetManifest:
    entries: list = field(default_factory=list)


def read_foa_wav(path) -> MultichannelClip:
    """Read a 4-channel 24 kHz PCM WAV into a normalized clip.

    Supports 16/24/32-bit integer and 32-bit float PCM. Integer samples are
    scaled by the type's full range, so int16 -32768 becomes exactly -1.0.
    Non-24 kHz files are rejected rather than resampled, and so is a file
    cut short of the size its data chunk declares. Its SeldkitErrors
    name the path, as does the OSError of a file it cannot open; any other
    exception scipy raises while parsing is a MalformedWav.
    """
    _check_data_size(path)
    # imported here, so only extract loads scipy.io (and scipy.sparse with it);
    # outside the try, as a failed import is no fault of the file
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(os.fspath(path))
    except (OSError, MemoryError):
        raise
    except Exception as exc:  # scipy's parse failures have no common type
        raise MalformedWav(f"{path}: {exc}") from exc

    if data.ndim != 2 or data.shape[1] != N_CHANNELS:
        n_ch = 1 if data.ndim == 1 else data.shape[1]
        raise WrongChannelCount(f"{path}: expected {N_CHANNELS} channels, got {n_ch}")
    if rate != SAMPLE_RATE:
        raise WrongSampleRate(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")

    if data.dtype not in _INT_SCALE and data.dtype != np.float32:
        raise MalformedWav(
            f"{path}: unsupported sample format {data.dtype} "
            "(need 16/24/32-bit int or 32-bit float PCM)"
        )
    samples = data.astype(np.float64)
    if data.dtype in _INT_SCALE:
        samples /= _INT_SCALE[data.dtype]
    try:
        return MultichannelClip._taking(samples.T)
    except SeldkitError as exc:  # too short or non-finite
        raise type(exc)(f"{path}: {exc}") from exc


def _check_data_size(path) -> None:
    """Raise MalformedWav when the WAV's data chunk declares more bytes than
    follow it.

    scipy reads such a file short, with at most a warning; a warnings
    filter is process-wide state that extract's reader threads would
    share, so the chunk list is walked here instead. Any other defect is
    left to scipy to report.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        form = fh.read(12)[:4]
        order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(form)
        rf64_data = b""
        while order and len(head := fh.read(8)) == 8:
            declared = struct.unpack(order + "I", head[4:])[0]
            start = fh.tell()
            if head[:4] == b"ds64":  # RF64 keeps the data size here
                rf64_data = fh.read(16)[8:]
            elif head[:4] == b"data":
                if form == b"RF64" and len(rf64_data) == 8:
                    declared = struct.unpack("<Q", rf64_data)[0]
                if declared > size - start:
                    raise MalformedWav(
                        f"{path}: data chunk declares {declared} bytes "
                        f"but {size - start} follow it"
                    )
                return
            fh.seek(start + declared + declared % 2)


_EVENT_COLUMNS = (("frame", np.int64), ("class_id", np.int64),
                  ("azimuth", np.float64), ("elevation", np.float64))


@dataclass(frozen=True, eq=False)
class Events:
    """Label events as columns, one row per event: frame and class_id are
    int64 arrays, azimuth and elevation float64 arrays in degrees.

    This is the form the label reader, decode and the scorer pass along;
    iterating yields the rows as Event objects, and list(events) is the
    form to compare or index. A frame or class_id that int64 cannot hold
    exactly (2**70, 0.5, nan) raises FrameOutOfRange or ClassOutOfRange
    rather than being cast.
    """

    frame: np.ndarray
    class_id: np.ndarray
    azimuth: np.ndarray
    elevation: np.ndarray

    def __post_init__(self):
        for name, dtype in _EVENT_COLUMNS:
            values = getattr(self, name)
            column = np.asarray(values)
            if dtype is np.int64 and column.dtype.kind in "fuO":
                column = _exact_int64(name, values)
            object.__setattr__(self, name, np.asarray(column, dtype))
        shapes = {getattr(self, name).shape for name, _ in _EVENT_COLUMNS}
        if len(shapes) != 1 or self.frame.ndim != 1:
            raise ShapeMismatch(f"event columns must be 1-D and of one length, "
                                f"got shapes {sorted(shapes)}")

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self):
        return map(Event, *(getattr(self, name).tolist() for name, _ in _EVENT_COLUMNS))

    @classmethod
    def of(cls, events) -> Events:
        """events itself if it is an Events, else the columns of an
        iterable of Event."""
        if isinstance(events, cls):
            return events
        events = list(events)
        return cls([e.frame for e in events], [e.class_id for e in events],
                   [e.azimuth for e in events], [e.elevation for e in events])


def _exact_int64(name: str, values) -> np.ndarray:
    """The frame or class_id column values as an object array, after
    checking that each is an integer int64 holds; signed integer arrays
    need no such check and never come here."""
    exact = np.asarray(values, dtype=object)  # the values themselves, uncast
    for value in exact.flat:
        if not (-2 ** 63 <= value < 2 ** 63 and value == int(value)):
            error = FrameOutOfRange if name == "frame" else ClassOutOfRange
            raise error(f"event {name} {value} is not an integer int64 can hold")
    return exact


_LABEL_BYTES = b"0123456789,-\n"


def read_label_csv(path, n_classes: int = N_CLASSES) -> Events:
    """Read a DCASE-style label CSV: frame,class,source,azimuth,elevation.

    The source/track column is discarded. Azimuths are wrapped into
    [-180, 180). Rows that become exact duplicates after that are dropped.
    Returns events sorted by (frame, class, azimuth, elevation).

    A file of digits, commas, minus signs and newlines (LF or CRLF) is
    parsed whole by np.loadtxt, then checked column by column. Any other
    byte, a lone CR included, any parse failure and any row the checks
    reject send the file through the csv reader, which alone decides what
    is accepted and words every error, so both paths accept the same files
    and return the same events.
    """
    with open(path, "rb") as fh:
        blob = fh.read().replace(b"\r\n", b"\n")
    rows = None
    # with no digit there is no row for loadtxt, which would only warn
    if not blob.translate(None, _LABEL_BYTES) and blob.strip(b",-\n"):
        try:
            rows = np.loadtxt(io.StringIO(blob.decode("ascii")), delimiter=",",
                              dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, OverflowError):
            pass
    if rows is not None and rows.shape[1] == 5:
        frame, class_id, _source, az, el = rows.T
        if (frame.min() >= 0 and class_id.min() >= 0 and class_id.max() < n_classes
                and el.min() >= -90 and el.max() < 90):
            az = normalize_azimuth(az.astype(np.float64))
            return Events(*_sorted_unique(frame, class_id, az, el))
    return _read_label_rows(path, n_classes)


def write_label_csv(events, path) -> None:
    """Write events (an Events or Event rows) as frame,class,0,azimuth,
    elevation integer rows.

    Azimuth/elevation are rounded to whole degrees for emission (full
    precision stays with the in-memory events); azimuth is re-wrapped after
    rounding and elevation is clamped to [-90, 89] so the file always
    re-reads cleanly. np.rint rounds half to even, like Python's round. A
    negative frame or class, which the reader rejects, raises
    FrameOutOfRange or ClassOutOfRange naming the first one before any byte
    is written; classes of 13 and above stay writable, as
    read_label_csv(n_classes=...) reads them.
    """
    events = Events.of(events)
    for column, name, error in ((events.frame, "frame", FrameOutOfRange),
                                (events.class_id, "class", ClassOutOfRange)):
        negative = column < 0
        if negative.any():
            raise error(f"refusing to write event {name} "
                        f"{column[np.argmax(negative)]}, below 0")
    if not (np.isfinite(events.azimuth).all() and np.isfinite(events.elevation).all()):
        raise SeldkitError("refusing to write a non-finite direction")
    az = normalize_azimuth(np.rint(events.azimuth)).astype(np.int64)
    el = np.clip(np.rint(events.elevation), -90, 89).astype(np.int64)
    rows = np.stack((events.frame, events.class_id, az, el), axis=-1)
    blob = "%d,%d,0,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())
    _atomic_write_bytes(path, blob.encode("utf-8"))


def _sorted_unique(*columns, peak=None) -> tuple:
    """The rows sorted by the first column, then the next, repeats dropped.

    Given peak, one value per row, the largest peak among each kept row's
    repeats follows the columns.
    """
    order = _row_order(*columns)
    columns = [col[order] for col in columns]
    first = _first_of_runs(*columns)
    unique = tuple(col[first] for col in columns)
    if peak is None:
        return unique
    return unique + (np.maximum.reduceat(peak[order], np.flatnonzero(first)),)


def _row_order(*columns) -> np.ndarray:
    """The permutation that sorts the rows by the first column, then the
    next, ties in input order: np.lexsort's, with the columns reversed.

    Rows of whole numbers (label files, segments and classes) pack into one
    int64 key that orders them as the columns do, -0.0 equal to 0.0, and a
    stable argsort of that key is lexsort's permutation in one pass instead
    of one per column. Decoded directions, nan, inf and spans the key
    cannot hold go to np.lexsort.
    """
    key = _packed_key(columns)
    if key is None:
        return np.lexsort(columns[::-1])
    return np.argsort(key, kind="stable")


def _packed_key(columns):
    """One int64 per row, ((c0 - min0) * span1 + (c1 - min1)) * span2 + ...,
    or None unless every column holds whole numbers the key packs exactly:
    int64, or integral float64 spanning under 2^53, with the product of
    the spans at most 2^63."""
    if not len(columns[0]):
        return None
    key, room = None, 2 ** 63
    for col in columns:
        low, high = col.min(), col.max()
        if col.dtype == np.int64:
            span = int(high) - int(low) + 1
            offset = col - low  # wraps to the exact offset, which is below span
        # as Python floats, nan and inf fail the span test without a warning
        elif (col.dtype == np.float64 and float(high) - float(low) < 2 ** 53
              and (np.rint(col) == col).all()):
            span = int(high - low) + 1
            offset = (col - low).astype(np.int64)  # whole numbers: exact
        else:
            return None
        room //= span
        if not room:
            return None
        key = offset if key is None else key * span + offset
    return key


def _first_of_runs(*columns) -> np.ndarray:
    """Mask of the rows that differ from the row before in some column."""
    first = np.ones(len(columns[0]), dtype=bool)
    if len(first):
        first[1:] = np.any([col[1:] != col[:-1] for col in columns], axis=0)
    return first


def _read_label_rows(path, n_classes: int) -> Events:
    """read_label_csv through the csv module, one row at a time."""
    columns = ([], [], [], [])
    with _open_text_input(path) as fh:
        reader = csv.reader(fh)
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise MalformedRow(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                frame, class_id, _source, az, el = (int(v) for v in row)
            except ValueError as exc:
                raise MalformedRow(f"{path}:{lineno}: {exc}") from exc
            if not 0 <= frame < 2 ** 63:
                raise MalformedRow(f"{path}:{lineno}: frame {frame} outside [0, 2^63)")
            if not 0 <= class_id < n_classes:
                raise ClassOutOfRange(
                    f"{path}:{lineno}: class {class_id} outside [0, {n_classes})"
                )
            if not -90 <= el < 90:
                raise MalformedRow(f"{path}:{lineno}: elevation {el} outside [-90, 90)")
            try:
                az = normalize_azimuth(float(az))
            except OverflowError as exc:
                raise MalformedRow(
                    f"{path}:{lineno}: azimuth beyond the float range") from exc
            for column, value in zip(columns, (frame, class_id, az, float(el))):
                column.append(value)
    # built before sorting, so a class id int64 cannot hold raises here
    events = Events(*columns)
    return Events(*_sorted_unique(events.frame, events.class_id,
                                  events.azimuth, events.elevation))


def write_feature_file(tensor: np.ndarray, path) -> None:
    """Serialize a tensor to the "SLSA" container (float32 payload).

    Layout: magic "SLSA", u32 version=1, u32 ndim, ndim u64 dims, then the
    row-major float32 payload, all little-endian.
    """
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(tensor, dtype="<f4")
    # checked after the cast: values beyond float32 range overflow to inf
    if not np.all(np.isfinite(arr)):
        raise SeldkitError("refusing to serialize non-finite tensor "
                           "(or values beyond float32 range)")
    header = _MAGIC + struct.pack("<II", _VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    _atomic_write_bytes(path, header, arr.reshape(-1).view(np.uint8))


def read_feature_file(path) -> np.ndarray:
    """Read an "SLSA" container back into a float32 array (bit-exact)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if size < 4 or head[:4] != _MAGIC:
            raise BadMagic(f"{path}: not an SLSA container")
        if size < 12:
            raise TruncatedPayload(f"{path}: header truncated")
        version, ndim = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise VersionMismatch(f"{path}: version {version}, expected {_VERSION}")
        offset = 12 + 8 * ndim
        if size < offset:
            raise TruncatedPayload(f"{path}: dimension list truncated")
        dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        count = math.prod(dims)
        if size < offset + 4 * count:
            raise TruncatedPayload(
                f"{path}: payload holds {size - offset} bytes, need {4 * count}"
            )
        if size > offset + 4 * count:
            raise SeldkitError(f"{path}: trailing bytes after payload")
        data = np.empty(count, dtype="<f4")
        if fh.readinto(data.view(np.uint8)) != 4 * count:
            raise TruncatedPayload(f"{path}: payload shorter than its header says")
    return data.reshape(dims)


def read_manifest(path) -> DatasetManifest:
    """Read a dataset manifest CSV with header audio_path,label_path,split.

    Each clip's features are written as <audio stem>.slsa, so two rows whose
    audio paths share a stem (the same path twice, or a/x.wav and b/x.wav)
    are rejected, naming both lines. A line holding a NUL byte, which no
    path can hold, is rejected, naming the line.
    """
    entries = []
    stem_lines = {}
    with _open_text_input(path) as fh:
        reader = csv.DictReader(_without_nul(path, fh))
        required = {"audio_path", "label_path", "split"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise MalformedRow(f"{path}: manifest needs columns {sorted(required)}")
        for row in reader:
            lineno = reader.line_num  # blank lines are skipped but counted
            if None in row.values():
                raise MalformedRow(f"{path}:{lineno}: missing fields")
            audio = row["audio_path"].strip()
            label = row["label_path"].strip()
            if not audio:
                raise MalformedRow(f"{path}:{lineno}: empty audio_path")
            if audio == label:
                raise SeldkitError(f"{path}:{lineno}: audio and label paths collide")
            stem = Path(audio).stem
            if stem in stem_lines:
                raise SeldkitError(
                    f"{path}:{lineno}: audio path {audio} has the output stem "
                    f"{stem!r} of {path}:{stem_lines[stem]}"
                )
            stem_lines[stem] = lineno
            entries.append(ManifestEntry(audio, label, row["split"].strip()))
    return DatasetManifest(entries)


def _without_nul(path, lines):
    """The lines, raising MalformedRow naming the first that holds a NUL."""
    for lineno, line in enumerate(lines, start=1):
        if "\0" in line:
            raise MalformedRow(f"{path}:{lineno}: NUL byte")
        yield line


@contextmanager
def _open_text_input(path):
    """Open a UTF-8 text input file for reading.

    Bytes that do not decode, or that the csv module cannot parse, make the
    file malformed input: they raise MalformedRow naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise MalformedRow(f"{path}: {exc}") from exc


def _atomic_write_bytes(path, *chunks) -> None:
    """Write the buffers chunks, one after another, via a synced sibling
    temp file + rename so readers never see partials, even after a crash.

    The temp file is created with mode 0o666 so the file ends up with the
    umask-derived mode any plain open() would give it.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
