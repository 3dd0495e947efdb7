"""Shared builders for test inputs: synthetic FOA clips, WAV files on disk,
and random valid event lists; and a tracemalloc probe."""

import tracemalloc

import numpy as np
from scipy.io import wavfile

from seldkit import Event, MultichannelClip
from seldkit.accdoa import doa_to_unit_vector


def make_plane_wave_clip(azimuth, elevation, n_samples=24000, seed=0,
                         amplitude=0.3):
    """A noise burst arriving from one direction, in ACN order (W, Y, Z, X)."""
    rng = np.random.default_rng(seed)
    x, y, z = doa_to_unit_vector([(azimuth, elevation)])[0]
    w = amplitude * rng.standard_normal(n_samples)
    return MultichannelClip(np.stack([w, y * w, z * w, x * w]))


def make_noise_clip(n_samples=24000, seed=0, amplitude=0.2):
    rng = np.random.default_rng(seed)
    return MultichannelClip(amplitude * rng.standard_normal((4, n_samples)))


def write_wav(path, samples, sample_rate=24000, dtype=np.float32):
    """Write (4, N) float samples as a WAV of the requested dtype."""
    data = np.asarray(samples).T
    if dtype == np.int16:
        data = np.round(data * 32768.0).clip(-32768, 32767).astype(np.int16)
    elif dtype == np.int32:
        data = np.round(data * 2.0 ** 31).clip(-(2 ** 31), 2 ** 31 - 1).astype(np.int32)
    else:
        data = data.astype(dtype)
    wavfile.write(path, sample_rate, data)


def random_events(rng, n_frames, n_classes=13, max_events=12,
                  integer_angles=False):
    """A valid random EventList: unique (frame, class) cells, el within
    (-90, 90) so directions are recoverable."""
    events = []
    cells = set()
    for _ in range(int(rng.integers(0, max_events + 1))):
        cell = (int(rng.integers(0, n_frames)), int(rng.integers(0, n_classes)))
        if cell in cells:
            continue
        cells.add(cell)
        if integer_angles:
            az = float(rng.integers(-180, 180))
            el = float(rng.integers(-89, 90))
        else:
            az = float(rng.uniform(-180.0, 180.0))
            el = float(rng.uniform(-89.5, 89.5))
        events.append(Event(cell[0], cell[1], az, el))
    events.sort()
    return events


def traced_peak_mib(fn, *args):
    """fn(*args)'s tracemalloc peak, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
