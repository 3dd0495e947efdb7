"""accdoa.encode checks whole columns, yet gives what the per-event loop it
replaced gives: the same tensor bytes, or for the first offending event in
input order the same error class and message.

Events are drawn on a small grid so same-cell repeats come up often, with
frames and classes one step outside their ranges and elevations of +-90.5
and nan mixed in.
"""

import numpy as np
import pytest

import oracles
from seldkit import Event, SeldkitError, encode
from seldkit.dataset_io import Events

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_FRAMES, N_CLASSES = 5, 3

FRAME = st.one_of(st.integers(-1, N_FRAMES), st.sampled_from([-(2 ** 63), 2 ** 63 - 1]))
CLASS = st.integers(-1, N_CLASSES)
AZIMUTH = st.floats(-720.0, 720.0)
ELEVATION = st.one_of(st.floats(-90.0, 90.0),
                      st.sampled_from([-90.0, 90.0, -90.5, 90.5, np.nan]))
EVENTS = st.lists(st.builds(Event, FRAME, CLASS, AZIMUTH, ELEVATION), max_size=16)


def outcome(fn, events, n_frames):
    """The tensor's bytes, or the class and message of the error."""
    try:
        return fn(events, n_frames, N_CLASSES).tobytes()
    except SeldkitError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(EVENTS, st.integers(0, N_FRAMES))
# a bad elevation before a bad frame, and after it
@example([Event(0, 0, 0.0, 95.0), Event(9, 0, 0.0, 0.0)], N_FRAMES)
@example([Event(9, 0, 0.0, 0.0), Event(0, 0, 0.0, np.nan)], N_FRAMES)
# a repeat of a cell whose first event has a bad elevation
@example([Event(1, 1, 0.0, -90.5), Event(1, 1, 0.0, 0.0)], N_FRAMES)
# a repeat that also has a bad elevation, and one out of its frame range
@example([Event(1, 1, 0.0, 0.0), Event(1, 1, 10.0, 90.5)], N_FRAMES)
@example([Event(7, 1, 0.0, 0.0), Event(7, 1, 10.0, 0.0)], N_FRAMES)
# a repeat in input order that is not one in (frame, class) order
@example([Event(3, 2, 0.0, 0.0), Event(0, 0, 0.0, 0.0), Event(3, 2, 1.0, 1.0)], N_FRAMES)
def test_encode_matches_the_event_loop(events, n_frames):
    want = outcome(oracles.loop_encode, events, n_frames)
    assert outcome(encode, events, n_frames) == want
    assert outcome(encode, Events.of(events), n_frames) == want
