"""Exception types raised by the toolkit.

Everything derives from SeldkitError so callers (and the CLI) can treat
"bad input" uniformly; the subclasses exist so tests and pipelines can
react to specific failure modes.
"""


class SeldkitError(ValueError):
    """Base class for all toolkit input/contract errors."""


# --- audio / label ingest ---------------------------------------------------

class WrongChannelCount(SeldkitError):
    """Audio does not have exactly 4 channels."""


class WrongSampleRate(SeldkitError):
    """Audio sample rate is not 24000 Hz (no resampling is performed)."""


class MalformedWav(SeldkitError):
    """File is not a readable PCM WAV of a supported sample format."""


class ClassOutOfRange(SeldkitError):
    """Label row or event references a class id outside [0, N_CLASSES)."""


class MalformedRow(SeldkitError):
    """Label CSV row cannot be parsed."""


# --- binary feature container -----------------------------------------------

class BadMagic(SeldkitError):
    """Feature file does not start with the expected magic bytes."""


class VersionMismatch(SeldkitError):
    """Feature file declares an unsupported format version."""


class TruncatedPayload(SeldkitError):
    """Feature file payload is shorter than its header promises."""


# --- features ----------------------------------------------------------------

class TooShort(SeldkitError):
    """Signal shorter than one analysis window."""


class EmptyManifest(SeldkitError):
    """No input items to fit statistics on."""


# --- geometry / accdoa --------------------------------------------------------

class ElevationOutOfRange(SeldkitError):
    """Elevation outside [-90, 90] degrees."""


class ZeroVector(SeldkitError):
    """Direction undefined for a (near-)zero vector."""


class SameClassOverlap(SeldkitError):
    """Two events of the same class share a label frame (not representable)."""


class FrameOutOfRange(SeldkitError):
    """Event frame index falls outside the target tensor."""


class ShapeMismatch(SeldkitError):
    """Array arguments have incompatible shapes."""


class EmptyEnsemble(SeldkitError):
    """Ensemble average requested over zero tensors."""


# --- augmentations -------------------------------------------------------------

class ShiftOutOfRange(SeldkitError):
    """Pitch shift magnitude exceeds the configured range."""


class NonAlignedOffset(SeldkitError):
    """Frame shift offset is not a whole number of label frames."""


class RatioOutOfRange(SeldkitError):
    """Time mask length violates the configured mask ratio range."""


class Misaligned(SeldkitError):
    """Time mask boundaries do not line up with label frames."""
