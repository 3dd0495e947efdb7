"""SELD data-pipeline toolkit.

SALSA feature extraction for FOA audio, label/feature co-transforming
augmentations, ACCDOA encoding/decoding with ensembling, squeeze-and-
excitation operators with verified gradients, and segment-based joint
localization/detection metrics.
"""

from .accdoa import (
    FEATURE_FRAMES_PER_LABEL_FRAME,
    decode,
    doa_to_unit_vector,
    encode,
    ensemble_average,
    unit_vector_to_doa,
)
from .augment import (
    AugmentConfig,
    SwapPattern,
    apply_pattern_to_waveform,
    augment_pipeline,
    channel_swap,
    enumerate_swap_patterns,
    frame_shift,
    make_rng,
    moderate_mixup,
    pitch_shift,
    sample_lambda,
    time_mask,
)
from .dataset_io import (
    DatasetManifest,
    Event,
    Events,
    ManifestEntry,
    MultichannelClip,
    N_CLASSES,
    SAMPLE_RATE,
    normalize_azimuth,
    read_feature_file,
    read_foa_wav,
    read_label_csv,
    read_manifest,
    write_feature_file,
    write_label_csv,
)
from .errors import SeldkitError
from .features import (
    NormStats,
    compute_norm_stats,
    eigenvector_intensity,
    load_norm_stats,
    log_linear_spectrogram,
    normalize,
    salsa,
    save_norm_stats,
    stft,
)
from .metrics import (
    SeldScores,
    angular_distance,
    compute_seld_scores,
    match_cell,
    segment_events,
    threshold_sweep,
)
from .se_block import (
    SeParams,
    channel_se_forward,
    freq_se_forward,
    gradcheck,
    multi_dim_se_forward,
    se_backward,
    zero_params,
)

__version__ = "0.1.0"


def _settle_numpy_thread_state() -> None:
    """Have numpy make the importing thread's thread-local block now.

    numpy allocates it (about 46 KB of C heap) the first time it checks
    whether an operand of 256 KiB or more is a temporary it may reuse.
    Made inside a loop over large arrays, the block lands above the loop's
    buffers in some processes and not in others; where it does, glibc
    cannot trim the heap top, so those processes fault fewer pages per step
    and run up to a third faster, and timings depend on the process. Made
    at import, it sits below every later buffer in every process.
    """
    import numpy as np

    np.zeros(1 << 15) + 0.0


_settle_numpy_thread_state()
