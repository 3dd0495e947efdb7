"""Command-line front end: batch feature extraction, augmentation,
ACCDOA encode/decode, scoring, gradient checks, and ensembling.

Every subcommand is deterministic given its inputs, flags, and seed. Exit
codes: 0 success, 1 input error (bad files, bad flags), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import accdoa, augment, features, metrics, se_block
from .dataset_io import (
    N_CLASSES,
    _atomic_write_bytes,
    read_feature_file,
    read_foa_wav,
    read_label_csv,
    read_manifest,
    write_feature_file,
    write_label_csv,
)
from .errors import SeldkitError, ShapeMismatch

# The most array elements a flag may size (1 GiB as float64): encode's
# --frames, gradcheck's --shape. Checked before allocating, so an oversized
# flag is an input error rather than a MemoryError.
_FLAG_ELEMENT_BUDGET = 2 ** 27


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; bad flags are input errors (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (SeldkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations, not input problems
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seldkit",
                     description="SELD feature/augmentation/metrics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="manifest WAVs -> feature files")
    p.add_argument("manifest", help="CSV with header audio_path,label_path,split")
    p.add_argument("out_dir", help="directory for .slsa feature files")
    p.add_argument("--stats", metavar="PATH",
                   help="normalization stats file: loaded if present, "
                        "otherwise fitted on this run and saved here; "
                        "features are written normalized")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("augment", help="augment one feature/label pair")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True, help="ACCDOA tensor file")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--partner-features", help="mixup partner feature file")
    p.add_argument("--partner-labels", help="mixup partner label file")
    for key in augment._CONFIG_TYPES:  # read by augment.config_from_mapping
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("encode", help="label CSV -> ACCDOA tensor")
    p.add_argument("labels", help="label CSV")
    p.add_argument("--frames", type=int, required=True, help="label frame count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="ACCDOA tensor -> label CSV")
    p.add_argument("tensor")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="score predictions against references")
    p.add_argument("pred", help="label CSV, or an ACCDOA tensor with --sweep")
    p.add_argument("ref", help="reference label CSV")
    p.add_argument("--sweep", action="store_true",
                   help="decode pred at thresholds 0.3/0.5/0.7 and score each")
    p.add_argument("--average", choices=("macro", "micro"), default="macro")
    p.add_argument("--report", metavar="CSV", help="also write scores as CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("gradcheck", help="verify SE-block gradients")
    p.add_argument("--shape", default="4,6,5", help="C,F,T (default 4,6,5)")
    p.add_argument("--ratio", type=int, default=2,
                   help="reduction ratio, must divide C and F")
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ensemble", help="average ACCDOA tensors")
    p.add_argument("tensors", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--csv", help="also decode the average to this label CSV")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("stats", help="fit normalization stats on feature files")
    p.add_argument("features", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def cmd_extract(args) -> int:
    manifest = read_manifest(args.manifest)
    if args.threads < 1:
        raise SeldkitError(f"--threads must be >= 1, got {args.threads}")
    out_dir = Path(args.out_dir)
    out_paths = {e: out_dir / (Path(e.audio_path).stem + ".slsa")
                 for e in manifest.entries}
    # an existing --stats file is read, a missing one is written
    stats_read = bool(args.stats) and Path(args.stats).exists()
    _check_outputs(
        [("manifest", args.manifest), ("--stats", args.stats if stats_read else None)]
        + [("audio", e.audio_path) for e in manifest.entries],
        [(f"features of {e.audio_path}", p) for e, p in out_paths.items()]
        + [("--stats", None if stats_read else args.stats)])
    stats = None
    if stats_read:  # checked before any clip is read
        stats = features.load_norm_stats(args.stats)
        if stats.mean.shape != (7, features.N_FREQ_BINS):
            raise ShapeMismatch(
                f"--stats {args.stats} holds stats for (C, F) {stats.mean.shape}, "
                f"not the (7, {features.N_FREQ_BINS}) of extracted features")
    out_dir.mkdir(parents=True, exist_ok=True)

    def extract_one(entry):
        return features.salsa(read_foa_wav(entry.audio_path))

    results = []
    failures = []
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        futures = [(e, pool.submit(extract_one, e)) for e in manifest.entries]
        for entry, future in futures:
            try:
                results.append((entry, future.result()))
            except (SeldkitError, OSError) as exc:
                failures.append(exc)
    for exc in failures:  # before fitting, which fails if every clip did
        print(f"error: {exc}", file=sys.stderr)

    if args.stats and stats is None:
        stats = features.compute_norm_stats(t for _, t in results)
        features.save_norm_stats(stats, args.stats)
        print(f"fitted stats over {len(results)} clips -> {args.stats}")
        stats = features.load_norm_stats(args.stats)  # as stored, like a loaded file

    for entry, tensor in results:
        if stats is not None:
            tensor = features.normalize(tensor, stats)
        write_feature_file(tensor, out_paths[entry])
        print(f"wrote {out_paths[entry]}")
    return 1 if failures else 0


def cmd_augment(args) -> int:
    _check_outputs([("--features", args.features), ("--labels", args.labels),
                    ("--partner-features", args.partner_features),
                    ("--partner-labels", args.partner_labels)],
                   [("--out-features", args.out_features), ("--out-labels", args.out_labels)])
    feats, labs = _read_pair(args.features, args.labels)
    config, seed = augment.config_from_mapping(
        {key: getattr(args, key) for key in augment._CONFIG_TYPES})
    if bool(args.partner_features) != bool(args.partner_labels):
        raise SeldkitError(
            "--partner-features and --partner-labels must be given together")
    partner = None
    if args.partner_features:
        partner = _read_pair(args.partner_features, args.partner_labels)
    out_f, out_l = augment.augment_pipeline((feats, labs), partner, config,
                                            augment.make_rng(seed))
    write_feature_file(out_f, args.out_features)
    write_feature_file(out_l, args.out_labels)
    print(f"wrote {args.out_features} and {args.out_labels} (seed {seed})")
    return 0


def cmd_encode(args) -> int:
    _check_outputs([("labels", args.labels)], [("--out", args.out)])
    _check_budget("--frames", 3 * N_CLASSES * args.frames)  # encode refuses a negative one
    events = read_label_csv(args.labels)
    write_feature_file(accdoa.encode(events, args.frames), args.out)
    print(f"wrote {args.out} ({len(events)} events, {args.frames} frames)")
    return 0


def cmd_decode(args) -> int:
    _check_outputs([("tensor", args.tensor)], [("--out", args.out)])
    events = _naming(args.tensor, accdoa.decode, read_feature_file(args.tensor),
                     args.threshold)
    write_label_csv(events, args.out)
    print(f"wrote {args.out} ({len(events)} events at threshold {args.threshold})")
    return 0


def cmd_score(args) -> int:
    _check_outputs([("pred", args.pred), ("ref", args.ref)], [("--report", args.report)])
    refs = read_label_csv(args.ref)
    if args.sweep:
        rows = _naming(args.pred, metrics.threshold_sweep, read_feature_file(args.pred), refs,
                       average=args.average)
        print(metrics.format_sweep_table(rows))
        report = metrics.sweep_to_csv(rows)
    else:
        scores = metrics.compute_seld_scores(read_label_csv(args.pred), refs,
                                             average=args.average)
        print(metrics.format_scores_line(scores))
        report = metrics.scores_to_csv(scores)
    if args.report:
        _atomic_write_bytes(args.report, report.encode("utf-8"))
    return 0


def cmd_gradcheck(args) -> int:
    try:
        c, f, t = (int(v) for v in args.shape.split(","))
    except ValueError as exc:
        raise SeldkitError(f"--shape must be C,F,T integers: {exc}") from exc
    r = args.ratio
    if min(c, f, t, r, args.seeds) < 1:
        raise SeldkitError(
            f"--shape sizes, --ratio and --seeds must be >= 1, got shape "
            f"{c},{f},{t}, ratio {r}, seeds {args.seeds}"
        )
    if c % r != 0 or f % r != 0:
        raise SeldkitError(f"ratio {r} must divide both C={c} and F={f}")
    # the input and the two stages' (d/r, d) weight pairs
    _check_budget("--shape", c * f * t + 2 * (c * c + f * f) // r)

    failed = 0
    for name, (fwd, bwd, _) in se_block.GRADCHECK_BLOCKS.items():
        worst = 0.0
        for seed in range(args.seeds):
            rng = augment.make_rng(seed)
            x = rng.standard_normal((c, f, t))
            params = se_block.gradcheck_params(rng, name, x.shape, r)
            worst = np.maximum(worst, se_block.gradcheck(fwd, bwd, x, params))
        failed += not worst <= 1.0  # a nan ratio fails
        print(f"{name}: {'PASS' if worst <= 1.0 else 'FAIL'} "
              f"max_err_ratio {worst:.3e} (allowance 1)")
    print(f"{len(se_block.GRADCHECK_BLOCKS) * args.seeds} checks total")
    return 1 if failed else 0


def cmd_ensemble(args) -> int:
    _check_outputs([("tensor", p) for p in args.tensors],
                   [("--out", args.out), ("--csv", args.csv)])
    tensors = [read_feature_file(p) for p in args.tensors]
    first = args.tensors[0]  # named when the shape all inputs share is refused
    for path, tensor in zip(args.tensors, tensors):
        if tensor.shape != tensors[0].shape:
            raise ShapeMismatch(f"{path}: shape {tensor.shape} does not match "
                                f"{tensors[0].shape} of {first}")
    avg = _naming(first, accdoa.ensemble_average, tensors).astype(np.float32)  # --out's dtype
    events = _naming(first, accdoa.decode, avg, args.threshold) if args.csv else None
    write_feature_file(avg, args.out)
    print(f"wrote {args.out} (mean of {len(tensors)} tensors)")
    if args.csv:
        write_label_csv(events, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_stats(args) -> int:
    _check_outputs([("features", p) for p in args.features], [("--out", args.out)])
    stats = features.compute_norm_stats(
        read_feature_file(p) for p in args.features
    )
    features.save_norm_stats(stats, args.out)
    print(f"wrote {args.out} (fitted on {len(args.features)} files)")
    return 0


def _check_budget(flags: str, elements: int) -> None:
    if elements > _FLAG_ELEMENT_BUDGET:
        raise SeldkitError(
            f"{flags}: {elements:,} array elements is over the budget of "
            f"{_FLAG_ELEMENT_BUDGET:,}"
        )


def _check_outputs(inputs, outputs) -> None:
    """Refuse an output that resolves to an input or to another output,
    whose write would silently replace that file. inputs and outputs are
    (flag, path) pairs; a path of None was not given."""
    taken = [(flag, path, Path(path).resolve()) for flag, path in inputs if path]
    for flag, path in outputs:
        if not path:
            continue
        resolved = Path(path).resolve()
        for other_flag, other_path, other in taken:
            if other == resolved:
                raise SeldkitError(
                    f"{other_flag} {other_path} and {flag} {path} are the same file")
        taken.append((flag, path, resolved))


def _naming(path, call, *args, **kwargs):
    """call(*args, **kwargs); a ShapeMismatch it raises names path, the input at fault."""
    try:
        return call(*args, **kwargs)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{path}: {exc}") from exc


def _read_pair(features_path, labels_path) -> tuple:
    """Read 3-D finite features and labels (as float64); drop the tail
    feature frames that do not fill a label frame.

    A clip whose sample count is not a multiple of the hop leaves up to 7
    spare STFT frames; anything beyond that is a real misalignment.
    """
    feats = read_feature_file(features_path)
    labs = read_feature_file(labels_path).astype(np.float64)
    for path, arr in ((features_path, feats), (labels_path, labs)):
        if arr.ndim != 3 or not np.isfinite(arr).all():
            raise SeldkitError(f"{path}: not a finite 3-D tensor (shape {arr.shape})")
    need = accdoa.FEATURE_FRAMES_PER_LABEL_FRAME * labs.shape[2]
    have = feats.shape[2]
    if have < need or have - need >= accdoa.FEATURE_FRAMES_PER_LABEL_FRAME:
        raise ShapeMismatch(
            f"{have} feature frames cannot serve {labs.shape[2]} label frames"
        )
    return feats[:, :, :need], labs


if __name__ == "__main__":
    sys.exit(main())
