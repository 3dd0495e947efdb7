"""One workload in one fresh process: set-up, measured loop or traced replay, gates.

    python3 perfbench/worker.py --workload W --work DIR --result FILE \
        --seed N --seconds S --trace 0|1 [--setup-only]

`run.py` generates DIR (inputs plus truth.json) and starts this script, so
the process holds nothing but the workload: its `ru_maxrss` is the
workload's peak RSS, and everything from the first line to the end of the
warm-up is the workload's set-up. Times come from perf_counter, CPU from
getrusage, both summed over the timed regions only; gates run between them.
"""

from time import perf_counter

SETUP_START = perf_counter()  # set-up includes the numpy, scipy and seldkit imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import seldkit  # noqa: E402
from seldkit import accdoa, augment, cli, features, metrics, se_block  # noqa: E402
from seldkit import dataset_io as dio  # noqa: E402

import gates  # noqa: E402
import gen  # noqa: E402
from spans import LAYERS, NullTracer, Tracer, per_layer_names  # noqa: E402

EXTRACT_THREADS = 2
SWEEP_THRESHOLDS = (0.3, 0.5, 0.7)
MIN_STEPS = 200                 # p95 needs at least 10 steps beyond it
TRACED_TRAIN_STEPS = 128
TRAIN_CONFIGS = 64              # distinct (chunk pair, augment seed) steps, cycled
GRADIENT_PROBES = 16            # configs whose SE input gradient gets a central difference


class Meter:
    """Sums wall and CPU time over `with meter:` blocks; keeps each block's wall."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.samples = []

    def __enter__(self):
        self._t, self._c = perf_counter(), _cpu()
        return self

    def __exit__(self, *exc):
        dt = perf_counter() - self._t
        self.wall += dt
        self.cpu += _cpu() - self._c
        self.samples.append(dt)
        return False


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Outcome:
    """Attempted/failed operations and the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []
        self.by_layer = defaultdict(int)

    def add(self, ops, fails, layer):
        bad = {op for op, _ in fails}
        self.attempted += len(ops)
        self.failed += len(bad)
        self.by_layer[layer] += len(bad)
        self.reasons += [f"{op}: {why}" for op, why in fails][:max(0, 10 - len(self.reasons))]


def run_cli(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- extract

def extract_argv(truth, out_dir, stats_path):
    return ["extract", truth["manifest"], str(out_dir), "--stats", str(stats_path),
            "--threads", str(EXTRACT_THREADS)]


def extract_cli_pass(truth, work, meter, outcome, recorded):
    out_dir = _fresh_dir(work / "out_cli")
    stats_path = out_dir / "stats.slsa"
    with meter:
        rc = run_cli(extract_argv(truth, out_dir, stats_path))
    fails, _ = gates.check_extract(out_dir, stats_path, truth, recorded, rc)
    outcome.add([c["stem"] for c in truth["clips"]], fails, "features")


def extract_replay(tr, truth, work, meter, outcome, recorded, tag, counts):
    """cmd_extract's calls, one thread, salsa split into its three stages."""
    out_dir = _fresh_dir(work / f"out_{tag}")
    stats_path = out_dir / "stats.slsa"
    tensors = []
    tr.op = "manifest"
    with meter, tr.span("cli.extract"):
        manifest = tr.call("dataset_io.read_manifest", dio.read_manifest, truth["manifest"])
    counts["dataset_io.read_manifest.rows"] += len(manifest.entries)
    for entry in manifest.entries:
        tr.op = Path(entry.audio_path).stem
        with meter, tr.span("cli.extract"):
            clip = tr.call("dataset_io.read_foa_wav", dio.read_foa_wav, entry.audio_path)
            with tr.span("features.salsa"):
                spec = tr.call("features.stft", features.stft, clip)
                log_spec = tr.call("features.log_linear_spectrogram",
                                   features.log_linear_spectrogram, spec)
                intensity = tr.call("features.eigenvector_intensity",
                                    features.eigenvector_intensity, spec)
                tensor = np.concatenate([log_spec, intensity]).astype(np.float32)
        tensors.append(tensor)
        norm = np.linalg.norm(intensity, axis=0)
        counts["dataset_io.read_foa_wav.mb"] += os.path.getsize(entry.audio_path) / 1e6
        counts["features.tf_bins"] += norm.size
        counts["features.zero_intensity_bins"] += int(np.count_nonzero(norm == 0))
        counts["features.unit_norm_bins"] += int(np.count_nonzero(np.abs(norm - 1.0) < 1e-9))
        del spec, log_spec, intensity, norm
    tr.op = "stats"
    with meter, tr.span("cli.extract"):
        stats = tr.call("features.compute_norm_stats", features.compute_norm_stats, iter(tensors))
        tr.call("features.save_norm_stats", features.save_norm_stats, stats, stats_path)
    for entry, tensor in zip(manifest.entries, tensors):
        tr.op = Path(entry.audio_path).stem
        out_path = out_dir / (tr.op + ".slsa")
        with meter, tr.span("cli.extract"):
            tensor = tr.call("features.normalize", features.normalize, tensor, stats)
            tr.call("dataset_io.write_feature_file", dio.write_feature_file, tensor, out_path)
        counts["dataset_io.write_feature_file.mb"] += os.path.getsize(out_path) / 1e6
    del tensors
    fails, _ = gates.check_extract(out_dir, stats_path, truth, recorded, 0)
    outcome.add([c["stem"] for c in truth["clips"]], fails, "features")


def run_extract(args, truth, work, recorded):
    audio = truth["audio_s"]
    outcome = Outcome()
    if not args.trace:
        meter = Meter()
        while meter.wall < args.seconds or not meter.samples:
            extract_cli_pass(truth, work, meter, outcome, recorded)
        return meter, audio * len(meter.samples), outcome, None
    cli_meter, plain, traced = Meter(), Meter(), Meter()
    extract_cli_pass(truth, work, cli_meter, outcome, recorded)
    tr, counts = Tracer(), defaultdict(float)
    for tracer, meter, tag, tally in ((NullTracer(), plain, "plain", defaultdict(float)),
                                      (tr, traced, "traced", counts)):
        try:
            extract_replay(tracer, truth, work, meter, outcome, recorded, tag, tally)
        except Exception as exc:  # a raising layer fails every clip of the replay
            outcome.add([c["stem"] for c in truth["clips"]],
                        [(c["stem"], repr(exc)) for c in truth["clips"]], "raised")
    counts["cli.extract.parallel_efficiency"] = plain.wall / (EXTRACT_THREADS * cli_meter.wall)
    return traced, audio, outcome, (tr, plain, counts)


# --------------------------------------------------------------- evaluate

def evaluate_argvs(d):
    return {
        "ensemble": ["ensemble", *(str(d / f"model{m}.slsa") for m in range(3)),
                     "--out", str(d / "avg.slsa"), "--csv", str(d / "avg.csv")],
        "sweep": ["score", str(d / "avg.slsa"), str(d / "ref.csv"), "--sweep",
                  "--report", str(d / "sweep.csv")],
        "score": ["score", str(d / "avg.csv"), str(d / "ref.csv"),
                  "--report", str(d / "score.csv")],
    }


def _clear_outputs(d):
    for name in ("avg.slsa", "avg.csv", "sweep.csv", "score.csv"):
        (d / name).unlink(missing_ok=True)


def evaluate_replay_clip(tr, d, meter, counts):
    """cmd_ensemble and cmd_score's calls; threshold_sweep split into decode + score."""
    def read_tensor(path):
        counts["dataset_io.read_feature_file.mb"] += os.path.getsize(path) / 1e6
        return tr.call("dataset_io.read_feature_file", dio.read_feature_file, path)

    scored = []
    with meter, tr.span("cli.ensemble"):
        tensors = [read_tensor(d / f"model{m}.slsa") for m in range(3)]
        avg = tr.call("accdoa.ensemble_average", accdoa.ensemble_average, tensors)
        tr.call("dataset_io.write_feature_file", dio.write_feature_file, avg, d / "avg.slsa")
        events = tr.call("accdoa.decode", accdoa.decode, avg, 0.5)
        tr.call("dataset_io.write_label_csv", dio.write_label_csv, events, d / "avg.csv")
    counts["dataset_io.write_feature_file.mb"] += os.path.getsize(d / "avg.slsa") / 1e6
    counts["dataset_io.write_label_csv.rows"] += len(events)
    counts["accdoa.decode.events"] += len(events)
    with meter, tr.span("cli.score"):
        refs = tr.call("dataset_io.read_label_csv", dio.read_label_csv, d / "ref.csv")
        pred = read_tensor(d / "avg.slsa")
        lines = ["threshold,er,f1,le,lr"]
        with tr.span("metrics.threshold_sweep"):
            for thr in SWEEP_THRESHOLDS:
                decoded = tr.call("accdoa.decode", accdoa.decode, pred, thr)
                s = tr.call("metrics.compute_seld_scores", metrics.compute_seld_scores,
                            decoded, refs, average="macro")
                lines.append(f"{thr},{s.er:.6f},{s.f1:.6f},{s.le:.6f},{s.lr:.6f}")
                scored.append(decoded)
        (d / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with meter, tr.span("cli.score"):
        refs = tr.call("dataset_io.read_label_csv", dio.read_label_csv, d / "ref.csv")
        preds = tr.call("dataset_io.read_label_csv", dio.read_label_csv, d / "avg.csv")
        scores = tr.call("metrics.compute_seld_scores", metrics.compute_seld_scores,
                         preds, refs, average="macro")
        (d / "score.csv").write_text(metrics.scores_to_csv(scores), encoding="utf-8")
    counts["dataset_io.read_label_csv.rows"] += 2 * len(refs) + len(preds)
    counts["accdoa.decode.events"] += sum(len(e) for e in scored)
    ref_cells = metrics.segment_events(refs)
    for predicted in (*scored, preds):
        pred_cells = metrics.segment_events(predicted)
        for cell in set(pred_cells) | set(ref_cells):
            p, r = len(pred_cells.get(cell, ())), len(ref_cells.get(cell, ()))
            counts["metrics.cells"] += 1
            counts["metrics.pairs"] += min(p, r)
            counts["metrics.cost_entries"] += p * r


def run_evaluate(args, truth, work, recorded):
    clips = truth["clips"]
    outcome = Outcome()

    def one(index, meter, replay=None):
        clip = clips[index % len(clips)]
        d = Path(clip["dir"])
        _clear_outputs(d)
        if replay is None:
            with meter:
                codes = {name: run_cli(argv) for name, argv in evaluate_argvs(d).items()}
        else:
            tr, counts = replay
            tr.op = d.name
            try:
                evaluate_replay_clip(tr, d, meter, counts)
            except Exception as exc:  # charged to the raising span's layer by the tracer
                outcome.add([d.name], [(d.name, repr(exc))], "raised")
                return
            codes = {}
        fails, _ = gates.check_evaluate(d, clip, recorded.get(d.name), codes)
        outcome.add([f"{d.name}#{index}"], fails, "metrics")

    per_clip = truth["audio_s_per_clip"]
    if not args.trace:
        meter = Meter()
        while meter.wall < args.seconds or not meter.samples:
            one(len(meter.samples), meter)
        return meter, per_clip * len(meter.samples), outcome, None
    plain, traced, tr, counts = Meter(), Meter(), Tracer(), defaultdict(float)
    for index in range(len(clips)):  # interleaved, so drift in machine speed hits both alike
        one(index, plain, (NullTracer(), defaultdict(float)))
        one(index, traced, (tr, counts))
    return traced, per_clip * len(clips), outcome, (tr, plain, counts)


# ------------------------------------------------------------- train_feed

class TrainFeed:
    """One loader step: read a chunk pair and a partner, augment, SE forward + backward."""

    def __init__(self, truth, seed):
        self.chunks = truth["chunks"]
        self.seed = seed
        self.configs = (augment.AugmentConfig(mode="fs_mm"), augment.AugmentConfig(mode="tm_mm"))
        freq, chan = gen.se_params(seed)
        self.p_freq, self.p_chan = se_block.SeParams(*freq), se_block.SeParams(*chan)

    period = TRAIN_CONFIGS

    def step(self, tr, index, counts):
        k = index % self.period
        n = len(self.chunks)
        pair, partner = self.chunks[k % n], self.chunks[(k + n // 2) % n]
        read = []
        for path in (*pair, *partner):
            read.append(tr.call("dataset_io.read_feature_file", dio.read_feature_file, path))
        feats, labels = read[0], read[1].astype(np.float64)
        p_feats, p_labels = read[2], read[3].astype(np.float64)
        rng = augment.make_rng((self.seed * 65536 + k) % 2 ** 64)
        aug_f, aug_l = tr.call("augment.augment_pipeline", augment.augment_pipeline,
                               (feats, labels), (p_feats, p_labels), self.configs[k % 2], rng)
        y = tr.call("se_block.multi_dim_se_forward", se_block.multi_dim_se_forward,
                    aug_f, self.p_freq, self.p_chan)
        grads = tr.call("se_block.multi_dim_se_backward", se_block.multi_dim_se_backward,
                        aug_f, self.p_freq, self.p_chan, y)
        if counts is not None:
            counts["dataset_io.read_feature_file.mb"] += sum(a.nbytes for a in read) / 1e6
        return k, aug_f, aug_l, y, grads

    def _forward(self, x):
        return se_block.multi_dim_se_forward(x, self.p_freq, self.p_chan)

    def _input_grad(self, x, grad_y):
        return se_block.multi_dim_se_backward(x, self.p_freq, self.p_chan, grad_y)[0]

    def _relu_inputs(self, x):
        """Bottleneck pre-activations of the frequency SE (per frame), then the channel SE."""
        freq = self.p_freq.w1 @ x.mean(axis=0) + self.p_freq.b1[:, None]
        inner = se_block.freq_se_forward(x, self.p_freq)
        chan = self.p_chan.w1 @ inner.mean(axis=(1, 2)) + self.p_chan.b1
        return np.concatenate([freq.ravel(), chan])

    def check(self, k, index, aug_f, aug_l, y, grads, recorded, seen):
        """Gates one step; the first steps of the first configs also get a gradient probe."""
        grad_x, g_freq, g_chan = grads
        observed = {"digest": gates.step_digest(aug_f, aug_l),
                    "se": gates.se_summary(y, (grad_x, *g_freq.as_arrays(), *g_chan.as_arrays()))}
        fails = gates.check_step(index, aug_f, aug_l, aug_f.shape[2], observed,
                                 (recorded.get(str(k)), seen.get(k)))
        if k not in seen and k < GRADIENT_PROBES:
            error = gates.directional_check(self._forward, self._input_grad, self._relu_inputs,
                                            aug_f.astype(np.float64),
                                            np.random.default_rng(k))
            if error > 1.0:
                fails.append((index, f"SE input gradient off by {error:.1f}x the rounding allowance"))
        seen.setdefault(k, observed)
        return fails, observed


def run_train_feed(args, truth, work, recorded):
    feed = TrainFeed(truth, args.seed)
    outcome = Outcome()
    seen = {}

    def one(index, meter, tr, counts):
        tr.op = index
        try:
            with meter, tr.span("bench.step"):
                k, *out = feed.step(tr, index, counts)
        except Exception as exc:
            outcome.add([index], [(index, repr(exc))], "raised")
            return
        fails, _ = feed.check(k, index, *out, recorded, seen)
        outcome.add([index], fails, "augment" if any("augment" in w for _, w in fails) else "se_block")

    chunk_s = truth["chunk_s"]
    if not args.trace:
        meter, tr = Meter(), NullTracer()
        while meter.wall < args.seconds or len(meter.samples) < MIN_STEPS:
            one(len(meter.samples), meter, tr, None)
        return meter, chunk_s * len(meter.samples), outcome, None
    plain, traced, tr, counts = Meter(), Meter(), Tracer(), defaultdict(float)
    for index in range(TRACED_TRAIN_STEPS):  # interleaved, as in run_evaluate
        one(index, plain, NullTracer(), None)
        one(index, traced, tr, counts)
    return traced, chunk_s * TRACED_TRAIN_STEPS, outcome, (tr, plain, counts)


RUNNERS = {"extract": run_extract, "evaluate": run_evaluate, "train_feed": run_train_feed}


# ---------------------------------------------------------------- set-up

def warm_up(workload, warm_dir):
    """First calls on tiny inputs: lazy imports, LAPACK/FFT plans, thread pool."""
    warm = json.loads((warm_dir / "truth.json").read_text())
    scratch = _fresh_dir(warm_dir / f"run{os.getpid()}")
    try:
        if workload == "extract":
            codes = [run_cli(extract_argv(warm, scratch, scratch / "stats.slsa"))]
        elif workload == "evaluate":
            d = Path(warm["clips"][0]["dir"])
            _clear_outputs(d)
            codes = [run_cli(argv) for argv in evaluate_argvs(d).values()]
        else:
            feed = TrainFeed(warm, 0)
            feed.step(NullTracer(), 0, None)
            codes = [0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if any(codes):
        raise RuntimeError(f"warm-up exited {codes}")


def _percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def summarize(meter, audio, outcome, trace):
    result = {"attempted": outcome.attempted, "failed": outcome.failed,
              "reasons": outcome.reasons}
    if trace is None:
        result["metrics"] = {
            "audio_s_per_s": audio / meter.wall,
            "cpu_s_per_audio_s": meter.cpu / audio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "step_ms_p50": 1e3 * _percentile(meter.samples, 50),
            # p95 only where 10 steps lie beyond it; fewer steps report their median
            "step_ms_p95": 1e3 * _percentile(meter.samples,
                                             95 if len(meter.samples) >= MIN_STEPS else 50),
            "steps": len(meter.samples),
        }
        return result
    tr, plain, counts = trace
    inclusive, self_s, failed = tr.layer_times()
    values = {name: 0.0 for name in per_layer_names()}
    values.update({name: inclusive.get(name[:-2], 0.0) for name in values if name.endswith(".s")})
    values.update(counts)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.share"] = self_s.get(layer, 0.0) / meter.wall
        values[f"{layer}.failed"] = failed.get(layer, 0) + outcome.by_layer.get(layer, 0)
    values["trace.overhead_ratio"] = meter.wall / plain.wall - 1.0
    result["per_layer"] = values
    result["spans"] = tr.spans
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(seldkit.__file__).resolve().parent != (SRC / "seldkit").resolve():
        raise SystemExit(f"imported seldkit from {seldkit.__file__}, not from {SRC}")
    warm_up(args.workload, args.work / "warm")
    setup_s = perf_counter() - SETUP_START
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        truth = json.loads((args.work / "truth.json").read_text())
        golden_path = HERE / "golden.json"
        golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
        recorded = golden.get(truth["size"], {}).get(str(args.seed), {}).get(args.workload, {})
        result = summarize(*RUNNERS[args.workload](args, truth, args.work, recorded))
        result["setup_s"] = setup_s
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
