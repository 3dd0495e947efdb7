"""seldkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload extract|evaluate|train_feed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script generates the workload's inputs
from the seed under .perfbench_work/, measures set-up in fresh processes,
runs the workload in one more fresh process (worker.py), checks its
outputs and prints a report. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
single-threaded replay. The exit code is 1 when any output check failed
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extract", "evaluate", "train_feed")
END_TO_END = {
    "setup_s": "s",
    "audio_s_per_s": "audio-s/s",
    "cpu_s_per_audio_s": "cpu-s/audio-s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
}
# One BLAS thread per process: on a 2-vCPU box OpenBLAS's own pool makes the
# SE block's small matmuls up to 10x slower and the timings erratic, and
# extract already runs one Python thread per core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run, generation and every worker included


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def worker(args, work, extra, deadline):
    """Start worker.py in a fresh process, wait for it, return its result dict."""
    result_path = work / f"result-{len(list(work.glob('result-*')))}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **BLAS_ENV), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text())


def generate(workload, seed, size, work):
    import gen

    truth = gen.MAKERS[workload](work, seed, size)
    truth["size"] = size
    (work / "truth.json").write_text(json.dumps(truth))
    warm = gen.MAKERS[workload](work / "warm", seed, "warm")
    (work / "warm" / "truth.json").write_text(json.dumps(warm))
    return truth


def measure(args, work):
    from spans import per_layer_names

    deadline = time.monotonic() + DEADLINE_S
    truth = generate(args.workload, args.seed, args.size, work)
    # the median discounts the first probe of a fresh checkout, which compiles .pyc files
    setups = [worker(args, work, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = worker(args, work, [], deadline)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_names().items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups),
                      ok_ratio=1.0 - result["failed"] / result["attempted"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), "inputs": truth["properties"],
            "setup_s_samples": setups, "failures": result["reasons"],
            "steps": result.get("metrics", {}).get("steps")}
    if args.trace:
        # one [name, start, end, parent index, op id, failed] row per span
        spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(result["spans"]))
        info["spans"] = {"count": len(result["spans"]), "file": str(spans_path.relative_to(ROOT))}
    return result, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description="seldkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size class; tiny is for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seldkit" / "__init__.py").is_file():
        print(f"error: no seldkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, metrics, info = measure(args, work)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
