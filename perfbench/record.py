"""Record the gates' reference values into golden.json.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py --seeds 0-9

Runs each workload once per seed through the CLI (train_feed: one step per
config), checks the invariants, and stores what the gates compare against:
sampled feature values and stats, the score report texts, and the augment
digests with SE sums. Only run this on code whose outputs are the reference;
every later change is held to what it wrote.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from spans import NullTracer  # noqa: E402


def observe(workload, seed, work, size="full"):
    """(failures, observed values) for one workload and seed."""
    truth = gen.MAKERS[workload](work, seed, size)
    if workload == "extract":
        out_dir = work / "out"
        out_dir.mkdir()
        code = worker.run_cli(worker.extract_argv(truth, out_dir, out_dir / "stats.slsa"))
        return gates.check_extract(out_dir, out_dir / "stats.slsa", truth, None, code)
    fails, observed = [], {}
    if workload == "evaluate":
        for clip in truth["clips"]:
            d = Path(clip["dir"])
            codes = {name: worker.run_cli(argv) for name, argv in worker.evaluate_argvs(d).items()}
            clip_fails, observed[d.name] = gates.check_evaluate(d, clip, None, codes)
            fails += clip_fails
    else:
        feed = worker.TrainFeed(truth, seed)
        for k in range(feed.period):
            _, *out = feed.step(NullTracer(), k, None)
            step_fails, observed[str(k)] = feed.check(k, k, *out, {}, {})
            fails += step_fails
    return fails, observed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", default=",".join(gen.MAKERS))
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    root = HERE.parent / ".perfbench_work" / "record"
    for seed in range(int(lo), int(hi or lo) + 1):
        for workload in args.workloads.split(","):
            shutil.rmtree(root, ignore_errors=True)
            fails, observed = observe(workload, seed, root)
            if fails:
                raise SystemExit(f"seed {seed} {workload}: invariants failed: {fails[:3]}")
            golden.setdefault("full", {}).setdefault(str(seed), {})[workload] = observed
            print(f"recorded seed {seed} {workload}", flush=True)
    shutil.rmtree(root, ignore_errors=True)
    path.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
