"""SHA-256 digests of every seldkit CLI output, for byte-identity checks.

For each seed given, the inputs are made with perfbench/gen.py's makers (at
`tiny` or `full` size) and every subcommand runs through `seldkit.cli.main`:

- `extract` at `--threads 1` and `2`, once fitting `--stats` and once
  loading it;
- `stats`, `encode`, `decode` at each sweep threshold and `ensemble --csv`;
- `score` macro and micro with `--report`, and `score --sweep`;
- `augment` in each mode with a mixup partner;
- `gradcheck`.

It prints one JSON object: for each command (keyed by seed and command
line) the SHA-256 of its exit code and stdout, and of every file it wrote.
Each seed runs twice, in fresh output directories. The script exits 1 when
the rerun differs, when `--threads 1` and `2` differ, or, with
`--against FILE`, when an entry differs from that file's and is not listed
in tools/expected_digest_changes.txt, or is listed there and does not
differ; each problem is one line on stderr. That file names the keys a
change alters on purpose, one per line, `#` starting a comment; a listed
key this run does not produce is not checked, so one list serves runs of
other seeds and sizes.

seldkit is imported from the path, so one script compares two trees:

    PYTHONPATH=../parent/src python tools/output_digests.py --seeds 0 1 > parent.json
    PYTHONPATH=src python tools/output_digests.py --seeds 0 1 --against parent.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (read-only: the benchmark's own input makers)

from seldkit import cli  # noqa: E402

EXPECTED_CHANGES = Path(__file__).resolve().parent / "expected_digest_changes.txt"
THRESHOLDS = ("0.3", "0.5", "0.7")
AUGMENT_MODES = ("fs_mm", "tm_mm", "all")


def make_inputs(seed: int, size: str) -> dict:
    """The benchmark inputs of seed under in/, relative to the working
    directory, so no command line or stdout holds a temporary path."""
    shutil.rmtree("in", ignore_errors=True)
    return {workload: maker(f"in/{workload}", seed, size)
            for workload, maker in gen.MAKERS.items()}


def run_commands(seed: int, size: str, truth: dict) -> dict:
    """Run every subcommand on the inputs under in/, writing under out/,
    and return {"<seed>: <command line> | <stdout or path>": sha256}."""
    digests = {}

    def run(argv, outputs=()):
        label = f"{seed}: {' '.join(argv)}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        digests[f"{label} | stdout"] = _sha256(f"exit {rc}\n{stdout.getvalue()}".encode())
        for path in outputs:
            path = Path(path)
            digests[f"{label} | {path.as_posix()}"] = (
                _sha256(path.read_bytes()) if path.exists() else "missing")

    manifest = truth["extract"]["manifest"]
    stems = [clip["stem"] for clip in truth["extract"]["clips"]]
    for threads in ("1", "2"):
        shutil.rmtree("out", ignore_errors=True)
        Path("out").mkdir()
        for feat_dir in ("out/feat", "out/feat_loaded"):  # fit, then load
            run(["extract", manifest, feat_dir, "--threads", threads,
                 "--stats", "out/stats.slsa"],
                [f"{feat_dir}/{stem}.slsa" for stem in stems] + ["out/stats.slsa"])
    run(["stats", *(f"out/feat/{stem}.slsa" for stem in stems), "--out", "out/refit.slsa"],
        ["out/refit.slsa"])

    frames = str(gen.SIZES[size]["eval_seconds"] * gen.LABEL_FRAMES_PER_S)
    for clip in truth["evaluate"]["clips"]:
        src = Path(clip["dir"]).as_posix()
        out = f"out/{Path(src).name}"
        Path(out).mkdir()
        run(["ensemble", *(f"{src}/model{m}.slsa" for m in range(3)),
             "--out", f"{out}/avg.slsa", "--csv", f"{out}/avg.csv"],
            [f"{out}/avg.slsa", f"{out}/avg.csv"])
        for threshold in THRESHOLDS:
            run(["decode", f"{out}/avg.slsa", "--threshold", threshold,
                 "--out", f"{out}/decode_{threshold}.csv"], [f"{out}/decode_{threshold}.csv"])
        run(["encode", f"{src}/ref.csv", "--frames", frames, "--out", f"{out}/ref.slsa"],
            [f"{out}/ref.slsa"])
        for average in ("macro", "micro"):
            run(["score", f"{out}/avg.csv", f"{src}/ref.csv", "--average", average,
                 "--report", f"{out}/score_{average}.csv"], [f"{out}/score_{average}.csv"])
        run(["score", f"{out}/avg.slsa", f"{src}/ref.csv", "--sweep"])

    (feats, labels), (partner_feats, partner_labels) = truth["train_feed"]["chunks"][:2]
    for mode in AUGMENT_MODES:
        written = [f"out/aug_{mode}.slsa", f"out/aug_{mode}_labels.slsa"]
        run(["augment", "--features", feats, "--labels", labels,
             "--partner-features", partner_feats, "--partner-labels", partner_labels,
             "--mode", mode, "--mm-prob", "1", "--seed", str(seed),
             "--out-features", written[0], "--out-labels", written[1]], written)

    run(["gradcheck"])
    return digests


def thread_mismatches(digests: dict) -> list:
    """Entries of an extract run at --threads 1 whose --threads 2 twin differs."""
    return [key for key, value in digests.items() if " --threads 1 " in key
            and digests.get(key.replace(" --threads 1 ", " --threads 2 ")) != value]


def read_expected_changes(path) -> set:
    """The keys listed in path: one per line, blank lines and everything
    after a `#` ignored."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {key for key in (line.split("#", 1)[0].strip() for line in lines) if key}


def against_problems(expected: dict, digests: dict, listed: set, against: str) -> list:
    """An entry that differs between the two runs and is not listed, and a
    listed entry one of them produced that does not differ."""
    keys = expected.keys() | digests.keys()
    differing = {key for key in keys if expected.get(key) != digests.get(key)}
    return ([f"differs from {against}: {key}" for key in sorted(differing - listed)]
            + [f"listed in {EXPECTED_CHANGES.name} but does not differ: {key}"
               for key in sorted((listed & keys) - differing)])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--against", metavar="FILE",
                        help="digests JSON to compare with; an entry that differs and "
                             f"is not listed in {EXPECTED_CHANGES.name}, or is listed "
                             "and does not, exits 1")
    args = parser.parse_args(argv)
    expected = json.loads(Path(args.against).read_text()) if args.against else None

    digests, problems = {}, []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_digests-") as work:
        os.chdir(work)
        try:
            for seed in args.seeds:
                truth = make_inputs(seed, args.size)
                first = run_commands(seed, args.size, truth)
                rerun = run_commands(seed, args.size, truth)
                problems += [f"rerun differs: {key}" for key in first
                             if rerun.get(key) != first[key]]
                problems += [f"--threads 2 differs: {key}" for key in thread_mismatches(first)]
                digests.update(first)
        finally:
            os.chdir(home)

    print(json.dumps(digests, indent=1, sort_keys=True))
    if expected is not None:
        problems += against_problems(expected, digests,
                                     read_expected_changes(EXPECTED_CHANGES), args.against)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
