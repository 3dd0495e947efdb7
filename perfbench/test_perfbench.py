"""Smoke tests for the benchmark itself, at tiny input sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import gen  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import NullTracer, Tracer, per_layer_names  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_runs_print():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert not list((HERE.parent / ".perfbench_work").glob(f"{workload}-5-*"))


def test_generator_is_seeded(tmp_path):
    for seed, name in ((1, "a"), (1, "b"), (2, "c")):
        gen.make_evaluate(tmp_path / name, seed, "tiny")
    same = (tmp_path / "a/clip00/model0.slsa").read_bytes()
    assert (tmp_path / "b/clip00/model0.slsa").read_bytes() == same
    assert (tmp_path / "c/clip00/model0.slsa").read_bytes() != same


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_fails_on_a_corrupted_output(workload, tmp_path):
    """Record tiny outputs, corrupt one slightly, and hold it to the recording."""
    fails, observed = record.observe(workload, 7, tmp_path, "tiny")
    assert fails == []
    truth = gen.MAKERS[workload](tmp_path / "again", 7, "tiny")
    if workload == "extract":
        out = tmp_path / "out"
        victim = out / f"{truth['clips'][0]['stem']}.slsa"
        feats = gates.read_slsa(victim).copy()
        feats[4] += 1e-3
        gen.write_slsa(feats, victim)
        fails, _ = gates.check_extract(out, out / "stats.slsa", truth, observed, 0)
    elif workload == "evaluate":
        d = tmp_path / "clip00"
        report = (d / "score.csv").read_text()
        (d / "score.csv").write_text(report.replace("le,", "le,1", 1))
        fails, _ = gates.check_evaluate(d, truth["clips"][0], observed["clip00"], {})
    else:
        feed = worker.TrainFeed(truth, 7)
        k, feats, labels, y, grads = feed.step(NullTracer(), 0, None)
        feats = np.ascontiguousarray(feats)
        feats.view(np.uint8).reshape(-1)[0] ^= 1  # one bit of one value
        fails, _ = feed.check(k, 0, feats, labels, y, grads, observed, {})
    assert fails


def test_extract_gate_catches_non_finite_features(tmp_path):
    fails, _ = record.observe("extract", 3, tmp_path, "tiny")
    assert fails == []
    truth = gen.make_extract(tmp_path / "again", 3, "tiny")
    victim = tmp_path / "out" / f"{truth['clips'][1]['stem']}.slsa"
    feats = gates.read_slsa(victim).copy()
    feats[0, 0, 0] = np.nan
    gen.write_slsa(feats, victim)
    fails, _ = gates.check_extract(tmp_path / "out", tmp_path / "out" / "stats.slsa", truth, None, 0)
    assert [op for op, _ in fails] == [truth["clips"][1]["stem"]]


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("cli.score"):
        with tr.span("metrics.compute_seld_scores"):
            pass
    inclusive, self_s, failed = tr.layer_times()
    assert self_s["cli"] == pytest.approx(inclusive["cli.score"] - inclusive["metrics.compute_seld_scores"])
    with pytest.raises(ValueError):
        with tr.span("cli.score"):
            tr.call("accdoa.decode", _raise)
    assert tr.layer_times()[2] == {"accdoa": 1}


def _raise():
    raise ValueError("boom")


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train_feed", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
