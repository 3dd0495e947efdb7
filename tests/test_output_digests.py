"""tools/output_digests.py: every subcommand's outputs digested on a tiny
seed, --threads 1 against 2 and a rerun compared. No digest is pinned: FFT
and BLAS bytes may differ between numpy builds."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_seed_digests_every_subcommand():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "3"], env=env,
                          capture_output=True, text=True, timeout=60)
    # exit 0: the rerun and --threads 2 matched
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    commands = {key.split()[1] for key in digests}
    assert commands == {"extract", "stats", "encode", "decode", "ensemble",
                        "score", "augment", "gradcheck"}
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in digests.values())
    assert any(" --threads 2 " in key for key in digests)
    assert sum(key.endswith("| stdout") for key in digests) == 17


def test_thread_mismatches(tool):
    digests = {"0: extract m out --threads 1 --stats s | out/a.slsa": "x",
               "0: extract m out --threads 2 --stats s | out/a.slsa": "x",
               "0: extract m out --threads 1 --stats s | stdout": "y",
               "0: extract m out --threads 2 --stats s | stdout": "z",
               "0: extract m out --threads 1 --stats s | out/b.slsa": "w"}
    assert tool.thread_mismatches(digests) == [
        "0: extract m out --threads 1 --stats s | stdout",
        "0: extract m out --threads 1 --stats s | out/b.slsa"]


def test_against_lists_the_differing_entries(tool, tmp_path, monkeypatch, capsys):
    runs = iter([{"0: a | stdout": "1", "0: b | stdout": "2"},
                 {"0: a | stdout": "1", "0: b | stdout": "3"}])
    monkeypatch.setattr(tool, "make_inputs", lambda seed, size: {})
    monkeypatch.setattr(tool, "run_commands", lambda seed, size, truth: next(runs))
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"0: a | stdout": "1", "0: c | stdout": "4"}))
    assert tool.main(["--against", str(expected)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"0: a | stdout": "1", "0: b | stdout": "2"}
    assert captured.err.splitlines() == [
        "rerun differs: 0: b | stdout",
        f"differs from {expected}: 0: b | stdout",
        f"differs from {expected}: 0: c | stdout"]


def test_read_expected_changes(tool, tmp_path):
    path = tmp_path / "changes.txt"
    path.write_text("# a comment\n\n0: decode a | stdout  # alters the count\n"
                    "  1: score b c | out/r.csv\n#0: gone | stdout\n")
    assert tool.read_expected_changes(path) == {"0: decode a | stdout",
                                                "1: score b c | out/r.csv"}


@pytest.mark.parametrize("listed, problems", [
    # an unlisted difference fails
    (set(), ["differs from p.json: 0: b | stdout"]),
    # a listed one passes
    ({"0: b | stdout"}, []),
    # a listed key that does not differ fails, and a listed key this run
    # does not produce is not checked
    ({"0: a | stdout", "0: b | stdout", "7: other seed | stdout"},
     ["listed in expected_digest_changes.txt but does not differ: 0: a | stdout"]),
])
def test_against_problems(tool, listed, problems):
    parent = {"0: a | stdout": "1", "0: b | stdout": "2"}
    mine = {"0: a | stdout": "1", "0: b | stdout": "3"}
    assert tool.against_problems(parent, mine, listed, "p.json") == problems


def test_against_reads_the_expected_changes_file(tool, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tool, "make_inputs", lambda seed, size: {})
    monkeypatch.setattr(tool, "run_commands", lambda seed, size, truth: {"0: b | stdout": "3"})
    listed = tmp_path / "changes.txt"
    listed.write_text("0: b | stdout\n")
    monkeypatch.setattr(tool, "EXPECTED_CHANGES", listed)
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"0: b | stdout": "2"}))
    assert tool.main(["--against", str(parent)]) == 0
    assert capsys.readouterr().err == ""
