"""The package's top level: the names it exports, each listed in README's
Library API section, and what a fresh interpreter loads: `import seldkit`
costs numpy and seldkit's own modules, and of the commands only `score`
imports a scipy subpackage.

Each import case starts a new interpreter, imports seldkit and its CLI, then runs
commands through cli.main, recording after each which of the watched
scipy subpackages are in sys.modules. The inputs are written here, by a
process that may import anything.
"""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import helpers
import seldkit
from seldkit import Event, accdoa, cli
from seldkit.dataset_io import write_feature_file, write_label_csv

WATCHED = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.io")

CHILD = """
import json, sys
import seldkit, seldkit.cli

def loaded():
    return sorted(name for name in {watched!r} if name in sys.modules)

steps = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    rc = seldkit.cli.main(argv)
    steps.append([argv[0], rc, loaded()])
print(json.dumps(steps))
"""


def run_fresh(argvs):
    """[command, exit code, watched modules loaded] after the import and
    after each command, run one after another in one new interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(watched=WATCHED),
         json.dumps([[str(arg) for arg in argv] for argv in argvs])],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return [tuple(step[:2]) + (set(step[2]),)
            for step in json.loads(proc.stdout.splitlines()[-1])]


@pytest.fixture
def inputs(tmp_path):
    d = tmp_path
    # two predictions and two references in one (segment, class) cell, so
    # score needs an assignment, not a first minimum
    write_label_csv([Event(0, 1, 10.0, 5.0), Event(1, 1, -40.0, 20.0)], d / "ref.csv")
    write_label_csv([Event(2, 1, 12.0, 5.0), Event(3, 1, -45.0, 20.0)], d / "pred.csv")
    tensor = accdoa.encode([Event(0, 1, 10.0, 5.0), Event(3, 2, -40.0, 20.0)], 20)
    write_feature_file(tensor, d / "t.slsa")
    rng = np.random.default_rng(0)
    write_feature_file(rng.standard_normal((7, 30, 160)).astype(np.float32),
                       d / "f.slsa")
    helpers.write_wav(d / "clip.wav", helpers.make_noise_clip(seed=1).samples)
    (d / "manifest.csv").write_text(
        f"audio_path,label_path,split\n{d / 'clip.wav'},{d / 'ref.csv'},train\n",
        encoding="utf-8")
    return d


def test_import_loads_no_scipy_subpackage_and_light_commands_keep_it_so(inputs):
    d = inputs
    steps = run_fresh([
        ["decode", d / "t.slsa", "--out", d / "dec.csv"],
        ["encode", d / "ref.csv", "--frames", "20", "--out", d / "enc.slsa"],
        ["augment", "--features", d / "f.slsa", "--labels", d / "t.slsa",
         "--out-features", d / "af.slsa", "--out-labels", d / "al.slsa",
         "--mm-prob", "0"],
        ["stats", d / "f.slsa", "--out", d / "stats.slsa"],
        ["ensemble", d / "t.slsa", d / "enc.slsa", "--out", d / "e.slsa",
         "--csv", d / "e.csv"],
        ["gradcheck", "--seeds", "1"],
    ])
    assert [step[0] for step in steps] == ["import", "decode", "encode", "augment",
                                          "stats", "ensemble", "gradcheck"]
    assert all(rc == 0 for _, rc, _ in steps), steps
    assert all(loaded == set() for _, _, loaded in steps), steps


def test_score_adds_scipy_optimize_only(inputs):
    (_, _, before), (_, rc, after) = run_fresh(
        [["score", inputs / "pred.csv", inputs / "ref.csv"]])
    assert rc == 0
    assert before == set()
    assert after == {"scipy.optimize"}


def test_extract_loads_no_scipy_subpackage(inputs):
    # the WAV reader walks the chunk list itself, so no scipy.io
    (_, _, before), (_, rc, after) = run_fresh(
        [["extract", inputs / "manifest.csv", inputs / "feat"]])
    assert rc == 0
    assert (inputs / "feat" / "clip.slsa").exists()
    assert before == after == set()


def top_level_names():
    """The names `import seldkit` gives, other than submodules and dunders."""
    return {name for name, value in vars(seldkit).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def library_api_names():
    """The names README's Library API section lists, one `- `name`:` line each."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`: \S", section, flags=re.M)


def test_every_top_level_name_is_in_the_library_api_list():
    assert top_level_names() - set(library_api_names()) == set()


def test_every_listed_name_exists_once():
    listed = library_api_names()
    assert len(listed) == len(set(listed))
    assert set(listed) - top_level_names() == set()
