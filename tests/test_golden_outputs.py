"""Every CLI output is byte-identical to the recorded digests, at every parallelism.

A tiny planted workload runs ``select``, ``export-q`` and ``benchmark`` at
``--parallelism`` 1, 2 and 4, and ``evaluate`` on each ``select`` run's
outputs; all four run again as if on one CPU and on four. The SHA-256
of every output file is compared against one shared table in
``tests/golden/digests.json``, so the test pins both the bytes a change
leaves alone and their invariance to ``parallelism`` and the CPU count. Manifests are
hashed with their path fields and ``parallelism`` blanked.

The bits depend on numpy and its BLAS, so the table is keyed by the numpy
version, the BLAS name and version, and a digest of a few seeded kernel
results. On every machine the test checks that the three parallelism levels
give the same digests; on one whose key has no entry it then skips the table
comparison and names the key. A change meant to alter outputs regenerates
this machine's entry with

    PYTHONPATH=src python tests/test_golden_outputs.py

and lists every changed file in its change notes.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from refsel import make_planted_dataset, save_csv
from refsel.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
PARALLELISM = (1, 2, 4)
MANIFEST_PATH_FIELDS = ("dataset_path", "images_path", "labels_path", "output_dir")

CONFIG = """
[data]
format = csv
path = {data_path}
label = label
scaling = unit_interval

[split]
fsds_fraction = 0.75
seed = 7

[ensemble]
components = 5
master_seed = 11
parallelism = 1
encoder = 12-6-3
encoder_activations = tanh
decoder = 3-6-12
decoder_activations = tanh-sigmoid
l1_penalty = 1e-5

[training]
epochs = 3
batch_size = 16

[selection]
deltas = 0.5,0.75,0.9

[eval]
train_fraction = 0.7
seed = 3
classifiers = gaussian_nb,logistic_regression,knn
trials = 2

[output]
directory = {out_dir}
"""


def machine_key() -> str:
    """numpy version, BLAS name and version, and a digest of seeded kernel results."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = "unknown blas"
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 40, 24))
    b = rng.standard_normal((4, 24, 32))
    kernels = hashlib.sha256()
    for result in (np.matmul(a, b), np.exp(a), np.tanh(a)):
        kernels.update(result.tobytes())
    return f"numpy {np.__version__}; {blas}; kernels {kernels.hexdigest()[:16]}"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        for key in MANIFEST_PATH_FIELDS + ("parallelism",):
            doc["config"][key] = ""
        if "cds_path" in doc:
            doc["cds_path"] = ""
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def _snapshot(directory: Path) -> dict:
    return {p.name: _digest(p) for p in sorted(directory.iterdir())}


def run_workload(root: Path, parallelism: int) -> dict:
    """Digests of every output file of every command, keyed 'command/file'."""
    data_path = root / "data.csv"
    if not data_path.exists():
        data, _ = make_planted_dataset(240, 32, 12, n_planted=3, shift=2.0, seed=5)
        save_csv(data, data_path)
    digests = {}
    for command in ("select", "export-q", "benchmark"):
        out = root / f"p{parallelism}" / command
        cfg = root / f"p{parallelism}_{command}.ini"
        cfg.write_text(CONFIG.format(data_path=data_path, out_dir=out), encoding="utf-8")
        args = ["--config", str(cfg), "--parallelism", str(parallelism)]
        assert main([command, *args]) == 0, command
        before = _snapshot(out)
        digests.update({f"{command}/{name}": d for name, d in before.items()})
        if command == "select":
            assert main(["evaluate", "--config", str(cfg)]) == 0, "evaluate"
            after = _snapshot(out)
            digests.update({f"evaluate/{name}": d for name, d in after.items()
                            if before.get(name) != d})
    return digests


def changed(expected: dict, got: dict) -> list:
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


def test_outputs_match_golden_digests(tmp_path):
    first, *others = PARALLELISM
    runs = {p: run_workload(tmp_path, p) for p in PARALLELISM}
    for parallelism in others:
        assert changed(runs[first], runs[parallelism]) == [], \
            f"--parallelism {parallelism} differs from {first}"
    key = machine_key()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(key)
    if expected is None:
        pytest.skip(f"outputs agree at --parallelism {PARALLELISM}, "
                    f"but there are no golden digests for machine key {key!r}")
    assert changed(expected, runs[first]) == [], "changed outputs"


@pytest.mark.parametrize("cpus", [1, 4])
def test_outputs_are_the_same_on_any_number_of_cpus(tmp_path, monkeypatch, cpus):
    # Training (five stacks) and evaluation (chunks of trials) run in rounds
    # of one item per CPU; export-q also formats each block in a child.
    expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(machine_key())
    if expected is None:
        expected = run_workload(tmp_path / "unpatched", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert changed(expected, run_workload(tmp_path, 1)) == []


def regenerate() -> None:
    """Record this machine's digests; every parallelism level must agree first."""
    key = machine_key()
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_workload(Path(tmp), p) for p in PARALLELISM]
    if any(run != runs[0] for run in runs[1:]):
        sys.exit("outputs differ between parallelism levels; nothing recorded")
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table[key] = runs[0]
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(runs[0])} digests for {key!r} in {DIGESTS}")


if __name__ == "__main__":
    regenerate()
