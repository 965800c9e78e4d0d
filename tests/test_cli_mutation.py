"""Byte mutations of the CLI's inputs end in an exit code, never a traceback.

A valid config, dataset and selection file are built once; each example
replaces, inserts or deletes a few bytes of one of them and runs a command:
``evaluate`` on the held-out dataset and selection file, or ``select`` /
``export-q`` on the dataset the config names. Every failure must surface as
exit code 1, 2 or 3. One epoch of two 6-wide components keeps any mutated
count of epochs or components small enough to train in well under a second.
"""

import contextlib
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from refsel import make_planted_dataset, save_csv, save_selection, select_features
from refsel.cli import main

CONFIG = """[data]
format = csv
path = data.csv
label = label

[ensemble]
components = 2
encoder = 6-3
encoder_activations = tanh
decoder = 3-6
decoder_activations = sigmoid

[training]
epochs = 1

[selection]
deltas = 0.5

[eval]
train_fraction = 0.7
seed = 3
trials = 1

[output]
directory = out
"""

SELECTION = "selection_delta_0.5.json"


def valid_inputs():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, _ = make_planted_dataset(30, 8, 6, n_planted=2, shift=2.0, seed=4)
        save_csv(data, tmp / "data.csv")
        delta = np.array([0.3, -0.1, 0.8, 0.0, 0.5, 0.2])
        save_selection(select_features(delta, 0.5), tmp / SELECTION)
        return {
            "run.ini": CONFIG.encode("utf-8"),
            "data.csv": (tmp / "data.csv").read_bytes(),
            SELECTION: (tmp / SELECTION).read_bytes(),
        }


VALID = valid_inputs()

edits = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def mutate(raw: bytes, changes) -> bytes:
    buf = bytearray(raw)
    for kind, position, value in changes:
        at = position % (len(buf) + 1)
        if kind == "insert":
            buf.insert(at, value)
        elif at < len(buf):
            if kind == "replace":
                buf[at] = value
            else:
                del buf[at]
    return bytes(buf)


@contextlib.contextmanager
def working_directory(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run(command, target=None, changes=()):
    """Write the inputs, ``target`` mutated by ``changes``; return the command's exit code.

    The config's relative paths resolve in a fresh directory: the dataset
    is data.csv there, and evaluate reads it as out/cds.csv.
    """
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp):
        Path("out").mkdir()
        for name, raw in VALID.items():
            raw = mutate(raw, changes) if name == target else raw
            if name == "data.csv":
                Path("out", "cds.csv").write_bytes(raw)
            (Path("out", name) if name == SELECTION else Path(name)).write_bytes(raw)
        return main([command, "--config", "run.ini"])


def test_unmutated_inputs_exit_0():
    for command in ("select", "export-q", "evaluate"):
        assert run(command) == 0, command


@given(target=st.sampled_from(sorted(VALID)), changes=edits)
@settings(max_examples=60, deadline=None)
def test_mutated_evaluate_inputs_exit_with_a_code(target, changes):
    assert run("evaluate", target, changes) in (0, 1, 2, 3)


@given(command=st.sampled_from(["select", "export-q"]),
       target=st.sampled_from(["run.ini", "data.csv"]), changes=edits)
@settings(max_examples=60, deadline=None)
def test_mutated_training_inputs_exit_with_a_code(command, target, changes):
    assert run(command, target, changes) in (0, 1, 2, 3)
