"""Byte mutations of `evaluate`'s inputs end in an exit code, never a traceback.

A valid config, held-out dataset and selection file are built once; each
example replaces, inserts or deletes a few bytes of one of them and runs
``refsel evaluate``. Every failure must surface as exit code 1, 2 or 3.
"""

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
        save_csv(data, tmp / "cds.csv")
        delta = np.array([0.3, -0.1, 0.8, 0.0, 0.5, 0.2])
        save_selection(select_features(delta, 0.5), tmp / SELECTION)
        return {
            "run.ini": CONFIG.encode("utf-8"),
            "cds.csv": (tmp / "cds.csv").read_bytes(),
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


def run_evaluate(target=None, changes=()):
    """Write the inputs, ``target`` mutated by ``changes``; return evaluate's exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        for name, raw in VALID.items():
            path = Path(tmp) / "run.ini" if name == "run.ini" else out / name
            path.write_bytes(mutate(raw, changes) if name == target else raw)
        return main(["evaluate", "--config", str(Path(tmp) / "run.ini"), "--output", str(out)])


def test_unmutated_inputs_exit_0():
    assert run_evaluate() == 0


@given(target=st.sampled_from(sorted(VALID)), changes=edits)
@settings(max_examples=60, deadline=None)
def test_mutated_evaluate_inputs_exit_with_a_code(target, changes):
    assert run_evaluate(target, changes) in (0, 1, 2, 3)
