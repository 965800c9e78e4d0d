"""Workload definitions and the set-up step that turns a seed into inputs.

Every workload is a planted-feature dataset (``refsel.make_planted_dataset``)
written to CSV plus an INI config; the program under test receives only
those two files. Settings shared by all workloads follow
``configs/planted_demo.ini``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from refsel import make_planted_dataset, save_csv

LEVELS = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)
CLASSIFIERS = ("gaussian_nb", "logistic_regression", "knn")
TRIALS = 5
FSDS_FRACTION = 0.75
# Equal to the core count of the 2-core machine the benchmark was tuned on,
# so the program never runs more training threads than there are cores.
PARALLELISM = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_majority: int
    n_minority: int
    n_features: int
    n_planted: int
    shift: float
    encoder: tuple
    encoder_activations: str
    decoder: tuple
    decoder_activations: str
    components: int
    epochs: int
    batch_size: int = 100

    @property
    def fsds_minority(self) -> int:
        """|O|: minority rows on the selection side of the FSDS/CDS split."""
        n = int(round(FSDS_FRACTION * self.n_minority))
        return min(max(n, 1), self.n_minority - 1)

    @property
    def q_rows(self) -> int:
        """Rows of the stacked error matrix: 2|O| per component."""
        return 2 * self.fsds_minority * self.components


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted_small",
            why="README demo: ~1,800 tiny Adam steps, so per-call dispatch in nn dominates "
                "and I/O is about a tenth of select",
            n_majority=2000, n_minority=100, n_features=100, n_planted=10, shift=2.0,
            encoder=(100, 32, 16), encoder_activations="tanh",
            decoder=(16, 32, 100), decoder_activations="tanh-sigmoid",
            components=15, epochs=8,
        ),
        Workload(
            name="wide_deep",
            why="paper-scale 784-wide sigmoid mirror (1.9M parameters): matmul, Adam "
                "bandwidth and a 33 MB CSV parse dominate; only two components",
            n_majority=2000, n_minority=160, n_features=784, n_planted=40, shift=2.0,
            encoder=(784, 700, 500, 250, 200), encoder_activations="sigmoid",
            decoder=(200, 250, 500, 700, 784), decoder_activations="sigmoid",
            components=2, epochs=2,
        ),
        Workload(
            name="q_heavy",
            why="18000x200 error matrix: export-q writing and holding Q dominate time and "
                "RSS; largest CDS for kNN; training is a small share",
            n_majority=3000, n_minority=1000, n_features=200, n_planted=20, shift=1.5,
            encoder=(200, 64, 16), encoder_activations="tanh",
            decoder=(16, 64, 200), decoder_activations="tanh-sigmoid",
            components=12, epochs=1,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shape at a size that runs in seconds (smoke test)."""
    return dataclasses.replace(
        w, n_majority=120, n_minority=30, n_features=20, n_planted=3,
        encoder=(20, 8, 4), decoder=(4, 8, 20), components=2, epochs=1, batch_size=50,
    )


def _widths(widths) -> str:
    return "-".join(str(v) for v in widths)


def config_text(w: Workload, seed: int, data_path: Path, output_dir: Path) -> str:
    """INI config for one workload; every program seed is derived from ``seed``."""
    split_seed, master_seed, eval_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    return f"""[data]
format = csv
path = {data_path}
label = label
scaling = unit_interval

[split]
fsds_fraction = {FSDS_FRACTION}
seed = {split_seed}

[ensemble]
components = {w.components}
master_seed = {master_seed}
parallelism = {PARALLELISM}
encoder = {_widths(w.encoder)}
encoder_activations = {w.encoder_activations}
decoder = {_widths(w.decoder)}
decoder_activations = {w.decoder_activations}
l1_penalty = 1e-5

[training]
epochs = {w.epochs}
batch_size = {w.batch_size}

[selection]
deltas = {",".join(repr(v) for v in LEVELS)}

[eval]
train_fraction = 0.7
seed = {eval_seed}
classifiers = {",".join(CLASSIFIERS)}
trials = {TRIALS}

[output]
directory = {output_dir}
"""


def set_up(w: Workload, seed: int, workdir: Path):
    """Generate the dataset and config for ``seed`` and write them under ``workdir``.

    Returns (config path, planted column indices). The same seed always
    writes byte-identical files.
    """
    data, planted = make_planted_dataset(
        w.n_majority, w.n_minority, w.n_features,
        n_planted=w.n_planted, shift=w.shift, seed=seed,
    )
    data_path = workdir / "data.csv"
    save_csv(data, data_path)
    config_path = workdir / "run.ini"
    config_path.write_text(config_text(w, seed, data_path, workdir / "out"), encoding="utf-8")
    return config_path, [int(i) for i in planted]
