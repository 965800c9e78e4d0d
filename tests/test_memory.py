"""Peak-memory gates for CSV and IDX ingest, CSV output, scaling and scoring.

numpy reports its buffers to ``tracemalloc``, so the traced peak of a call
counts every array it allocates and is the same on every run.
"""

import gc
import struct
import tracemalloc

import numpy as np
import pytest

from refsel import (
    DsaeConfig, DsaeModel, LabeledDataset, REMatrix, apply_scaling, class_mean_re, export_q_csv,
    fit_scaling, load_csv, load_idx_images, reconstruction_errors, save_csv,
)
from refsel.nn import layers_from_widths


def traced_peak(fn):
    """(fn(), peak bytes traced while it ran above what was traced before)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        # Garbage left by earlier code, freed by a collection while fn runs,
        # would lower fn's peak by a varying amount.
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def test_load_csv_peak_is_within_twice_the_matrix(tmp_path):
    rng = np.random.default_rng(3)
    y = (np.arange(4000) % 4 == 0).astype(np.int64)
    save_csv(LabeledDataset(X=rng.uniform(size=(4000, 200)), y=y), tmp_path / "d.csv")
    data, peak = traced_peak(lambda: load_csv(tmp_path / "d.csv", label="label"))
    assert data.X.shape == (4000, 200)
    assert peak <= 2 * data.X.nbytes


def test_save_csv_peak_is_well_below_its_text(tmp_path):
    rng = np.random.default_rng(3)
    y = (np.arange(4000) % 4 == 0).astype(np.int64)
    data = LabeledDataset(X=rng.uniform(size=(4000, 200)), y=y)
    _, peak = traced_peak(lambda: save_csv(data, tmp_path / "d.csv"))
    # Rows are written a line at a time; building the whole text would hold
    # all of its 15 MB at once.
    assert peak < (tmp_path / "d.csv").stat().st_size / 4


def test_load_idx_converts_only_the_kept_rows(tmp_path):
    images = np.random.default_rng(3).integers(0, 256, size=(4000, 28, 28), dtype=np.uint8)
    labels = (np.arange(4000) % 10).astype(np.uint8)
    (tmp_path / "images.idx").write_bytes(
        struct.pack(">IIII", 0x00000803, *images.shape) + images.tobytes())
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 0x00000801, 4000) + labels.tobytes())
    data, peak = traced_peak(lambda: load_idx_images(
        tmp_path / "images.idx", tmp_path / "labels.idx", (1, 7), counts=(300, 30)))
    kept = np.concatenate([images[labels == 1][:300], images[labels == 7][:30]])
    assert np.array_equal(data.X, kept.reshape(330, 784))
    assert data.y.tolist() == [0] * 300 + [1] * 30
    # All images as float64 would be 25 MB; the file itself is 3 MB.
    assert peak < images.size * 8


def test_scoring_peak_is_within_one_batch():
    # q_heavy's architecture, scored on one stack of two components.
    config = DsaeConfig(
        encoder_layers=layers_from_widths([200, 64, 16], "tanh"),
        decoder_layers=layers_from_widths([16, 64, 200], ["tanh", "sigmoid"]),
        seed=(1, 2),
    )
    model = DsaeModel.from_config(config)
    batch = np.random.default_rng(4).uniform(size=(2, 1500, 200))
    out = np.empty_like(batch)
    errors, peak = traced_peak(lambda: reconstruction_errors(model, batch, out=out))
    assert errors is out
    # Hidden activations and one row slice's scratch; the errors go into out.
    assert peak <= batch.nbytes


def test_scaling_peak_is_one_matrix():
    rng = np.random.default_rng(5)
    params = fit_scaling(rng.uniform(size=(100, 200)), "symmetric_unit")
    matrix = rng.normal(size=(3000, 200))
    scaled, peak = traced_peak(lambda: apply_scaling(params, matrix))
    assert scaled.shape == matrix.shape
    assert peak <= 1.1 * matrix.nbytes


RUN_CONFIG = """
[data]
path = {data}
label = label
[ensemble]
components = 4
parallelism = 2
encoder = 20-8
encoder_activations = tanh
decoder = 8-20
decoder_activations = sigmoid
[training]
epochs = 1
batch_size = 64
[selection]
deltas = 0.5,0.9
[output]
directory = {out}
"""


@pytest.mark.parametrize("command", ["select", "export-q"])
def test_streamed_peak_does_not_grow_with_components(tmp_path, command):
    from refsel import make_planted_dataset
    from refsel.cli import main

    data, _ = make_planted_dataset(200, 40, 20, n_planted=4, shift=2.0, seed=5)
    save_csv(data, tmp_path / "d.csv")
    config = tmp_path / "run.ini"
    config.write_text(RUN_CONFIG.format(data=tmp_path / "d.csv", out=tmp_path / "out"),
                      encoding="utf-8")
    peaks = {}
    for components in (4, 16):
        argv = [command, "--config", str(config), "--components", str(components)]
        code, peaks[components] = traced_peak(lambda: main(argv))
        assert code == 0
    # One stack: two components of 2|O| = 80 rows, errors and labels.
    block = 2 * 80 * (20 + 1) * 8
    assert peaks[16] - peaks[4] < block


def fresh_block(_, rows=1000, n_features=20):
    """A block of Q made as it is drawn, as a streamed run trains it."""
    return REMatrix(Q=np.ones((rows, n_features)), labels=np.repeat([1, 0], rows // 2))


@pytest.mark.parametrize("consume", [
    lambda n_blocks, path: class_mean_re(map(fresh_block, range(n_blocks))),
    lambda n_blocks, path: export_q_csv(fresh_block, path, None, range(n_blocks)),
], ids=["class_mean_re", "export_q_csv"])
def test_consumers_let_each_block_go_before_drawing_the_next(tmp_path, consume):
    peaks = {n: traced_peak(lambda: consume(n, tmp_path / "q.csv"))[1] for n in (1, 4)}
    # A block still held while the next is drawn would add a whole block (160 kB).
    assert peaks[4] - peaks[1] < 1000 * 20 * 8 // 4
