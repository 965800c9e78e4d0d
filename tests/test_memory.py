"""Peak-memory gates for CSV ingest and scoring.

numpy reports its buffers to ``tracemalloc``, so the traced peak of a call
counts every array it allocates and is the same on every run.
"""

import tracemalloc

import numpy as np

from refsel import DsaeConfig, DsaeModel, LabeledDataset, load_csv, reconstruction_errors, save_csv
from refsel.nn import layers_from_widths


def traced_peak(fn):
    """(fn(), peak bytes traced while it ran above what was traced before)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
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


def test_scoring_peak_is_within_four_batches():
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
    assert peak <= 4 * batch.nbytes
