"""Output checks for the three commands and the two quality metrics.

Each check reads what a command wrote and raises ``CheckError`` naming the
first violated rule. The checks rely only on documented output contracts,
so they hold for any correct implementation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def selection_path(out: Path, level: float) -> Path:
    return out / f"selection_delta_{level:g}.json"


def check_selections(out: Path, levels, n_features: int) -> np.ndarray:
    """Check the selection files and return their shared delta vector.

    Every file selects exactly the top-``n_selected`` entries of its own
    delta (each selected delta is above every unselected one), and a higher
    level selects a subset of a lower level's selection.
    """
    delta, previous = None, None
    for level in sorted(levels):
        path = selection_path(out, level)
        _require(path.exists(), f"missing {path.name}")
        doc = json.loads(path.read_text(encoding="utf-8"))
        d = np.asarray(doc["delta"], dtype=np.float64)
        sel = np.asarray(doc["selected"], dtype=np.int64)
        _require(d.shape == (n_features,), f"{path.name}: delta has {d.size} entries")
        _require(np.isfinite(d).all(), f"{path.name}: non-finite delta")
        _require(doc["n_selected"] == sel.size, f"{path.name}: n_selected != len(selected)")
        _require(np.all(np.diff(sel) > 0) and (sel.size == 0 or 0 <= sel[0] and sel[-1] < d.size),
                 f"{path.name}: selected indices not ascending within range")
        mask = np.zeros(d.size, dtype=bool)
        mask[sel] = True
        if 0 < sel.size < d.size:
            _require(d[mask].min() > d[~mask].max(),
                     f"{path.name}: selected set is not the top {sel.size} of delta")
        _require(delta is None or np.array_equal(d, delta), f"{path.name}: delta differs by level")
        _require(previous is None or set(sel) <= previous,
                 f"{path.name}: selection not nested in the lower level's")
        delta, previous = d, set(sel.tolist())
    return delta


def planted_recall(delta: np.ndarray, planted) -> float:
    """Share of planted columns among the top-|planted| entries of delta."""
    top = np.argsort(-delta, kind="stable")[: len(planted)]
    return len(set(top.tolist()) & set(planted)) / len(planted)


def check_report(out: Path, n_levels: int, n_classifiers: int, trials: int) -> float:
    """Check report_rows.csv and return the mean AUROC of its scored selection rows."""
    with (out / "report_rows.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = (n_levels + 1) * n_classifiers * trials
    _require(len(rows) == expected, f"report_rows.csv: {len(rows)} rows, expected {expected}")
    scored = []
    for row in rows:
        roc = float(row["auroc"])
        if int(row["n_features"]) == 0:
            _require(math.isnan(roc), "report_rows.csv: empty selection with an AUROC")
            continue
        _require(0.0 <= roc <= 1.0, f"report_rows.csv: AUROC {roc} outside [0, 1]")
        if row["delta_quantile"] != "baseline":
            scored.append(roc)
    _require(scored, "report_rows.csv: no scored selection rows")
    return float(np.mean(scored))


def check_q(path: Path, n_rows: int, n_features: int) -> None:
    """q_matrix.csv: 2|O|B rows, balanced 0/1 labels, finite non-negative errors."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    _require(len(header) == n_features + 1 and header[-1] == "label",
             "q_matrix.csv: bad header")
    q = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(q.shape == (n_rows, n_features + 1),
             f"q_matrix.csv: shape {q.shape}, expected {(n_rows, n_features + 1)}")
    labels = q[:, -1]
    _require(np.isin(labels, (0.0, 1.0)).all() and labels.sum() * 2 == n_rows,
             "q_matrix.csv: labels not balanced 0/1")
    errors = q[:, :-1]
    _require(np.isfinite(errors).all() and (errors >= 0).all(),
             "q_matrix.csv: negative or non-finite error")
