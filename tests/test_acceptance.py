"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 6 needs the
public epileptic-seizure CSV on disk (see its docstring); it is skipped,
with an explanation, when the file is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from refsel import (
    DsaeConfig,
    EnsembleConfig,
    EvalProtocol,
    LabeledDataset,
    TrainingConfig,
    apply_scaling,
    auroc,
    backward,
    build_component_split,
    build_fsds_cds,
    chi2_rank,
    evaluate_selection,
    fit_scaling,
    forward,
    make_planted_dataset,
    run_ensemble,
    save_csv,
    select_at_thresholds,
    sensitivity,
)
from refsel import nn
from refsel.cli import main
from refsel.data import DatasetSplitSpec
from refsel.ensemble import component_seeds
from refsel.nn import DsaeModel, layers_from_widths

DELTA_GRID = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)


def report(criterion, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance {criterion}] {name}: {status}  {detail}".rstrip())
    assert condition, f"criterion {criterion} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness on random small architectures

def random_small_architecture(rng):
    """Architecture with <= 120 parameters, random activations everywhere."""
    acts = ["tanh", "relu", "sigmoid", "linear"]
    while True:
        j = int(rng.integers(2, 7))
        code = int(rng.integers(1, min(j, 4) + 1))
        enc_mid = [int(rng.integers(code, j + 1))] if rng.random() < 0.5 else []
        dec_mid = [int(rng.integers(code, j + 1))] if rng.random() < 0.5 else []
        enc_widths = [j] + enc_mid + [code]
        dec_widths = [code] + dec_mid + [j]
        n_params = sum(
            a * b + b for a, b in zip(enc_widths[:-1], enc_widths[1:])
        ) + sum(a * b + b for a, b in zip(dec_widths[:-1], dec_widths[1:]))
        if n_params > 120:
            continue
        enc_acts = [acts[int(rng.integers(4))] for _ in range(len(enc_widths) - 1)]
        dec_acts = [acts[int(rng.integers(4))] for _ in range(len(dec_widths) - 1)]
        return enc_widths, enc_acts, dec_widths, dec_acts


def kink_free_draw(rng, config):
    """Model + batch staying clear of relu/|code| kinks, so central
    differences with step 1e-5 see a smooth function.

    Relu pre-activations must sit away from 0 (dead units then stay exactly
    dead across the FD step); the |code| margin applies only to activations
    whose output can cross 0 - a dead relu code unit contributes a locally
    constant 0 to the penalty, which is smooth.
    """
    margin = 1e-3
    code_act = config.encoder_layers[-1].activation
    for _ in range(200):
        model = DsaeModel.from_config(
            DsaeConfig(
                config.encoder_layers, config.decoder_layers,
                l1_penalty=config.l1_penalty, seed=int(rng.integers(2**31)),
            )
        )
        batch = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), config.n_features))
        _, code, cache = forward(model, batch)
        ok = True if code_act == "relu" else bool(np.all(np.abs(code) > margin))
        for k, spec in enumerate(model.config.layers):
            if spec.activation == "relu":
                z = cache[k] @ model.weights[k].T + model.biases[k]
                ok = ok and np.all(np.abs(z) > margin)
        if ok:
            return model, batch
    raise AssertionError("could not draw a kink-free model/batch")


def test_criterion_1_gradient_correctness():
    from test_nn import assert_grads_close, finite_difference_grads

    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    activations_seen = set()
    for case in range(50):
        enc_w, enc_a, dec_w, dec_a = random_small_architecture(rng)
        lam = [0.0, 1e-5, 1e-2][case % 3]
        config = DsaeConfig(
            layers_from_widths(enc_w, enc_a),
            layers_from_widths(dec_w, dec_a),
            l1_penalty=lam,
        )
        activations_seen.update(enc_a + dec_a)
        model, batch = kink_free_draw(rng, config)
        _, _, cache = forward(model, batch)
        analytic = backward(model, batch, cache)
        numeric = finite_difference_grads(model, batch, h=1e-5)
        assert_grads_close(analytic, numeric, rtol=1e-5, atol=1e-8)
    elapsed = time.perf_counter() - start
    report(
        1, "gradient correctness", elapsed < 60.0 and activations_seen == {"tanh", "relu", "sigmoid", "linear"},
        f"50 architectures, all activations, lambda grid, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Pipeline determinism through the CLI

PLANT = dict(n_majority=2000, n_minority=100, n_features=100, n_planted=10, shift=2.0)


def write_plant_config(tmp_path, components=6, epochs=4, deltas="0.9",
                       parallelism=1, master_seed=17):
    data, planted = make_planted_dataset(seed=4242, **PLANT)
    data_path = tmp_path / "plant.csv"
    save_csv(data, data_path)
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"""
[data]
path = {data_path}
label = label
scaling = unit_interval

[ensemble]
components = {components}
master_seed = {master_seed}
parallelism = {parallelism}
encoder = 100-32-16
encoder_activations = tanh
decoder = 16-32-100
decoder_activations = tanh-sigmoid
l1_penalty = 1e-5

[training]
epochs = {epochs}
batch_size = 100

[selection]
deltas = {deltas}

[output]
directory = {out_dir}
""",
        encoding="utf-8",
    )
    return cfg_path, out_dir, planted


def test_criterion_2_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    cfg_path, out_dir, _ = write_plant_config(tmp_path)

    def snapshot():
        files = {p.name: p.read_bytes() for p in out_dir.glob("selection_delta_*.json")}
        files["q_matrix.csv"] = (out_dir / "q_matrix.csv").read_bytes()
        return files

    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    first = snapshot()
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    second = snapshot()
    assert main(["select", "--config", str(cfg_path), "--parallelism", "8"]) == 0
    assert main(["export-q", "--config", str(cfg_path), "--parallelism", "8"]) == 0
    third = snapshot()
    elapsed = time.perf_counter() - start
    report(
        2, "pipeline determinism",
        first == second == third and elapsed < 300.0,
        f"rerun and parallelism 1 vs 8 byte-identical, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Sampling and shape invariants under fuzzing

def test_criterion_3_sampling_and_shape_invariants():
    rng = np.random.default_rng(20240003)
    n_features = 5
    dsae = DsaeConfig(
        layers_from_widths([n_features, 3], "tanh"),
        layers_from_widths([3, n_features], "sigmoid"),
    )
    checked_chains = 0
    for case in range(200):
        n_min = int(rng.integers(1, 13))
        n_maj = n_min + int(rng.integers(1, 61))
        b = int(rng.integers(1, 9))
        n = n_maj + n_min
        x = rng.uniform(0, 1, size=(n, n_features))
        x[:, 0] = np.arange(n)  # identifying column
        y = np.r_[np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
        data = LabeledDataset(X=x, y=y)

        master = int(rng.integers(2**63))
        cfg = EnsembleConfig(
            n_components=b, dsae=dsae,
            training=TrainingConfig(epochs=0, batch_size=16), master_seed=master,
        )
        q = run_ensemble(data, cfg)
        assert q.Q.shape == (2 * n_min * b, n_features)
        assert int(np.sum(q.labels == 1)) == n_min * b
        assert int(np.sum(q.labels == 0)) == n_min * b

        sample_seed, _ = component_seeds(master, int(rng.integers(b)))
        train_rows, test_rows = build_component_split(data, sample_seed)
        train_ids = set(data.X[train_rows][:, 0].astype(int))
        test_maj_ids = set(data.X[test_rows][n_min:, 0].astype(int))
        assert train_ids.isdisjoint(test_maj_ids)
        assert len(train_ids) + n_min == n_maj

        if case % 10 == 0:
            selections = select_at_thresholds([q], DELTA_GRID)
            sets = [set(r.selected.tolist()) for r in selections]
            for tighter, looser in zip(sets[1:], sets[:-1]):
                assert tighter <= looser
            checked_chains += 1
    report(
        3, "sampling and shape invariants", checked_chains == 20,
        f"200 fuzzed (|O|,|M|,B) triples, {checked_chains} nested-chain checks",
    )


# ---------------------------------------------------------------------------
# 4. Planted-feature recovery

def plant_architecture():
    return DsaeConfig(
        layers_from_widths([100, 32, 16], "tanh"),
        layers_from_widths([16, 32, 100], ["tanh", "sigmoid"]),
        l1_penalty=1e-5,
    )


def run_plant_selection(master_seed):
    data, planted = make_planted_dataset(seed=1000 + master_seed, **PLANT)
    params = fit_scaling(data.X, "unit_interval")
    scaled = LabeledDataset(apply_scaling(params, data.X), data.y)
    cfg = EnsembleConfig(
        n_components=15,
        dsae=plant_architecture(),
        training=TrainingConfig(epochs=8, batch_size=100),
        master_seed=master_seed,
        parallelism=4,
    )
    q = run_ensemble(scaled, cfg)
    # With 100 features and distinct deltas, the 0.9 quantile keeps the top 10.
    selection = select_at_thresholds([q], [0.9])[0]
    return selection, set(planted.tolist())


def test_criterion_4_planted_feature_recovery():
    start = time.perf_counter()
    recovered = []
    for master_seed in range(5):
        selection, truth = run_plant_selection(master_seed)
        assert selection.n_selected == 10
        recovered.append(len(set(selection.selected.tolist()) & truth))
    elapsed = time.perf_counter() - start
    mean_recovery = float(np.mean(recovered))
    report(
        4, "planted-feature recovery",
        mean_recovery >= 9.0 and elapsed < 600.0,
        f"recovered {recovered} of 10 over 5 seeds (mean {mean_recovery:.1f}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Baseline dominance at matched subset size

def test_criterion_5_matched_size_chi2_comparison():
    master_seed = 0
    selection, truth = run_plant_selection(master_seed)
    data, _ = make_planted_dataset(seed=1000 + master_seed, **PLANT)
    params = fit_scaling(data.X, "unit_interval")
    fsds = LabeledDataset(apply_scaling(params, data.X), data.y)
    cds_raw, _ = make_planted_dataset(600, 30, 100, n_planted=10, shift=2.0,
                                      seed=1000 + master_seed)
    cds = LabeledDataset(apply_scaling(params, cds_raw.X), cds_raw.y)

    chi_cols = chi2_rank(fsds, selection.n_selected)
    protocol = EvalProtocol(train_fraction=0.7, split_seed=77,
                            classifiers=("gaussian_nb",), trials=3)
    ours = evaluate_selection(cds, [(0.9, selection.selected)], protocol)
    chi = evaluate_selection(cds, [(0.9, chi_cols)], protocol)
    auroc_ours = [s for s in ours.summaries if s.delta_quantile == 0.9][0].auroc_mean
    auroc_chi = [s for s in chi.summaries if s.delta_quantile == 0.9][0].auroc_mean
    report(
        5, "matched-size chi-squared comparison",
        abs(auroc_ours - auroc_chi) <= 0.02 and auroc_ours > 0.95 and auroc_chi > 0.95,
        f"|F|=10 NB AUROC ours={auroc_ours:.4f} chi2={auroc_chi:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. Published-number reproduction on the epileptic-seizure dataset

SEIZURE_PATH = Path(os.environ.get("REFSEL_SEIZURE_CSV", "data/epileptic_seizure.csv"))


def load_seizure_csv(path):
    """Accept the raw UCI export (id column, y in 1..5) or a binary version."""
    import csv as csv_module

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_module.reader(fh)
        header = next(reader)
        rows = list(reader)
    label_idx = len(header) - 1 if header[-1].lower() in ("y", "label", "class") else None
    assert label_idx is not None, "expected the label in the last column"
    skip_first = header[0].lower() in ("", "unnamed", "unnamed: 0", "id")
    first_feature = 1 if skip_first else 0
    x = np.array(
        [[float(v) for v in row[first_feature:label_idx]] for row in rows], dtype=np.float64
    )
    raw_y = [row[label_idx] for row in rows]
    y = np.array([1 if int(float(v)) == 1 else 0 for v in raw_y], dtype=np.int64)
    return LabeledDataset(X=x, y=y)


def test_criterion_6_seizure_baseline_auroc():
    if not SEIZURE_PATH.exists():
        msg = (
            f"[acceptance 6] seizure baseline: SKIPPED - dataset not found at "
            f"{SEIZURE_PATH} (offline build environment). Download the public "
            "epileptic-seizure recognition CSV (178 EEG features, label y with "
            "1 = seizure) and set REFSEL_SEIZURE_CSV or place it at the default path."
        )
        print(msg)
        pytest.skip(msg)

    data = load_seizure_csv(SEIZURE_PATH)
    assert data.n_features == 178

    rng = np.random.default_rng(6440)
    # Subsample the minority to 500 rows, keep all majority rows, then split
    # 70/30 to match the published composition (6440/350 and 2760/150).
    spec = DatasetSplitSpec(fsds_fraction=0.7, split_seed=int(rng.integers(2**31)),
                            minority_subsample=min(500, data.n_minority))
    fsds, cds = build_fsds_cds(data, spec)
    params = fit_scaling(fsds.X, "unit_interval")
    cds = LabeledDataset(apply_scaling(params, cds.X), cds.y)

    protocol = EvalProtocol(train_fraction=0.7, split_seed=29,
                            classifiers=("gaussian_nb",), trials=5)
    rep = evaluate_selection(cds, [], protocol)
    baseline = [s for s in rep.summaries if s.delta_quantile is None][0]
    detail = (
        f"FSDS {fsds.n_majority}/{fsds.n_minority}, CDS {cds.n_majority}/{cds.n_minority}, "
        f"NB all-178 AUROC {baseline.auroc_mean:.3f} (std {baseline.auroc_std:.3f}) "
        f"vs published 0.932 +- 0.05"
    )
    inside = abs(baseline.auroc_mean - 0.932) <= 0.05
    if not inside:
        detail += " - outside tolerance; see the frozen classifier hyperparameters note"
    report(6, "seizure baseline", inside, detail)


def test_seizure_protocol_wiring(tmp_path):
    """Not criterion 6: checks the loader and subsample/split plumbing on a
    synthetic file shaped like the raw export (id column, labels 1..5), so
    the criterion's code path stays exercised in offline builds."""
    rng = np.random.default_rng(99)
    lines = ["id," + ",".join(f"X{i+1}" for i in range(178)) + ",y"]
    labels = [1] * 40 + [2] * 60 + [3] * 50 + [4] * 40 + [5] * 30
    rng.shuffle(labels)
    for i, lab in enumerate(labels):
        values = rng.integers(-500, 500, size=178)
        lines.append(f"X{i}.V1.{i}," + ",".join(map(str, values)) + f",{lab}")
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    data = load_seizure_csv(path)
    assert data.n_features == 178
    assert data.n_minority == 40 and data.n_majority == 180

    spec = DatasetSplitSpec(fsds_fraction=0.7, split_seed=1, minority_subsample=20)
    fsds, cds = build_fsds_cds(data, spec)
    assert fsds.n_minority == 14 and cds.n_minority == 6
    assert fsds.n_majority == 126 and cds.n_majority == 54


# ---------------------------------------------------------------------------
# 7. Metric oracles

def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(20240007)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            continue
        if rng.random() < 0.5:
            scores = rng.normal(size=n)                     # tie-free a.s.
        else:
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # ties

        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expected_auroc = wins / (len(pos) * len(neg))
        assert auroc(scores, labels) == expected_auroc

        cutoff = float(rng.uniform(0, 1))
        tp = int(np.sum((labels == 1) & (scores >= cutoff)))
        fn = int(np.sum((labels == 1) & (scores < cutoff)))
        assert sensitivity(scores, labels, cutoff=cutoff) == tp / (tp + fn)
        checked += 1
    report(7, "metric oracles", checked >= 990,
           f"{checked} random vectors, exact match incl. tie convention")


# ---------------------------------------------------------------------------
# 8. Complexity scaling in the component count

def test_criterion_8_linear_scaling_in_components(tmp_path, monkeypatch):
    data, _ = make_planted_dataset(400, 40, 40, n_planted=5, shift=2.0, seed=88)
    data_path = tmp_path / "scale.csv"
    save_csv(data, data_path)

    def config_for(b):
        out = tmp_path / f"out{b}"
        cfg = tmp_path / f"c{b}.ini"
        cfg.write_text(
            f"""
[data]
path = {data_path}
label = label
[ensemble]
components = {b}
master_seed = 5
parallelism = 1
encoder = 40-16-8
encoder_activations = tanh
decoder = 8-16-40
decoder_activations = tanh-sigmoid
[training]
epochs = 90
batch_size = 64
[selection]
deltas = 0.9
[output]
directory = {out}
""",
            encoding="utf-8",
        )
        return cfg

    adam_step, steps = nn.adam_step, [0]

    def counted_adam_step(*args):
        steps[0] += 1
        return adam_step(*args)

    monkeypatch.setattr(nn, "adam_step", counted_adam_step)
    # One CPU: every stack trains in this process, where its CPU time and its
    # Adam steps are counted.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def timed_select(b):
        # CPU time of this process: load from other processes on the machine
        # does not land in one b's timing the way it does in wall time.
        cfg = config_for(b)
        steps[0] = 0
        start = time.process_time()
        assert main(["select", "--config", str(cfg)]) == 0
        return time.process_time() - start, steps[0]

    timed_select(5)  # warm-up: BLAS and import costs land here
    # Rounds over every b, so a drift in machine speed reaches all three alike.
    # On a shared machine one run's CPU time can read 60% above the fastest of
    # its b, so each b takes the fastest of seven. The 90 epochs make the
    # fastest b = 5 run use about 0.5 s of CPU: at 20, its 0.13-0.19 s moved
    # with machine load by more than the bound's margin.
    rounds = [{b: timed_select(b) for b in (5, 10, 20)} for _ in range(7)]
    times = {b: min(r[b][0] for r in rounds) for b in (5, 10, 20)}
    adam_steps = {b: rounds[0][b][1] for b in (5, 10, 20)}
    r_10_5 = times[10] / times[5]
    r_20_10 = times[20] / times[10]
    ok = (r_10_5 <= 2.0 * 1.25 and r_20_10 <= 2.0 * 1.25
          and adam_steps[10] == 2 * adam_steps[5] and adam_steps[20] == 2 * adam_steps[10])
    report(
        8, "linear scaling in component count", ok,
        f"t5={times[5]:.2f}s t10={times[10]:.2f}s t20={times[20]:.2f}s "
        f"ratios {r_10_5:.2f}, {r_20_10:.2f} (bound 2.50); Adam steps "
        f"{adam_steps[5]}, {adam_steps[10]}, {adam_steps[20]} (exactly doubling)",
    )
