"""Run config parsing and the four CLI commands on a small synthetic run."""

import json
import time
import warnings

import pytest

from refsel import make_planted_dataset, save_csv
from refsel.cli import _selection_filename, main
from refsel.config import DEFAULT_DELTAS, load_run_config
from refsel.exceptions import UsageError

CONFIG_TEMPLATE = """
[data]
format = csv
path = {data_path}
label = label
scaling = unit_interval

[split]
fsds_fraction = 0.75
seed = 7

[ensemble]
components = 3
master_seed = 11
parallelism = 1
encoder = 12-6-3
encoder_activations = tanh
decoder = 3-6-12
decoder_activations = tanh-sigmoid
l1_penalty = 1e-5

[training]
epochs = 4
batch_size = 16

[selection]
deltas = 0.75,0.9

[eval]
train_fraction = 0.7
seed = 3
classifiers = gaussian_nb,knn
trials = 2

[output]
directory = {out_dir}
"""


@pytest.fixture
def run_dir(tmp_path):
    data, _ = make_planted_dataset(160, 16, 12, n_planted=3, shift=2.0, seed=1)
    data_path = tmp_path / "data.csv"
    save_csv(data, data_path)
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        CONFIG_TEMPLATE.format(data_path=data_path, out_dir=out_dir), encoding="utf-8"
    )
    return cfg_path, out_dir


# ---------------------------------------------------------------------------
# Config parsing

def test_config_parses_and_builds(run_dir):
    cfg_path, out_dir = run_dir
    cfg = load_run_config(cfg_path)
    assert cfg.n_components == 3
    assert cfg.delta_quantiles == (0.75, 0.9)
    assert cfg.training.epochs == 4
    assert cfg.split.fsds_fraction == 0.75
    assert cfg.eval_classifiers == ("gaussian_nb", "knn")
    ens = cfg.ensemble_config()
    assert ens.dsae.n_features == 12
    assert ens.dsae.encoder_layers[-1].output_width == 3
    assert str(out_dir) == cfg.output_dir


def test_config_defaults_fill_missing_sections(tmp_path):
    cfg_path = tmp_path / "min.ini"
    cfg_path.write_text(
        "[data]\npath=d.csv\nlabel=y\n"
        "[ensemble]\nencoder=4-2\nencoder_activations=tanh\n"
        "decoder=2-4\ndecoder_activations=linear\n"
        "[output]\ndirectory=out\n",
        encoding="utf-8",
    )
    cfg = load_run_config(cfg_path)
    assert cfg.n_components == 25
    assert cfg.training.learning_rate == 0.001
    assert cfg.training.beta1 == 0.9 and cfg.training.beta2 == 0.999
    assert cfg.training.epochs == 100 and cfg.training.batch_size == 100
    assert cfg.l1_penalty == 1e-5
    assert cfg.delta_quantiles == DEFAULT_DELTAS
    assert cfg.split is None


def test_config_missing_key_is_usage_error(tmp_path):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(
        "[data]\npath=d.csv\nlabel=y\n[ensemble]\nencoder=4-2\n[output]\ndirectory=o\n",
        encoding="utf-8",
    )
    with pytest.raises(UsageError, match="encoder_activations"):
        load_run_config(cfg_path)


def test_config_missing_file_and_section(tmp_path):
    with pytest.raises(UsageError, match="not found"):
        load_run_config(tmp_path / "absent.ini")
    p = tmp_path / "nosection.ini"
    p.write_text("[data]\npath=d.csv\nlabel=y\n", encoding="utf-8")
    with pytest.raises(UsageError, match="ensemble"):
        load_run_config(p)


def test_config_rejects_bad_delta(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(
        "[data]\npath=d.csv\nlabel=y\n"
        "[ensemble]\nencoder=4-2\nencoder_activations=tanh\n"
        "decoder=2-4\ndecoder_activations=linear\n"
        "[selection]\ndeltas=0.5,1.5\n"
        "[output]\ndirectory=o\n",
        encoding="utf-8",
    )
    with pytest.raises(UsageError, match="outside"):
        load_run_config(p)


# ---------------------------------------------------------------------------
# CLI commands

def read_bytes_map(directory, pattern):
    return {p.name: p.read_bytes() for p in sorted(directory.glob(pattern))}


def test_select_writes_expected_files(run_dir, capsys):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "selection_summary.csv").exists()
    assert (out_dir / "cds.csv").exists()
    files = sorted(p.name for p in out_dir.glob("selection_delta_*.json"))
    assert files == ["selection_delta_0.75.json", "selection_delta_0.9.json"]

    doc = json.loads((out_dir / "selection_delta_0.9.json").read_text())
    assert doc["delta_quantile"] == 0.9
    assert len(doc["delta"]) == 12
    assert doc["n_selected"] == len(doc["selected"])

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "select"
    assert manifest["config"]["n_components"] == 3
    assert len(manifest["component_seeds"]) == 3


def test_select_reruns_byte_identical(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    first = read_bytes_map(out_dir, "*")
    assert main(["select", "--config", str(cfg_path)]) == 0
    second = read_bytes_map(out_dir, "*")
    assert first == second
    # Parallelism is a scheduling knob, not part of the math.
    assert main(["select", "--config", str(cfg_path), "--parallelism", "8"]) == 0
    third = read_bytes_map(out_dir, "selection_*")
    assert {k: first[k] for k in third} == third


def test_cli_overrides_change_manifest(run_dir):
    cfg_path, out_dir = run_dir
    assert main([
        "select", "--config", str(cfg_path),
        "--components", "2", "--seed", "99", "--delta", "0.9",
    ]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["n_components"] == 2
    assert manifest["config"]["master_seed"] == 99
    assert manifest["config"]["delta_quantiles"] == [0.9]
    assert len(list(out_dir.glob("selection_delta_*.json"))) == 1


def test_evaluate_consumes_select_outputs(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    rows = (out_dir / "report_rows.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["classifier", "delta_quantile", "trial", "n_features"]
    # baseline + two deltas, two classifiers, two trials
    assert len(rows) - 1 == 3 * 2 * 2
    assert any(row.split(",")[1] == "baseline" for row in rows[1:])
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["summaries"]) == 3 * 2


def test_evaluate_with_empty_selection_warns_but_succeeds(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    empty = {
        "delta_quantile": 0.99,
        "threshold": 999.0,
        "n_selected": 0,
        "selected": [],
        "delta": [0.0] * 12,
    }
    (out_dir / "selection_delta_0.99.json").write_text(json.dumps(empty), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    rows = (out_dir / "report_rows.csv").read_text()
    assert "empty selection; skipped" in rows
    assert ",nan,nan,empty selection; skipped" in rows  # the CSV tables keep nan

    def reject(token):
        raise AssertionError(f"report.json holds the non-JSON token {token}")

    report = json.loads((out_dir / "report.json").read_text(), parse_constant=reject)
    skipped = [s for s in report["summaries"] if s["delta_quantile"] == 0.99]
    assert skipped and all(s["auroc_mean"] is None and s["sensitivity_std"] is None
                           for s in skipped)
    assert all(r["auroc"] is None for r in report["rows"] if r["delta_quantile"] == 0.99)


def test_evaluate_manifest_has_no_component_seeds(run_dir):
    # evaluate trains nothing, so its cost must not grow with the component count.
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("components = 3", f"components = {10**7}"), encoding="utf-8")
    start = time.perf_counter()
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert time.perf_counter() - start < 10.0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["n_components"] == 10**7
    assert "component_seeds" not in manifest


def test_benchmark_matches_subset_sizes(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["benchmark", "--config", str(cfg_path)]) == 0
    lines = (out_dir / "benchmark_rows.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_method = header.index("method")
    i_dq = header.index("delta_quantile")
    i_nf = header.index("n_features")
    sizes = {}
    for line in lines[1:]:
        parts = line.split(",")
        sizes.setdefault(parts[i_dq], {})[parts[i_method]] = parts[i_nf]
    for dq, by_method in sizes.items():
        assert by_method["refsel"] == by_method["chi2"], dq
    assert (out_dir / "benchmark_summary.csv").exists()


def test_benchmark_ranks_chi2_on_symmetric_unit_scaling(run_dir):
    # A [-1, 1] selection dataset holds negative values, which chi-squared
    # rejects; benchmark ranks on it mapped into [0, 1] instead.
    cfg_path, out_dir = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    text = text.replace("scaling = unit_interval", "scaling = symmetric_unit")
    cfg_path.write_text(text.replace("tanh-sigmoid", "tanh"), encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path)]) == 0
    lines = (out_dir / "benchmark_rows.csv").read_text().splitlines()
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods.count("chi2") == methods.count("refsel") == 3 * 2 * 2


def test_levels_equal_to_six_digits_write_separate_files(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path),
                 "--delta", "0.1234561", "--delta", "0.1234562"]) == 0
    names = sorted(p.name for p in out_dir.glob("selection_delta_*.json"))
    assert names == ["selection_delta_0.1234561.json", "selection_delta_0.1234562.json"]
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert {s["delta_quantile"] for s in report["summaries"]} == {None, 0.1234561, 0.1234562}
    # Levels that :g prints exactly keep their short names.
    assert [_selection_filename(dq) for dq in (0.65, 0.99, 1e-05)] == [
        "selection_delta_0.65.json", "selection_delta_0.99.json", "selection_delta_1e-05.json"]


def test_export_q_shape_and_determinism(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    lines = (out_dir / "q_matrix.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "label"
    assert len(lines[0].split(",")) == 13
    # FSDS has 12 minority rows (16 * 0.75): K = 2 * 12 * 3 components.
    assert len(lines) - 1 == 72
    first = (out_dir / "q_matrix.csv").read_bytes()
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    assert (out_dir / "q_matrix.csv").read_bytes() == first


# ---------------------------------------------------------------------------
# Exit codes

def test_unknown_flag_exits_1(run_dir, capsys):
    cfg_path, _ = run_dir
    assert main(["select", "--config", str(cfg_path), "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["select", "--config", str(tmp_path / "none.ini")]) == 1


def test_missing_dataset_exits_2(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        f"[data]\npath={tmp_path}/absent.csv\nlabel=y\n"
        "[ensemble]\nencoder=4-2\nencoder_activations=tanh\n"
        "decoder=2-4\ndecoder_activations=linear\n"
        f"[output]\ndirectory={tmp_path}/out\n",
        encoding="utf-8",
    )
    assert main(["select", "--config", str(cfg)]) == 2


def test_evaluate_selection_beyond_dataset_exits_2(run_dir, capsys):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    path = out_dir / "selection_delta_0.9.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["selected"] = doc["selected"] + [12]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "feature index 12" in err
    assert "Traceback" not in err


MALFORMED_SELECTIONS = {
    "not_json": lambda doc: b"{not json",
    "not_utf8": lambda doc: b"\xff\xfe{",
    "not_an_object": lambda doc: b"[1,2]",
    "selected_is_a_string": lambda doc: json.dumps({**doc, "selected": "ab"}).encode(),
    "ragged_delta": lambda doc: json.dumps({**doc, "delta": [[0.1, 0.2], [0.3]]}).encode(),
    "quantile_is_a_string": lambda doc: json.dumps({**doc, "delta_quantile": "x"}).encode(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SELECTIONS))
def test_evaluate_malformed_selection_exits_2(run_dir, capsys, case):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    path = out_dir / "selection_delta_0.9.json"
    path.write_bytes(MALFORMED_SELECTIONS[case](json.loads(path.read_text(encoding="utf-8"))))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "selection_delta_0.9.json" in err


def test_architecture_mismatch_exits_1(run_dir, tmp_path):
    cfg_path, _ = run_dir
    text = cfg_path.read_text().replace("encoder = 12-6-3", "encoder = 9-6-3")
    text = text.replace("decoder = 3-6-12", "decoder = 3-6-9")
    bad = tmp_path / "bad.ini"
    bad.write_text(text, encoding="utf-8")
    assert main(["select", "--config", str(bad)]) == 1


def test_numeric_failure_exits_3(run_dir, monkeypatch, capsys):
    # Input scaling keeps real runs inside the finite domain, so exercise the
    # exit-code contract by letting the ensemble raise the numeric error.
    import refsel.cli as cli_module
    from refsel.exceptions import ComponentError, NumericError

    def explode(*args, **kwargs):
        raise ComponentError(2, NumericError("non-finite activations in layer 1"))

    monkeypatch.setattr(cli_module, "run_ensemble", explode)
    cfg_path, _ = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 3
    assert "component 2" in capsys.readouterr().err


def test_config_not_utf8_exits_1(run_dir, capsys):
    cfg_path, _ = run_dir
    cfg_path.write_bytes(cfg_path.read_bytes().replace(b"seed = 7", b"seed = 7\xff"))
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "cannot parse config" in err
    assert "Traceback" not in err


def test_dataset_not_utf8_exits_2(run_dir, tmp_path, capsys):
    cfg_path, _ = run_dir
    data_path = tmp_path / "data.csv"
    lines = data_path.read_bytes().split(b"\n")
    lines[5] += b"\xff"
    data_path.write_bytes(b"\n".join(lines))
    assert main(["select", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "line 6: not UTF-8" in err
    assert "Traceback" not in err


def test_impossible_component_count_exits_1(run_dir, capsys):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("components = 3", "components = 99999999999999999999999"),
                        encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "components = 99999999999999999999999" in err
    assert "Traceback" not in err


def test_unallocatable_error_matrix_exits_1(run_dir, capsys):
    # 10**15 components pass the config check (Q is at least 2 rows each) but
    # the 24 * 10**15 x 12 matrix (2 EiB) cannot be allocated.
    cfg_path, _ = run_dir
    assert main(["select", "--config", str(cfg_path), "--components", str(10**15)]) == 1
    err = capsys.readouterr().err
    assert "cannot allocate the 24000000000000000 x 12 error matrix" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    ("trials = 2", "trials = 0"),
    ("train_fraction = 0.7", "train_fraction = 1.5"),
    ("classifiers = gaussian_nb,knn", "classifiers = knn,knn"),
    ("batch_size = 16", "batch_size = 16\nlearning_rate = nan"),
    ("batch_size = 16", "batch_size = 16\nepsilon = nan"),
    ("l1_penalty = 1e-5", "l1_penalty = inf"),
    ("classifiers = gaussian_nb,knn", "classifiers = ,"),
], ids=["trials", "train_fraction", "classifiers", "learning_rate", "epsilon", "l1_penalty",
        "no_classifiers"])
def test_bad_config_exits_1_before_training(run_dir, monkeypatch, capsys, old, new):
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the ensemble was trained before the config was rejected")

    monkeypatch.setattr(cli_module, "run_ensemble", never)
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    assert old in text
    cfg_path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_bad_interpolation_exits_1_naming_the_key(run_dir, capsys):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("label = label", "label = label%"), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config key [data] label: '%' must be followed by '%' or '('" in err
    assert "Traceback" not in err
    cfg_path.write_text(text.replace("label = label", "label = label%%"), encoding="utf-8")
    assert load_run_config(cfg_path).label == "label%"


@pytest.mark.parametrize("old, key", [
    ("directory = ", "[output] directory"), ("path = ", "[data] path"),
], ids=["directory", "path"])
def test_nul_byte_in_a_value_exits_1_naming_the_key(run_dir, capsys, old, key):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace(old, old + "\0"), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key}: cannot parse '\\x00" in err
    assert "Traceback" not in err


def diverging_config(tmp_path, learning_rate, epochs):
    """A linear 6-3-6 model whose Adam steps blow up the weights."""
    data, _ = make_planted_dataset(30, 8, 6, n_planted=2, shift=2.0, seed=4)
    save_csv(data, tmp_path / "data.csv")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[data]\npath = {tmp_path / 'data.csv'}\nlabel = label\n"
        "[ensemble]\ncomponents = 2\nencoder = 6-3\nencoder_activations = linear\n"
        "decoder = 3-6\ndecoder_activations = linear\n"
        f"[training]\nepochs = {epochs}\nlearning_rate = {learning_rate}\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    return cfg_path


@pytest.mark.parametrize("command", ["select", "export-q"])
@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("learning_rate", ["1e300", "1e308"])
def test_non_finite_reconstruction_errors_exit_3(tmp_path, capsys, command, parallelism,
                                                 learning_rate):
    # One epoch: the last Adam step leaves non-finite weights that no
    # training forward pass sees, so only the error matrix shows them.
    cfg_path = diverging_config(tmp_path, learning_rate, epochs=1)
    assert main([command, "--config", str(cfg_path), "--parallelism", parallelism]) == 3
    err = capsys.readouterr().err
    assert "component 0: non-finite reconstruction errors" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "q_matrix.csv").exists()


@pytest.mark.parametrize("epochs", [1, 3])
def test_diverging_run_raises_no_runtime_warning(tmp_path, epochs):
    cfg_path = diverging_config(tmp_path, "1e100", epochs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["select", "--config", str(cfg_path)]) == 3
