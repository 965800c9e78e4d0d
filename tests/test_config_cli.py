"""Run config parsing and the four CLI commands on a small synthetic run."""

import argparse
import csv
import dataclasses
import errno
import json
import os
import re
import signal
import stat
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import refsel
import refsel.data
import refsel.ensemble
from refsel import load_csv, make_planted_dataset, save_csv
from refsel.cli import _resolved_config, _selection_filename, build_parser, main
from refsel.config import DEFAULT_DELTAS, RunConfig, load_run_config
from refsel.ensemble import component_seeds
from refsel.exceptions import UsageError

SRC = str(Path(refsel.__file__).parents[1])

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


@pytest.mark.parametrize("section", ["evaluation", "Training"])
def test_unknown_section_exits_1_before_training(run_dir, monkeypatch, capsys, section):
    # Section names are case-sensitive, so [Training] is not [training].
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the ensemble was trained on a config with an unknown section")

    monkeypatch.setattr(cli_module, "run_ensemble", never)
    cfg_path, _ = run_dir
    with cfg_path.open("a", encoding="utf-8") as fh:
        fh.write(f"\n[{section}]\ntrials = 4\n")
    assert main(["select", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"usage error: unknown config section [{section}]\n"


def test_benchmark_without_split_exits_1_naming_it(run_dir, capsys):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    assert "[split]\nfsds_fraction = 0.75\nseed = 7\n" in text
    cfg_path.write_text(text.replace("[split]\nfsds_fraction = 0.75\nseed = 7\n", ""),
                        encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "usage error: benchmark needs a [split] section to carve out the held-out dataset\n")


def test_unknown_key_logs_one_warning_naming_it(run_dir, caplog):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    text = text.replace("components = 3", "components = 3\ncomponets = 9")
    text = text.replace("epochs = 4", "epochs = 4\nepoch = 5")
    cfg_path.write_text("[DEFAULT]\nroot = runs\n" + text, encoding="utf-8")
    with caplog.at_level("WARNING", logger="refsel.config"):
        cfg = load_run_config(cfg_path)
    assert [r.getMessage() for r in caplog.records] == [
        "ignoring unknown config key [ensemble] componets",
        "ignoring unknown config key [training] epoch",
    ]
    assert (cfg.n_components, cfg.training.epochs) == (3, 4)


def test_every_override_flag_stores_into_a_run_config_field(run_dir):
    cfg_path, _ = run_dir
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    given = {"--output": "elsewhere", "--components": "4", "--seed": "5", "--parallelism": "2",
             "--delta": "0.5"}
    for command, sub in subparsers.choices.items():
        argv = [command, "--config", str(cfg_path)]
        for action in sub._actions:
            flag = action.option_strings[-1]
            if flag in ("--config", "--help"):
                continue
            assert action.dest in fields, (command, flag, action.dest)
            argv += [flag, given[flag]]
        cfg = _resolved_config(parser.parse_args(argv))
        for action in sub._actions:
            if action.dest in fields:
                value = (action.type or str)(given[action.option_strings[-1]])
                assert getattr(cfg, action.dest) in (value, (value,)), (command, action.dest)


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


def test_select_loss_lines_name_each_stacks_components(run_dir, monkeypatch, caplog):
    # On four CPUs the second and third stacks train in children, whose lines
    # are logged here in stack order.
    cfg_path, _ = run_dir
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        caplog.clear()
        with caplog.at_level("INFO", logger="refsel.ensemble"):
            assert main(["select", "--config", str(cfg_path),
                         "--components", "5", "--parallelism", "2"]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "refsel.ensemble"]
        assert [line.rsplit(" (", 1)[-1] for line in lines] == [
            "components 0-1)", "components 2-3)", "components 4-4)"]


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


def rename_features(run_dir, names, label_name="label"):
    """Rewrite the run's dataset, quoted by the csv module, with these leading feature names."""
    cfg_path, _ = run_dir
    data, _ = make_planted_dataset(160, 16, 12, n_planted=3, shift=2.0, seed=1)
    names = [*names, *(f"f{i}" for i in range(len(names), 12))]
    with (cfg_path.parent / "data.csv").open("w", newline="", encoding="utf-8") as fh:
        # Quoting every name keeps a CR in one quoted on Python versions before 3.13.
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow([*names, label_name])
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([*map(repr, row), label] for row, label in zip(data.X.tolist(), data.y))
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("label = label", f"label = {label_name}"), encoding="utf-8")
    return names


def test_evaluate_reads_a_cds_whose_feature_names_need_quoting(run_dir):
    # Unquoted, "a,b" split the header into one field more than each row held.
    cfg_path, out_dir = run_dir
    names = rename_features(run_dir, ["a,b", 'say "hi"'])
    assert main(["select", "--config", str(cfg_path)]) == 0
    with (out_dir / "cds.csv").open(newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == [*names, "label"]
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert len(json.loads((out_dir / "report.json").read_text())["summaries"]) == 3 * 2


def test_feature_names_holding_cr_or_lf_are_quoted_in_every_output(run_dir):
    # Before Python 3.13, a csv writer ending lines in "\n" left a CR bare, so
    # evaluate read the header of cds.csv as ending at it.
    cfg_path, out_dir = run_dir
    names = rename_features(run_dir, ["a\rb", "c\nd", "\r"])
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    for filename in ("cds.csv", "q_matrix.csv"):
        with (out_dir / filename).open(newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == [*names, "label"]
    assert main(["evaluate", "--config", str(cfg_path)]) == 0


def test_a_feature_named_label_exits_2_before_training(run_dir, monkeypatch, capsys):
    # cds.csv and q_matrix.csv add a column named label; evaluate would read the
    # feature's values as the labels.
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the ensemble was trained before the name was rejected")

    monkeypatch.setattr(cli_module, "run_ensemble", never)
    cfg_path, out_dir = run_dir
    rename_features(run_dir, ["f0", "label"], label_name="target")
    for command, filename in (("select", "cds.csv"), ("export-q", "q_matrix.csv")):
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"a feature column is named 'label', like the label column of {filename}" in err
        assert "Traceback" not in err
    assert not out_dir.exists()
    assert main(["evaluate", "--config", str(cfg_path)]) == 1
    assert "no selection_delta_*.json files" in capsys.readouterr().err


def test_select_removes_an_earlier_runs_selection_files(run_dir):
    # evaluate scores every selection file in the directory, so a second
    # select must leave only its own levels beside its own cds.csv.
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["select", "--config", str(cfg_path), "--seed", "5", "--delta", "0.5"]) == 0
    names = [p.name for p in out_dir.glob("selection_delta_*.json")]
    assert names == ["selection_delta_0.5.json"]
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert {s["delta_quantile"] for s in report["summaries"]} == {None, 0.5}


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


def test_evaluate_selection_of_other_width_exits_2(run_dir, capsys):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    path = out_dir / "selection_delta_0.9.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["delta"] = doc["delta"] + [0.0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "selection at quantile 0.9 scores 13 features; the held-out dataset has 12" in err
    assert "Traceback" not in err


MALFORMED_SELECTIONS = {
    "not_json": lambda doc: b"{not json",
    "not_utf8": lambda doc: b"\xff\xfe{",
    "not_an_object": lambda doc: b"[1,2]",
    "selected_is_a_string": lambda doc: json.dumps({**doc, "selected": "ab"}).encode(),
    "ragged_delta": lambda doc: json.dumps({**doc, "delta": [[0.1, 0.2], [0.3]]}).encode(),
    "quantile_is_a_string": lambda doc: json.dumps({**doc, "delta_quantile": "x"}).encode(),
    "selected_repeats_an_index": lambda doc: json.dumps({**doc, "selected": [2, 2, 0]}).encode(),
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
    # 10**11 components pass the config check (Q is at least 2 rows each: 17 TiB)
    # but the 24 * 10**11 x 12 matrix (210 TiB) cannot be allocated.
    cfg_path, _ = run_dir
    assert main(["select", "--config", str(cfg_path), "--components", str(10**11)]) == 1
    err = capsys.readouterr().err
    assert "cannot allocate the 2400000000000 x 12 error matrix" in err
    assert "Traceback" not in err


def test_error_matrix_over_the_limit_exits_1_before_reading_data(run_dir, monkeypatch, capsys):
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the dataset was read before the config was rejected")

    monkeypatch.setattr(cli_module, "load_csv", never)
    cfg_path, _ = run_dir
    # Two rows of 12 float64 per component: 192 * 10**12 bytes, over 2**47.
    assert main(["select", "--config", str(cfg_path), "--components", str(10**12)]) == 1
    assert capsys.readouterr().err == (
        "usage error: [ensemble] components: n_components = 1000000000000 gives an error "
        "matrix over 140737488355328 bytes\n")


def test_select_without_split_removes_an_earlier_cds(run_dir, capsys):
    # Else evaluate would score the new selections, trained on every row,
    # on the earlier run's held-out rows.
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert (out_dir / "cds.csv").exists()
    text = cfg_path.read_text(encoding="utf-8")
    split = "[split]\nfsds_fraction = 0.75\nseed = 7\n"
    assert split in text
    cfg_path.write_text(text.replace(split, ""), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert not (out_dir / "cds.csv").exists()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: dataset file not found: {out_dir / 'cds.csv'}\n"


def test_benchmark_with_too_few_held_out_rows_exits_2_before_training(run_dir, monkeypatch,
                                                                      capsys):
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the ensemble was trained before the held-out set was rejected")

    monkeypatch.setattr(cli_module, "run_ensemble", never)
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    # 15 of the 16 minority rows go to the selection set, one to the held-out set.
    cfg_path.write_text(text.replace("fsds_fraction = 0.75", "fsds_fraction = 0.95"),
                        encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: held-out dataset: class 1 has 1 rows; need at least 2 to split\n")


def test_select_with_too_few_held_out_rows_exits_2_before_training(run_dir, monkeypatch,
                                                                   capsys, tmp_path):
    # evaluate could not split the cds.csv such a run would write.
    import refsel.cli as cli_module

    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    earlier = read_bytes_map(out_dir, "*")

    def never(*args, **kwargs):
        raise AssertionError("the ensemble was trained before the held-out set was rejected")

    monkeypatch.setattr(cli_module, "run_ensemble", never)
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("fsds_fraction = 0.75", "fsds_fraction = 0.95"),
                        encoding="utf-8")
    for out in (out_dir, tmp_path / "fresh"):
        capsys.readouterr()
        assert main(["select", "--config", str(cfg_path), "--output", str(out),
                     "--delta", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: held-out dataset: class 1 has 1 rows; need at least 2 to split\n")
    assert read_bytes_map(out_dir, "*") == earlier
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("label, message", [
    ("nope", "label column 'nope' not in header "),
    ("99", "label column index 99 out of range"),
], ids=["name", "index"])
def test_missing_label_column_exits_2(run_dir, monkeypatch, capsys, cpus, label, message):
    # On 4 CPUs the body is cut into several ranges; the fault is left to one pass.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(refsel.data, "CSV_RANGE_BYTES", 64)
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("label = label", f"label = {label}"), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("old, new", [
    ("trials = 2", "trials = 0"),
    ("train_fraction = 0.7", "train_fraction = 1.5"),
    ("classifiers = gaussian_nb,knn", "classifiers = knn,knn"),
    ("batch_size = 16", "batch_size = 16\nlearning_rate = nan"),
    ("batch_size = 16", "batch_size = 16\nepsilon = nan"),
    ("l1_penalty = 1e-5", "l1_penalty = inf"),
    ("classifiers = gaussian_nb,knn", "classifiers = ,"),
    ("deltas = 0.75,0.9", "deltas = 0.9,0.9"),
    ("deltas = 0.75,0.9", "deltas = ,"),
    ("deltas = 0.75,0.9", "deltas = 0.75,0.9\nestimator = mode"),
    ("[split]", "[unused]"),
    ("format = csv", "format = idx\nlabels = l.idx\nmajority_class = 1\nminority_class = 7"),
], ids=["trials", "train_fraction", "classifiers", "learning_rate", "epsilon", "l1_penalty",
        "no_classifiers", "repeated_delta", "no_deltas", "estimator", "benchmark_without_split",
        "idx_without_images"])
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


def test_negative_split_seed_exits_1_before_reading_data(run_dir, monkeypatch, capsys):
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the dataset was read before the config was rejected")

    monkeypatch.setattr(cli_module, "load_csv", never)
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("seed = 7", "seed = -1"), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: [split] seed: split seed must be non-negative, got -1\n"


@pytest.mark.parametrize("old, new, flags", [
    ("components = 3", "components = 0", ["--components", "3"]),
    ("deltas = 0.75,0.9", "deltas = 0.9,0.9", ["--delta", "0.5"]),
], ids=["components", "deltas"])
def test_flag_replaces_a_bad_file_value(run_dir, old, new, flags):
    cfg_path, out_dir = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path), *flags]) == 0
    assert (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("old, new, key", [
    ("format = csv", "format = idx\nlabels = l.idx\nmajority_class = 1\nminority_class = 7",
     "[data] images"),
    ("fsds_fraction = 0.75", "fsds_fraction = 2", "[split] fsds_fraction"),
    ("seed = 7", "seed = 7\nminority_subsample = 1", "[split] minority_subsample"),
    ("components = 3", "components = 0", "[ensemble] components"),
    ("parallelism = 1", "parallelism = 0", "[ensemble] parallelism"),
    ("encoder_activations = tanh", "encoder_activations = cosh",
     "[ensemble] encoder, encoder_activations"),
    ("decoder = 3-6-12", "decoder = 4-6-12", "[ensemble] encoder, decoder"),
    ("l1_penalty = 1e-5", "l1_penalty = -1", "[ensemble] l1_penalty"),
    ("epochs = 4", "epochs = -1", "[training] epochs"),
    ("batch_size = 16", "batch_size = 16\nbeta2 = 1", "[training] beta2"),
    ("train_fraction = 0.7", "train_fraction = 1.5", "[eval] train_fraction"),
    ("trials = 2", "trials = 0", "[eval] trials"),
    ("classifiers = gaussian_nb,knn", "classifiers = knn,knn", "[eval] classifiers"),
    ("deltas = 0.75,0.9", "deltas = 0.9,0.9", "[selection] deltas"),
    ("format = csv", "format = parquet", "[data] format: unknown data format 'parquet'"),
    ("encoder = 12-6-3", "encoder = 100",
     "[ensemble] encoder, encoder_activations: need at least two widths"),
    ("encoder_activations = tanh", "encoder_activations = tanh-tanh-tanh",
     "[ensemble] encoder, encoder_activations: 2 layers but 3 activation names"),
], ids=["idx_without_images", "fsds_fraction", "minority_subsample", "components",
        "parallelism", "activation", "chain", "l1_penalty", "epochs", "beta2", "train_fraction",
        "trials", "classifiers", "repeated_delta", "format", "one_width", "activation_count"])
def test_bad_value_names_its_key(run_dir, capsys, old, new, key):
    cfg_path, _ = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    assert old in text
    cfg_path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {key}") and err.count("\n") == 1, err


def test_output_flag_overrides_the_config_directory(run_dir, tmp_path):
    cfg_path, out_dir = run_dir
    other = tmp_path / "other"
    assert main(["select", "--config", str(cfg_path), "--output", str(other)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--output", str(other)]) == 0
    assert not out_dir.exists()
    assert (other / "report.json").exists()
    manifest = json.loads((other / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["output_dir"] == str(other)


def test_output_naming_a_file_exits_2(run_dir, tmp_path, capsys):
    cfg_path, _ = run_dir
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    assert main(["select", "--config", str(cfg_path), "--output", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_negative_master_and_eval_seeds_still_run(run_dir):
    cfg_path, out_dir = run_dir
    text = cfg_path.read_text(encoding="utf-8")
    text = text.replace("master_seed = 11", "master_seed = -11").replace("seed = 3", "seed = -3")
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert main(["benchmark", "--config", str(cfg_path)]) == 0


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


# ---------------------------------------------------------------------------
# IDX input

IDX_CONFIG = """
[data]
format = idx
images = {images}
labels = {labels}
majority_class = 1
minority_class = 7
majority_count = 30
minority_count = 10

[split]
fsds_fraction = 0.75
seed = 7

[ensemble]
components = 2
encoder = 16-4
encoder_activations = tanh
decoder = 4-16
decoder_activations = sigmoid

[training]
epochs = 2
batch_size = 8

[selection]
deltas = 0.5,0.9

[eval]
classifiers = gaussian_nb,knn
trials = 2

[output]
directory = {out_dir}
"""


def write_idx(path, magic, array):
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        fh.write(array.astype(np.uint8).tobytes())


@pytest.fixture
def idx_run(tmp_path):
    """4x4 images of classes 1 (40), 7 (16) and 3 (6), capped at 30 and 10 rows."""
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.repeat([1, 7, 3], [40, 16, 6]))
    write_idx(tmp_path / "images.idx", 0x803, rng.integers(0, 256, size=(len(labels), 4, 4)))
    write_idx(tmp_path / "labels.idx", 0x801, labels)
    cfg_path = tmp_path / "idx.ini"
    cfg_path.write_text(IDX_CONFIG.format(
        images=tmp_path / "images.idx", labels=tmp_path / "labels.idx", out_dir=tmp_path / "run",
    ), encoding="utf-8")
    return cfg_path, tmp_path / "run"


def test_idx_run_end_to_end(idx_run, caplog):
    cfg_path, out_dir = idx_run
    with caplog.at_level("INFO", logger="refsel.cli"):
        assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert main(["export-q", "--config", str(cfg_path)]) == 0
    header = (out_dir / "q_matrix.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join([f"px{i}" for i in range(16)] + ["label"])
    # The selection and held-out datasets together hold exactly the capped rows.
    logged = " ".join(r.getMessage() for r in caplog.records)
    fsds_majority, fsds_minority = map(int, re.search(
        r"selection dataset: (\d+) majority / (\d+) minority rows, 16 features", logged).groups())
    cds = load_csv(out_dir / "cds.csv", "label", "1")
    assert (fsds_majority + cds.n_majority, fsds_minority + cds.n_minority) == (30, 10)


@pytest.mark.parametrize("old, new", [
    ("majority_count = 30", "majority_count = -5"),
    ("minority_count = 10", "minority_count = 0"),
    ("minority_class = 7", "minority_class = 1"),
    ("minority_class = 7", "minority_class = 256"),
    ("majority_class = 1", "majority_class = -1"),
], ids=["negative_count", "zero_count", "one_class_twice", "class_above_255", "negative_class"])
def test_bad_idx_settings_exit_1_before_reading_data(idx_run, monkeypatch, capsys, old, new):
    import refsel.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the dataset was read before the config was rejected")

    monkeypatch.setattr(cli_module, "load_idx_images", never)
    cfg_path, _ = idx_run
    text = cfg_path.read_text(encoding="utf-8")
    assert old in text
    cfg_path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


IDX_FILE_FAULTS = {  # file: (its bytes, or None for no file; the message after "error: ")
    "missing": ("images.idx", None, "dataset file not found: {path}"),
    "truncated_header": ("labels.idx", b"\x00\x00\x08", "{path}: truncated IDX header"),
    "truncated_dimensions": ("images.idx", struct.pack(">II", 0x803, 62),
                             "{path}: truncated IDX dimension header"),
    "short_payload": ("labels.idx", struct.pack(">II", 0x801, 62) + bytes(61),
                      "{path}: payload size does not match dimensions (62,)"),
    # 2**64 pixels, a product that wraps to 0 in int64, and no pixel at all.
    "dimensions_past_int64": ("images.idx", struct.pack(">IIII", 0x803, 2**22, 2**21, 2**21),
                              "{path}: payload size does not match dimensions "
                              "(4194304, 2097152, 2097152)"),
}


@pytest.mark.parametrize("case", IDX_FILE_FAULTS)
def test_bad_idx_file_exits_2_with_one_line(idx_run, capsys, case):
    name, content, message = IDX_FILE_FAULTS[case]
    cfg_path, _ = idx_run
    path = cfg_path.parent / name
    path.unlink()
    if content is not None:
        path.write_bytes(content)
    assert main(["select", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_idx_class_without_rows_exits_2(idx_run, capsys):
    cfg_path, _ = idx_run
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("minority_class = 7", "minority_class = 9"),
                        encoding="utf-8")
    assert main(["select", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: no rows with label 9\n"


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


def test_divergence_inside_adam_is_blamed_on_adam(tmp_path, capsys):
    # Adam's second moment overflows on finite gradients and makes the weights
    # non-finite; the next forward pass is the first to see them.
    cfg_path = diverging_config(tmp_path, "1e100", epochs=3)
    assert main(["select", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "error: component 0: non-finite parameters after Adam step" in err
    assert "activations" not in err


def test_late_failure_leaves_earlier_outputs_untouched(run_dir, monkeypatch, capsys):
    # The second stack fails after the first was streamed into the Q export.
    # The fault is keyed on component 1's model seed, so it hits that component
    # in whichever process trains it.
    cfg_path, out_dir = run_dir
    for command in ("select", "export-q"):
        assert main([command, "--config", str(cfg_path)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    score = refsel.ensemble.reconstruction_errors
    second = (component_seeds(11, 1)[1],)

    def second_component_nan(model, *args, **kwargs):
        errors = score(model, *args, **kwargs)
        if model.config.seeds == second:
            errors[...] = np.nan
        return errors

    monkeypatch.setattr(refsel.ensemble, "reconstruction_errors", second_component_nan)
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for command in ("export-q", "select"):
            assert main([command, "--config", str(cfg_path), "--parallelism", "1"]) == 3
            assert "component 1: non-finite reconstruction errors" in capsys.readouterr().err
            no_process_left()
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    assert not list(out_dir.glob(".q_matrix.csv.*.tmp"))


def no_space(matrix, labels):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


TEST_PROCESS, LABELLED_ROWS = os.getpid(), refsel.data._labelled_rows


def killed(matrix, labels):
    """SIGKILL in a worker process; in this one, which it would end, format the rows."""
    if os.getpid() != TEST_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)
    return LABELLED_ROWS(matrix, labels)


NO_SPACE = "error: [Errno 28] No space left on device"
KILLED = "error: a worker process exited with status -9"


@pytest.mark.parametrize("fault, message, cpus", [
    (no_space, NO_SPACE, 1), (no_space, NO_SPACE, 4), (killed, KILLED, 2), (killed, KILLED, 4),
], ids=["no_space-1", "no_space-4", "killed-2", "killed-4"])
def test_failed_formatting_child_leaves_no_file_or_process(
        run_dir, monkeypatch, capsys, cpus, fault, message):
    # Each block is formatted by the process that trained it: this one, or a
    # worker, which inherits the patched row formatter.
    cfg_path, out_dir = run_dir
    monkeypatch.setattr(refsel.data, "_labelled_rows", fault)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(["export-q", "--config", str(cfg_path), "--parallelism", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_export_q_forks_only_to_train(run_dir, monkeypatch):
    # Six stacks on four CPUs: three workers in the first round, one in the
    # second; each block is formatted where it was trained, not in a child of its own.
    cfg_path, _ = run_dir
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert main(["export-q", "--config", str(cfg_path), "--components", "6",
                 "--parallelism", "1"]) == 0
    assert len(forks) == 4
    no_process_left()


@pytest.mark.parametrize("fault, message", [(no_space, NO_SPACE), (killed, KILLED)],
                         ids=["no_space", "killed"])
def test_failed_cds_part_leaves_no_file_or_process(run_dir, monkeypatch, capsys, fault, message):
    # cds.csv's rows are cut into four blocks, formatted by this process and three workers.
    cfg_path, out_dir = run_dir
    monkeypatch.setattr(refsel.data, "_labelled_rows", fault)
    monkeypatch.setattr(refsel.data, "CSV_BLOCK_CELLS", 13)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert main(["select", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    left = [p.name for p in out_dir.iterdir()]
    assert "cds.csv" not in left and not [name for name in left if name.startswith(".")]
    no_process_left()


def no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_component_error_names_the_global_component(run_dir, monkeypatch, capsys):
    # Stack 2-3 trains in a child on four CPUs; component 3, second in it, fails.
    cfg_path, out_dir = run_dir
    score = refsel.ensemble.reconstruction_errors
    fourth = component_seeds(11, 3)[1]

    def fourth_component_nan(model, *args, **kwargs):
        errors = score(model, *args, **kwargs)
        if fourth in model.config.seeds:
            errors[model.config.seeds.index(fourth)] = np.nan
        return errors

    monkeypatch.setattr(refsel.ensemble, "reconstruction_errors", fourth_component_nan)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    for command in ("select", "export-q"):
        assert main([command, "--config", str(cfg_path),
                     "--components", "5", "--parallelism", "2"]) == 3
        assert capsys.readouterr().err == "error: component 3: non-finite reconstruction errors\n"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []
        no_process_left()


@pytest.mark.parametrize("command", ["select", "export-q"])
def test_killed_worker_leaves_no_file_or_process(run_dir, monkeypatch, capsys, command):
    cfg_path, out_dir = run_dir
    parent, run_ensemble = os.getpid(), refsel.cli.run_ensemble

    def killed_in_a_child(data, cfg, components):
        if os.getpid() != parent and components.start == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_ensemble(data, cfg, components=components)

    monkeypatch.setattr(refsel.cli, "run_ensemble", killed_in_a_child)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert main([command, "--config", str(cfg_path), "--parallelism", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: a worker process exited with status -9 before sending its result\n"
    assert not out_dir.exists() or list(out_dir.iterdir()) == []
    no_process_left()


@pytest.mark.parametrize("command", ["select", "export-q"])
def test_interrupted_training_leaves_no_file_or_process(run_dir, monkeypatch, command):
    # Six stacks on four CPUs: Ctrl-C reaches this process while it trains
    # stack 4, with stack 5 training in a child, where SIGINT stays blocked.
    cfg_path, out_dir = run_dir
    run_ensemble = refsel.cli.run_ensemble

    def interrupted(data, cfg, components):
        if components.start >= 4:
            os.kill(os.getpid(), signal.SIGINT)
        return run_ensemble(data, cfg, components=components)

    monkeypatch.setattr(refsel.cli, "run_ensemble", interrupted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    with pytest.raises(KeyboardInterrupt):
        main([command, "--config", str(cfg_path), "--components", "6", "--parallelism", "1"])
    assert not out_dir.exists() or list(out_dir.iterdir()) == []
    no_process_left()


TERMINATED_RUN = """
import os, signal, sys
import refsel.cli
os.sched_getaffinity = lambda pid: set(range(4))
run_ensemble = refsel.cli.run_ensemble

def terminated(data, cfg, components):
    if components.start == 4:
        os.kill(os.getpid(), signal.SIGTERM)
    return run_ensemble(data, cfg, components=components)

refsel.cli.run_ensemble = terminated
sys.exit(refsel.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["select", "export-q"])
def test_terminated_run_exits_143_and_leaves_no_file_or_process(run_dir, command):
    # As above, with SIGTERM, in a process of its own: here it would stop the test run.
    cfg_path, out_dir = run_dir
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", TERMINATED_RUN, command, "--config", str(cfg_path),
         "--components", "6", "--parallelism", "1"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 143, run.stderr
    assert "Traceback" not in run.stderr
    assert not out_dir.exists() or list(out_dir.iterdir()) == []
    assert subprocess.run(["pgrep", "-f", str(cfg_path)]).returncode == 1  # no process matched
    no_process_left()


TERMINATED_IO = """
import os, signal, sys
import refsel.cli, refsel.data
os.sched_getaffinity = lambda pid: set(range(4))
refsel.data.CSV_RANGE_BYTES, refsel.data.CSV_BLOCK_CELLS = 1024, 13
parent, hooked = os.getpid(), getattr(refsel.data, sys.argv[1])

def terminated(*args):
    if os.getpid() == parent:
        os.kill(parent, signal.SIGTERM)
    return hooked(*args)

setattr(refsel.data, sys.argv[1], terminated)
sys.exit(refsel.cli.main(sys.argv[2:]))
"""


def test_terminated_csv_parse_leaves_no_file_or_process(run_dir):
    # SIGTERM in this process's own range of data.csv while children parse the others.
    terminated_select_leaves_no_cds_or_process(run_dir, "_parse_range")


def test_terminated_csv_write_leaves_no_file_or_process(run_dir):
    # SIGTERM as this process formats its own block of cds.csv, children the others.
    terminated_select_leaves_no_cds_or_process(run_dir, "_labelled_rows")


def terminated_select_leaves_no_cds_or_process(run_dir, hook):
    cfg_path, out_dir = run_dir
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", TERMINATED_IO, hook, "select", "--config", str(cfg_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 143, run.stderr
    assert "Traceback" not in run.stderr
    left = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
    assert "cds.csv" not in left and not [name for name in left if name.startswith(".")]
    assert subprocess.run(["pgrep", "-f", str(cfg_path)]).returncode == 1  # no process matched
    no_process_left()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_their_mode_from_the_umask(run_dir, umask, mode):
    cfg_path, out_dir = run_dir
    previous = os.umask(umask)
    try:
        assert main(["select", "--config", str(cfg_path)]) == 0
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out_dir.iterdir()}
    assert "cds.csv" in modes and set(modes.values()) == {mode}, modes


def test_main_restores_the_sigterm_handler(run_dir):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["select", "--config", str(run_dir[0]), "--components", "0"]) == 1
    assert signal.getsignal(signal.SIGTERM) is before


def placed_outputs(out_dir):
    """Name -> (inode, mtime, bytes) of every entry in ``out_dir``, hidden ones included."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
            for p in out_dir.iterdir()}


@pytest.mark.parametrize("command", ["select", "export-q"])
def test_rerun_keeps_every_output_in_place(run_dir, command):
    cfg_path, out_dir = run_dir
    assert main([command, "--config", str(cfg_path)]) == 0
    first = placed_outputs(out_dir)
    assert main([command, "--config", str(cfg_path)]) == 0
    assert placed_outputs(out_dir) == first
    assert not [name for name in first if name.startswith(".")]
    no_process_left()


def test_rerun_with_another_seed_replaces_only_changed_outputs(run_dir):
    cfg_path, out_dir = run_dir
    assert main(["select", "--config", str(cfg_path)]) == 0
    first = placed_outputs(out_dir)
    assert main(["select", "--config", str(cfg_path), "--seed", "12"]) == 0
    second = placed_outputs(out_dir)
    assert second.keys() == first.keys()
    replaced = {name for name in first if first[name][0] != second[name][0]}
    assert replaced == {name for name in first if first[name][2] != second[name][2]}
    selections = {p.name for p in out_dir.glob("selection_delta_*.json")}
    assert len(selections) == 2 and selections | {"manifest.json"} <= replaced
    assert "cds.csv" in second and "cds.csv" not in replaced  # the same [split] seed
    no_process_left()
