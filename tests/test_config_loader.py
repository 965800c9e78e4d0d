"""The declarative config loader against a transcription of its keyword-call predecessor.

``reference_load`` and ``reference_manifest`` reproduce the earlier loader,
which named every key and default in one keyword call to RunConfig, and
its manifest serialiser. The current loader must accept the same files with
equal results, reject the same files with the same exit code and message,
and turn every configparser error into a UsageError. The two intended
differences: a value holding a NUL byte is rejected, and so is a section
the loader does not read, where the reference accepted both.
"""

import configparser
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from refsel.config import (
    DEFAULT_DELTAS, RunConfig, _floats, _label, _names, _strings, _widths, load_run_config,
)
from refsel.data import DatasetSplitSpec
from refsel.ensemble import EnsembleConfig
from refsel.evaluate import EvalProtocol
from refsel.exceptions import RefselError, UsageError
from refsel.nn import DsaeConfig, TrainingConfig
from test_cli_mutation import edits, mutate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_REQUIRED = object()


def _get(parser, section, key, default=_REQUIRED, cast=str):
    if not parser.has_option(section, key) or parser.get(section, key).strip() == "":
        if default is _REQUIRED:
            raise UsageError(f"missing config key [{section}] {key}")
        return default
    raw = parser.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError):
        raise UsageError(f"config key [{section}] {key}: cannot parse {raw!r}") from None


def reference_load(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from None

    for section in ("data", "ensemble", "output"):
        if not parser.has_section(section):
            raise UsageError(f"missing config section [{section}]")

    def get(*args, **kwargs):
        return _get(parser, *args, **kwargs)

    split = None
    if parser.has_section("split"):
        split = DatasetSplitSpec(
            fsds_fraction=get("split", "fsds_fraction", 0.75, float),
            split_seed=get("split", "seed", 0, int),
            minority_subsample=get("split", "minority_subsample", None, int),
        )

    cfg = RunConfig(
        data_format=get("data", "format", "csv").lower(),
        dataset_path=get("data", "path", None),
        label=get("data", "label", None, _label),
        minority_label=get("data", "minority_label", None),
        images_path=get("data", "images", None),
        labels_path=get("data", "labels", None),
        majority_class=get("data", "majority_class", None, int),
        minority_class=get("data", "minority_class", None, int),
        majority_count=get("data", "majority_count", None, int),
        minority_count=get("data", "minority_count", None, int),
        scaling_mode=get("data", "scaling", "unit_interval").lower(),
        split=split,
        n_components=get("ensemble", "components", 25, int),
        master_seed=get("ensemble", "master_seed", 0, int),
        parallelism=get("ensemble", "parallelism", 1, int),
        encoder_widths=get("ensemble", "encoder", cast=_widths),
        encoder_activations=get("ensemble", "encoder_activations", cast=_names),
        decoder_widths=get("ensemble", "decoder", cast=_widths),
        decoder_activations=get("ensemble", "decoder_activations", cast=_names),
        l1_penalty=get("ensemble", "l1_penalty", 1e-5, float),
        training=TrainingConfig(
            epochs=get("training", "epochs", 100, int),
            batch_size=get("training", "batch_size", 100, int),
            learning_rate=get("training", "learning_rate", 0.001, float),
            beta1=get("training", "beta1", 0.9, float),
            beta2=get("training", "beta2", 0.999, float),
            epsilon=get("training", "epsilon", 1e-8, float),
        ),
        delta_quantiles=get("selection", "deltas", DEFAULT_DELTAS, _floats),
        estimator=get("selection", "estimator", "mean").lower(),
        eval_train_fraction=get("eval", "train_fraction", 0.7, float),
        eval_seed=get("eval", "seed", 0, int),
        eval_classifiers=get(
            "eval", "classifiers", ("gaussian_nb", "logistic_regression", "knn"), _strings
        ),
        eval_trials=get("eval", "trials", 5, int),
        output_dir=get("output", "directory"),
    )
    return cfg.validate()


def reference_manifest(cfg: RunConfig) -> dict:
    doc = {}
    for key, value in vars(cfg).items():
        if key == "training":
            doc["training"] = vars(value).copy()
        elif key == "split":
            doc["split"] = None if value is None else vars(value).copy()
        elif isinstance(value, tuple):
            doc[key] = list(value)
        else:
            doc[key] = value
    return doc


def manifest_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# Every key the loader reads, each set away from its default; the names it
# lowercases are given in mixed case.
FULL = """[data]
format = CSV
path = data.csv
label = label
minority_label = 1
images = images.idx
labels = labels.idx
majority_class = 1
minority_class = 7
majority_count = 100
minority_count = 10
scaling = Symmetric_Unit

[split]
fsds_fraction = 0.6
seed = 7
minority_subsample = 4

[ensemble]
components = 3
master_seed = 11
parallelism = 2
encoder = 12-6-3
encoder_activations = Tanh
decoder = 3-6-12
decoder_activations = tanh-sigmoid
l1_penalty = 1e-4

[training]
epochs = 4
batch_size = 16
learning_rate = 0.01
beta1 = 0.8
beta2 = 0.99
epsilon = 1e-7

[selection]
deltas = 0.75,0.9
estimator = Median

[eval]
train_fraction = 0.6
seed = 3
classifiers = gaussian_nb,knn
trials = 2

[output]
directory = out
"""

MINIMAL = """[data]
path = d.csv
label = y
[ensemble]
encoder = 4-2
encoder_activations = tanh
decoder = 2-4
decoder_activations = linear
[output]
directory = out
"""

REQUIRED_KEYS = [
    ("ensemble", "encoder"),
    ("ensemble", "encoder_activations"),
    ("ensemble", "decoder"),
    ("ensemble", "decoder_activations"),
    ("output", "directory"),
]

TYPED_KEYS = [
    ("data", "majority_class"), ("data", "minority_class"),
    ("data", "majority_count"), ("data", "minority_count"),
    ("split", "fsds_fraction"), ("split", "seed"), ("split", "minority_subsample"),
    ("ensemble", "components"), ("ensemble", "master_seed"), ("ensemble", "parallelism"),
    ("ensemble", "encoder"), ("ensemble", "decoder"), ("ensemble", "l1_penalty"),
    ("training", "epochs"), ("training", "batch_size"), ("training", "learning_rate"),
    ("training", "beta1"), ("training", "beta2"), ("training", "epsilon"),
    ("selection", "deltas"),
    ("eval", "train_fraction"), ("eval", "seed"), ("eval", "trials"),
]


def edit_key(text: str, section: str, key: str, value) -> str:
    """``text`` with ``key``'s line in ``[section]`` set to ``value``, or removed for None."""
    lines, current = text.splitlines(keepends=True), None
    for i, line in enumerate(lines):
        if line.startswith("["):
            current = line.strip()[1:-1]
        elif current == section and line.split("=")[0].strip() == key:
            lines[i] = "" if value is None else f"{key} = {value}\n"
            return "".join(lines)
    raise AssertionError(f"no [{section}] {key} in the text")


def unread_sections(path):
    """The sections of ``path`` that the reference loader never reads, in file order."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    read = ("data", "split", "ensemble", "training", "selection", "eval", "output")
    return [section for section in parser.sections() if section not in read]


def outcome(load, path):
    """("ok", manifest text) or (exception type, exit code or None, message)."""
    try:
        return "ok", manifest_text(dataclasses.asdict(load(path)))
    except RefselError as exc:
        return type(exc), exc.exit_code, str(exc)
    except configparser.Error as exc:
        return type(exc), None, str(exc)


def test_full_config_loads_like_the_reference(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL, encoding="utf-8")
    cfg = load_run_config(path)
    assert dataclasses.asdict(cfg) == dataclasses.asdict(reference_load(path))
    assert cfg.split == DatasetSplitSpec(0.6, 7, 4)
    assert cfg.training == TrainingConfig(4, 16, 0.01, 0.8, 0.99, 1e-7)
    assert cfg.label == "label" and cfg.scaling_mode == "symmetric_unit"


def away_from(default):
    """A value other than ``default`` that every class of the run config accepts in its place."""
    if default is None:
        return 2
    if isinstance(default, tuple):
        return default[1:]
    return default / 2 if isinstance(default, float) else default + 1


def test_builders_receive_every_declared_parameter(tmp_path):
    # Every key that feeds a library class, and every [split] and [training]
    # key, is set away from its default; the built objects must carry each value.
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL)
    fed, held = {}, {}  # {(class, parameter): value}, {(RunConfig field, parameter): value}
    for f in dataclasses.fields(RunConfig):
        if "section" in f.metadata:
            section, _, keys = f.metadata["section"]
            entries = [(key, (f.name, param), default) for key, param, _, default in keys]
        elif f.metadata["feeds"][0]:
            (section, key, _), default = f.metadata["ini"], f.default
            entries = [(key, f.metadata["feeds"], default)]
        else:
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        for key, target, default in entries:
            value = away_from(default)
            (held if "section" in f.metadata else fed)[target] = value
            parser[section][key] = ",".join(value) if isinstance(value, tuple) else str(value)
    path = tmp_path / "every_parameter.ini"
    with path.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    cfg = load_run_config(path)
    ensemble = cfg.ensemble_config()
    assert ensemble.dsae == cfg.dsae_config() and ensemble.training == cfg.training
    built = {DsaeConfig: ensemble.dsae, EnsembleConfig: ensemble, EvalProtocol: cfg.protocol()}
    assert {(cls, param): getattr(built[cls], param) for cls, param in fed} == fed
    assert {(name, param): getattr(getattr(cfg, name), param) for name, param in held} == held
    assert {name for name, _ in held} == {"split", "training"}


# (section, key, value or None to delete the line, the parent's message)
FAULTS = [
    *((s, k, v, f"missing config key [{s}] {k}") for s, k in REQUIRED_KEYS for v in (None, "")),
    *((s, k, "x", f"config key [{s}] {k}: cannot parse 'x'") for s, k in TYPED_KEYS),
]


@pytest.mark.parametrize("section, key, value, message", FAULTS, ids=[
    f"{s}-{k}-{'absent' if v is None else v or 'blank'}" for s, k, v, _ in FAULTS
])
def test_single_fault_gives_the_reference_message(tmp_path, section, key, value, message):
    path = tmp_path / "bad.ini"
    path.write_text(edit_key(FULL, section, key, value), encoding="utf-8")
    for load in (reference_load, load_run_config):
        with pytest.raises(UsageError) as exc:
            load(path)
        assert str(exc.value) == message, load


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")) + ["minimal"])
def test_manifest_equals_the_reference(tmp_path, name):
    path = CONFIGS / name
    if name == "minimal":
        path = tmp_path / "minimal.ini"
        path.write_text(MINIMAL, encoding="utf-8")
    expected = manifest_text(reference_manifest(reference_load(path)))
    assert manifest_text(dataclasses.asdict(load_run_config(path))) == expected


@given(changes=edits)
@settings(max_examples=300, deadline=None)
def test_mutated_config_loads_like_the_reference(tmp_path_factory, changes):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_bytes(mutate(FULL.encode("utf-8"), changes))
    ref, new = outcome(reference_load, path), outcome(load_run_config, path)
    if ref[0] == "ok" and new[0] != "ok" and new[2].startswith("unknown config section ["):
        # The reference ignored a section it never read.
        assert new == (UsageError, 1, f"unknown config section [{unread_sections(path)[0]}]")
    elif ref[0] == "ok" and "\\x00" in str(new):
        # The reference let a NUL byte through, to fail later as a path.
        assert new[0] is UsageError and "cannot parse" in new[2], new
    elif ref[0] == "ok":
        assert new == ref
    elif issubclass(ref[0], RefselError):
        assert new[0] != "ok" and new[1] == ref[1], (ref, new)
    else:
        assert issubclass(ref[0], configparser.Error)
        assert new[0] is UsageError, (ref, new)
