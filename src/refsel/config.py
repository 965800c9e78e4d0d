"""Run configuration: INI-style file with CLI-flag overrides.

Precedence is command-line flags over file values over built-in defaults.
The file uses flat key=value pairs grouped in sections: [data], optional
[split], [ensemble], [training], [selection], [eval], [output]. Each
RunConfig field declares its own ``[section] key``, parser and default.
Values are interpolated, so a literal ``%`` is written ``%%``.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import sys
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .data import SCALING_MODES, DatasetSplitSpec
from .ensemble import EnsembleConfig
from .evaluate import EvalProtocol
from .exceptions import ParameterError, UsageError
from .nn import DsaeConfig, TrainingConfig, layers_from_widths

DEFAULT_DELTAS = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)

# (key, DatasetSplitSpec field, parser); the defaults are the spec's own.
_SPLIT_KEYS = (
    ("fsds_fraction", "fsds_fraction", float),
    ("seed", "split_seed", int),
    ("minority_subsample", "minority_subsample", int),
)


def _key(section, key, cast=str, default=MISSING):
    """A field read from ``[section] key`` by ``cast``; without a default the key is required."""
    return field(default=default, metadata={"ini": (section, key, cast)})


def _ini_name(name: str) -> str:
    """``[section] key`` of RunConfig field ``name``, from its metadata."""
    section, key, _ = RunConfig.__dataclass_fields__[name].metadata["ini"]
    return f"[{section}] {key}"


def _blame(where: str, build, *args, **kwargs):
    """build(*args, **kwargs); a ParameterError becomes a UsageError that starts with ``where``."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _build(cls, steps, **given):
    """cls(**given, ...), adding the ``(where, parameter, value)`` of each step in turn.

    Each class checks a parameter alone or against those before it, so the
    first call that fails names the key at fault.
    """
    for where, param, value in steps:
        given[param] = value
        built = _blame(where, cls, **given)
    return built


def _widths(raw: str):
    return [int(part) for part in raw.replace(" ", "").split("-") if part]


def _names(raw: str):
    parts = [p.strip().lower() for p in raw.replace("-", ",").split(",") if p.strip()]
    return parts[0] if len(parts) == 1 else parts


def _floats(raw: str):
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _strings(raw: str):
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _label(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


@dataclass(kw_only=True)
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    data_format: str = _key("data", "format", str.lower, "csv")
    dataset_path: str = _key("data", "path", str, None)
    label: object = _key("data", "label", _label, None)
    minority_label: str = _key("data", "minority_label", str, None)
    images_path: str = _key("data", "images", str, None)
    labels_path: str = _key("data", "labels", str, None)
    majority_class: int = _key("data", "majority_class", int, None)
    minority_class: int = _key("data", "minority_class", int, None)
    majority_count: int = _key("data", "majority_count", int, None)
    minority_count: int = _key("data", "minority_count", int, None)
    scaling_mode: str = _key("data", "scaling", str.lower, "unit_interval")
    split: DatasetSplitSpec = None  # [split], read through _SPLIT_KEYS
    n_components: int = _key("ensemble", "components", int, 25)
    master_seed: int = _key("ensemble", "master_seed", int, EnsembleConfig.master_seed)
    parallelism: int = _key("ensemble", "parallelism", int, EnsembleConfig.parallelism)
    encoder_widths: list = _key("ensemble", "encoder", _widths)
    encoder_activations: object = _key("ensemble", "encoder_activations", _names)
    decoder_widths: list = _key("ensemble", "decoder", _widths)
    decoder_activations: object = _key("ensemble", "decoder_activations", _names)
    l1_penalty: float = _key("ensemble", "l1_penalty", float, DsaeConfig.l1_penalty)
    training: TrainingConfig = field(default_factory=TrainingConfig)  # keys: its field names
    delta_quantiles: tuple = _key("selection", "deltas", _floats, DEFAULT_DELTAS)
    estimator: str = _key("selection", "estimator", str.lower, "mean")
    eval_train_fraction: float = _key("eval", "train_fraction", float, EvalProtocol.train_fraction)
    eval_seed: int = _key("eval", "seed", int, EvalProtocol.split_seed)
    eval_classifiers: tuple = _key("eval", "classifiers", _strings, EvalProtocol.classifiers)
    eval_trials: int = _key("eval", "trials", int, EvalProtocol.trials)
    output_dir: str = _key("output", "directory")

    def validate(self):
        """Self, once every value is checked; a bad one raises UsageError naming its key."""
        if self.data_format not in ("csv", "idx"):
            raise UsageError(f"[data] format: unknown data format {self.data_format!r}")
        if self.data_format == "csv" and (self.dataset_path is None or self.label is None):
            raise UsageError("[data] path and [data] label are required for csv data")
        if self.data_format == "idx":
            for name in ("images_path", "labels_path", "majority_class", "minority_class"):
                if getattr(self, name) is None:
                    raise UsageError(f"{_ini_name(name)} is required for idx data")
            classes = (self.majority_class, self.minority_class)  # IDX labels are bytes
            if classes[0] == classes[1] or not all(0 <= c <= 255 for c in classes):
                raise UsageError(f"[data] majority_class and minority_class {classes} "
                                 "must differ and lie in 0..255")
            if any(n is not None and n < 1 for n in (self.majority_count, self.minority_count)):
                raise UsageError("[data] majority_count and minority_count must be at least 1")
        if self.scaling_mode not in SCALING_MODES:
            raise UsageError(f"[data] scaling must be one of {SCALING_MODES}")
        for dq in self.delta_quantiles:
            if not 0.0 <= dq < 1.0:
                raise UsageError(f"[selection] deltas: delta quantile {dq} outside [0, 1)")
        if not self.delta_quantiles:
            raise UsageError("[selection] deltas: need at least one delta quantile")
        if len(set(self.delta_quantiles)) != len(self.delta_quantiles):
            raise UsageError(f"[selection] deltas: delta quantiles {list(self.delta_quantiles)} "
                             "name a level twice")
        if self.estimator not in ("mean", "median"):
            raise UsageError(f"[selection] estimator must be mean or median, "
                             f"got {self.estimator!r}")
        # Q holds at least two rows per component, one float64 per feature.
        if self.encoder_widths and 16 * self.n_components * self.encoder_widths[0] > sys.maxsize:
            raise UsageError(
                f"[ensemble] components = {self.n_components} gives an error matrix larger "
                "than memory can address"
            )
        self.ensemble_config()
        self.protocol()
        return self

    def _steps(self, params):
        """_build steps for ``params``, {RunConfig field: class parameter}."""
        return [(_ini_name(name), param, getattr(self, name)) for name, param in params.items()]

    def dsae_config(self) -> DsaeConfig:
        encoder, decoder = (
            _blame(f"[ensemble] {side}, {side}_activations", layers_from_widths,
                   getattr(self, f"{side}_widths"), getattr(self, f"{side}_activations"))
            for side in ("encoder", "decoder"))
        return _build(DsaeConfig, [("[ensemble] encoder, decoder", "decoder_layers", decoder),
                                   *self._steps({"l1_penalty": "l1_penalty"})],
                      encoder_layers=encoder, seed=0)

    def ensemble_config(self) -> EnsembleConfig:
        return _build(EnsembleConfig, self._steps({
            "n_components": "n_components", "master_seed": "master_seed",
            "parallelism": "parallelism",
        }), dsae=self.dsae_config(), training=self.training)

    def protocol(self) -> EvalProtocol:
        return _build(EvalProtocol, self._steps({
            "eval_train_fraction": "train_fraction", "eval_seed": "split_seed",
            "eval_classifiers": "classifiers", "eval_trials": "trials",
        }))


def load_run_config(path, overrides=None) -> RunConfig:
    """Parse a config file into a RunConfig, with ``overrides`` ({field: value}) on top.

    A missing or blank key keeps its default. A missing required key, or a value
    that cannot be read (a bad ``%``), parsed or accepted, raises UsageError
    naming it. The values are checked once, after the overrides are applied,
    so an override replaces a bad file value.
    """
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

    def read(section, key, cast, default):
        try:
            raw = parser.get(section, key, fallback="").strip()
        except configparser.Error as exc:
            raise UsageError(f"config key [{section}] {key}: {exc}") from None
        if not raw:
            if default is MISSING:
                raise UsageError(f"missing config key [{section}] {key}")
            return default
        if "\0" not in raw:  # no path, name or number holds a NUL byte
            with contextlib.suppress(ValueError, TypeError):
                return cast(raw)
        raise UsageError(f"config key [{section}] {key}: cannot parse {raw!r}")

    values = {}
    if parser.has_section("split"):
        values["split"] = _build(DatasetSplitSpec, [
            (f"[split] {key}", name, read("split", key, cast, getattr(DatasetSplitSpec, name)))
            for key, name, cast in _SPLIT_KEYS
        ])
    for f in dataclasses.fields(RunConfig):
        if "ini" in f.metadata:
            values[f.name] = read(*f.metadata["ini"], f.default)
        elif f.name == "training":
            values["training"] = _build(TrainingConfig, [
                (f"[training] {t.name}", t.name,
                 read("training", t.name, type(t.default), t.default))
                for t in dataclasses.fields(TrainingConfig)
            ])
    values.update(overrides or {})
    return RunConfig(**values).validate()
