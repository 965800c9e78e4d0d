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
        if self.data_format not in ("csv", "idx"):
            raise UsageError(f"unknown data format {self.data_format!r}")
        if self.data_format == "csv" and (self.dataset_path is None or self.label is None):
            raise UsageError("csv data needs [data] path and [data] label")
        if self.data_format == "idx":
            for key in ("images_path", "labels_path", "majority_class", "minority_class"):
                if getattr(self, key) is None:
                    raise UsageError(f"idx data needs [data] {key}")
            classes = (self.majority_class, self.minority_class)  # IDX labels are bytes
            if classes[0] == classes[1] or not all(0 <= c <= 255 for c in classes):
                raise UsageError(f"idx classes {classes} must differ and lie in 0..255")
            if any(n is not None and n < 1 for n in (self.majority_count, self.minority_count)):
                raise UsageError("[data] majority_count and minority_count must be at least 1")
        if self.scaling_mode not in SCALING_MODES:
            raise UsageError(f"scaling must be one of {SCALING_MODES}")
        for dq in self.delta_quantiles:
            if not 0.0 <= dq < 1.0:
                raise UsageError(f"delta quantile {dq} outside [0, 1)")
        if not self.delta_quantiles:
            raise UsageError("need at least one delta quantile")
        if len(set(self.delta_quantiles)) != len(self.delta_quantiles):
            raise UsageError(f"delta quantiles {list(self.delta_quantiles)} name a level twice")
        if self.estimator not in ("mean", "median"):
            raise UsageError(f"estimator must be mean or median, got {self.estimator!r}")
        # Q holds at least two rows per component, one float64 per feature.
        if self.encoder_widths and 16 * self.n_components * self.encoder_widths[0] > sys.maxsize:
            raise UsageError(
                f"components = {self.n_components} gives an error matrix larger than "
                "memory can address"
            )
        try:
            self.ensemble_config()
            self.protocol()
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        return self

    def dsae_config(self) -> DsaeConfig:
        return DsaeConfig(
            encoder_layers=layers_from_widths(self.encoder_widths, self.encoder_activations),
            decoder_layers=layers_from_widths(self.decoder_widths, self.decoder_activations),
            l1_penalty=self.l1_penalty,
            seed=0,
        )

    def ensemble_config(self) -> EnsembleConfig:
        return EnsembleConfig(
            n_components=self.n_components,
            dsae=self.dsae_config(),
            training=self.training,
            master_seed=self.master_seed,
            parallelism=self.parallelism,
        )

    def protocol(self) -> EvalProtocol:
        return EvalProtocol(
            train_fraction=self.eval_train_fraction,
            split_seed=self.eval_seed,
            classifiers=self.eval_classifiers,
            trials=self.eval_trials,
        )


def load_run_config(path) -> RunConfig:
    """Parse a config file into a RunConfig (no CLI overrides applied yet).

    A missing or blank key keeps its default. A missing required key, or a value
    that cannot be read (a bad ``%``) or parsed, raises UsageError naming it.
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
        values["split"] = DatasetSplitSpec(**{
            name: read("split", key, cast, getattr(DatasetSplitSpec, name))
            for key, name, cast in _SPLIT_KEYS
        })
    for f in dataclasses.fields(RunConfig):
        if "ini" in f.metadata:
            values[f.name] = read(*f.metadata["ini"], f.default)
        elif f.name == "training":
            values["training"] = TrainingConfig(**{
                t.name: read("training", t.name, type(t.default), t.default)
                for t in dataclasses.fields(TrainingConfig)
            })
    return RunConfig(**values).validate()
