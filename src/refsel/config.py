"""Run configuration: INI-style file with CLI-flag overrides.

Precedence is command-line flags over file values over built-in defaults.
The file uses flat key=value pairs grouped in sections: [data], optional
[split], [ensemble], [training], [selection], [eval], [output].
"""

from __future__ import annotations

import configparser
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .data import SCALING_MODES, DatasetSplitSpec
from .ensemble import EnsembleConfig
from .evaluate import EvalProtocol
from .exceptions import ParameterError, UsageError
from .nn import DsaeConfig, TrainingConfig, layers_from_widths

DEFAULT_DELTAS = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)

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


@dataclass
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    # [data]
    data_format: str
    dataset_path: str = None
    label: object = None
    minority_label: str = None
    images_path: str = None
    labels_path: str = None
    majority_class: int = None
    minority_class: int = None
    majority_count: int = None
    minority_count: int = None
    scaling_mode: str = "unit_interval"
    # [split]
    split: DatasetSplitSpec = None
    # [ensemble]
    n_components: int = 25
    master_seed: int = 0
    parallelism: int = 1
    encoder_widths: list = None
    encoder_activations: object = None
    decoder_widths: list = None
    decoder_activations: object = None
    l1_penalty: float = 1e-5
    # [training]
    training: TrainingConfig = field(default_factory=TrainingConfig)
    # [selection]
    delta_quantiles: tuple = DEFAULT_DELTAS
    estimator: str = "mean"
    # [eval]
    eval_train_fraction: float = 0.7
    eval_seed: int = 0
    eval_classifiers: tuple = ("gaussian_nb", "logistic_regression", "knn")
    eval_trials: int = 5
    # [output]
    output_dir: str = "."

    def validate(self):
        if self.data_format not in ("csv", "idx"):
            raise UsageError(f"unknown data format {self.data_format!r}")
        if self.data_format == "csv" and (self.dataset_path is None or self.label is None):
            raise UsageError("csv data needs [data] path and [data] label")
        if self.data_format == "idx":
            for key in ("images_path", "labels_path", "majority_class", "minority_class"):
                if getattr(self, key) is None:
                    raise UsageError(f"idx data needs [data] {key}")
        if self.scaling_mode not in SCALING_MODES:
            raise UsageError(f"scaling must be one of {SCALING_MODES}")
        for dq in self.delta_quantiles:
            if not 0.0 <= dq < 1.0:
                raise UsageError(f"delta quantile {dq} outside [0, 1)")
        if not self.delta_quantiles:
            raise UsageError("need at least one delta quantile")
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

    def to_manifest(self) -> dict:
        doc = {}
        for key, value in vars(self).items():
            if key == "training":
                doc["training"] = vars(value).copy()
            elif key == "split":
                doc["split"] = None if value is None else vars(value).copy()
            elif isinstance(value, tuple):
                doc[key] = list(value)
            else:
                doc[key] = value
        return doc


def load_run_config(path) -> RunConfig:
    """Parse a config file into a RunConfig (no CLI overrides applied yet)."""
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
    get = functools.partial(_get, parser)

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
