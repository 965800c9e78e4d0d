"""Run configuration: INI-style file with CLI-flag overrides.

Precedence is command-line flags over file values over built-in defaults.
The file uses flat key=value pairs grouped in sections: [data], optional
[split], [ensemble], [training], [selection], [eval], [output]. Each setting
is declared once, as a RunConfig field naming its ``[section] key``, parser,
default and the ``(class, parameter)`` it feeds. An unknown section is
rejected; an unknown key is logged and ignored. Values are interpolated, so
a literal ``%`` is written ``%%``.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import logging
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .data import SCALING_MODES, DatasetSplitSpec
from .ensemble import ESTIMATORS, EnsembleConfig
from .evaluate import EvalProtocol
from .exceptions import ParameterError, UsageError
from .nn import DsaeConfig, TrainingConfig, layers_from_widths

logger = logging.getLogger(__name__)

DEFAULT_DELTAS = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)


def _key(section, key, cast=str, default=MISSING, feeds=None, param=None):
    """A field read from ``[section] key`` by ``cast``; it feeds parameter ``param`` (or ``key``)
    of class ``feeds`` and takes its default unless given one. With no default the key is required.
    """
    feeds = (feeds, param or key)
    if feeds[0] and default is MISSING:
        default = getattr(*feeds)
    return field(default=default, metadata={"ini": (section, key, cast), "feeds": feeds})


def _section(section, cls, default=None, **renamed):
    """A field holding a ``cls`` built from ``[section]``, or ``default`` without that section;
    each parameter is read from the key of its name, or of the name ``renamed`` gives it."""
    hints = typing.get_type_hints(cls)
    keys = [(renamed.get(p.name, p.name), p.name, hints[p.name], p.default)
            for p in dataclasses.fields(cls)]
    return field(default=default, metadata={"section": (section, cls, keys)})


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
    split: DatasetSplitSpec = _section("split", DatasetSplitSpec, split_seed="seed")
    n_components: int = _key("ensemble", "components", int, 25, EnsembleConfig, "n_components")
    master_seed: int = _key("ensemble", "master_seed", int, feeds=EnsembleConfig)
    parallelism: int = _key("ensemble", "parallelism", int, feeds=EnsembleConfig)
    encoder_widths: list = _key("ensemble", "encoder", _widths)
    encoder_activations: object = _key("ensemble", "encoder_activations", _names)
    decoder_widths: list = _key("ensemble", "decoder", _widths)
    decoder_activations: object = _key("ensemble", "decoder_activations", _names)
    l1_penalty: float = _key("ensemble", "l1_penalty", float, feeds=DsaeConfig)
    training: TrainingConfig = _section("training", TrainingConfig, TrainingConfig())
    delta_quantiles: tuple = _key("selection", "deltas", _floats, DEFAULT_DELTAS)
    estimator: str = _key("selection", "estimator", str.lower, "mean")
    eval_train_fraction: float = _key("eval", "train_fraction", float, feeds=EvalProtocol)
    eval_seed: int = _key("eval", "seed", int, feeds=EvalProtocol, param="split_seed")
    eval_classifiers: tuple = _key("eval", "classifiers", _strings, feeds=EvalProtocol)
    eval_trials: int = _key("eval", "trials", int, feeds=EvalProtocol)
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
        if self.estimator not in ESTIMATORS:
            raise UsageError(f"[selection] estimator must be {' or '.join(ESTIMATORS)}, "
                             f"got {self.estimator!r}")
        self.ensemble_config()
        self.protocol()
        return self

    def _steps(self, cls):
        """_build steps of the fields that feed ``cls``, in declaration order."""
        return [(_ini_name(f.name), f.metadata["feeds"][1], getattr(self, f.name))
                for f in dataclasses.fields(self) if f.metadata.get("feeds", (None,))[0] is cls]

    def dsae_config(self) -> DsaeConfig:
        encoder, decoder = (
            _blame(f"[ensemble] {side}, {side}_activations", layers_from_widths,
                   getattr(self, f"{side}_widths"), getattr(self, f"{side}_activations"))
            for side in ("encoder", "decoder"))
        return _build(DsaeConfig, [("[ensemble] encoder, decoder", "decoder_layers", decoder),
                                   *self._steps(DsaeConfig)],
                      encoder_layers=encoder, seed=0)

    def ensemble_config(self) -> EnsembleConfig:
        return _build(EnsembleConfig, self._steps(EnsembleConfig),
                      dsae=self.dsae_config(), training=self.training)

    def protocol(self) -> EvalProtocol:
        return _build(EvalProtocol, self._steps(EvalProtocol))


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
    known = {}  # section: the keys read from it

    def read(section, key, cast, default):
        known.setdefault(section, set()).add(key)
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
    for f in dataclasses.fields(RunConfig):
        if "ini" in f.metadata:
            values[f.name] = read(*f.metadata["ini"], f.default)
        elif parser.has_section(f.metadata["section"][0]):
            section, cls, keys = f.metadata["section"]
            values[f.name] = _build(cls, [
                (f"[{section}] {key}", param, read(section, key, cast, default))
                for key, param, cast, default in keys
            ])
    for section in parser.sections():
        if section not in known:
            raise UsageError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in known[section] and key not in parser.defaults():
                logger.warning("ignoring unknown config key [%s] %s", section, key)
    values.update(overrides or {})
    return RunConfig(**values).validate()
