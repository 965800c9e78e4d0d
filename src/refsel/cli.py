"""Command-line surface: select, evaluate, benchmark, export-q.

Every run writes a manifest echoing the resolved configuration; those of the
commands that train also list the component seeds. Any output can thus be
reproduced byte-for-byte from its manifest with the same numpy, the same BLAS
and the same BLAS thread count. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure, 143 on SIGTERM, which unwinds a run like Ctrl-C:
its worker processes are killed and its temp files removed.
Each override flag stores into the RunConfig field whose key it replaces.
``evaluate`` reads only what ``select`` wrote to the output directory: the
selection files and ``cds.csv`` (label ``label``, 1 = minority). ``select``
and ``benchmark`` exit 2 before training when the [eval] trials cannot split
the held-out set.

Training, evaluation and CSV input and output use every CPU of the affinity
mask (``taskset`` restricts it): stacks of components, chunks of trials and
a CSV's byte ranges or row blocks run in rounds of one per CPU through
``workers.ordered_map``, the first in this process, the others in forked
children. The bytes of every output do not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import signal
import sys
from contextlib import closing
from pathlib import Path

from . import __version__
from .config import RunConfig, load_run_config
from .data import (
    build_fsds_cds,
    export_q_csv,
    load_csv,
    load_idx_images,
    load_selection,
    apply_scaling,
    fit_scaling,
    report_rows_table,
    report_summary_table,
    report_to_dict,
    save_csv,
    save_json,
    save_selection,
    selection_summary_table,
    write_csv,
)
from .ensemble import component_seeds, q_shape, run_ensemble, select_at_thresholds, stacks
from .evaluate import EvalProtocol, chi2_rank, evaluate_selection
from .exceptions import DataError, RefselError, UsageError
from .sampling import LabeledDataset
from .workers import ordered_map

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="refsel",
        description="Reconstruction-error ensemble feature selection for imbalanced data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--output", dest="output_dir", help="override the output directory")
        p.add_argument("--components", dest="n_components", type=int,
                       help="override the component count")
        p.add_argument("--seed", dest="master_seed", type=int, help="override the master seed")
        p.add_argument(
            "--parallelism", type=int,
            help="components trained together as one stacked model; "
                 "outputs are byte-identical for every value",
        )

    def add_delta(p):
        p.add_argument("--delta", dest="delta_quantiles", action="append", type=float,
                       help="quantile level; repeat for several (overrides the config grid)")

    p_select = sub.add_parser("select", help="run the full selection pipeline")
    add_common(p_select)
    add_delta(p_select)
    p_select.set_defaults(func=_cmd_select)

    p_eval = sub.add_parser("evaluate", help="score selection files on the held-out dataset")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--output", dest="output_dir", help="override the output directory")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser(
        "benchmark", help="compare against the chi-squared filter at matched subset sizes"
    )
    add_common(p_bench)
    add_delta(p_bench)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_export = sub.add_parser("export-q", help="write the stacked error matrix with labels")
    add_common(p_export)
    p_export.set_defaults(func=_cmd_export_q)

    return parser


def _resolved_config(args) -> RunConfig:
    """The config file under the flags given, checked once; an empty ``--output`` is ignored."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return load_run_config(args.config, {
        name: tuple(value) if isinstance(value, list) else value  # repeated --delta
        for name, value in vars(args).items() if name in fields and value not in (None, "")
    })


def _load_dataset(cfg: RunConfig) -> LabeledDataset:
    if cfg.data_format == "csv":
        return load_csv(cfg.dataset_path, cfg.label, cfg.minority_label)
    return load_idx_images(
        cfg.images_path, cfg.labels_path, (cfg.majority_class, cfg.minority_class),
        counts=(cfg.majority_count, cfg.minority_count),
    )


def _selection_data(cfg: RunConfig):
    """(fsds, cds), loaded, split and scaled by a fit on the FSDS; cds is None without [split]."""
    data = _load_dataset(cfg)
    if cfg.split is not None:
        fsds, cds = build_fsds_cds(data, cfg.split)
        del data  # both sides are copies; the full matrix need not outlive training
    else:
        fsds, cds = data, None
    params = fit_scaling(fsds.X, cfg.scaling_mode)
    fsds = LabeledDataset(apply_scaling(params, fsds.X), fsds.y, fsds.feature_names)
    if cds is not None:
        cds = LabeledDataset(apply_scaling(params, cds.X), cds.y, cds.feature_names)
    dsae = cfg.dsae_config()
    if dsae.n_features != fsds.n_features:
        raise UsageError(
            f"encoder expects {dsae.n_features} input features but the dataset has "
            f"{fsds.n_features}; fix the [ensemble] encoder/decoder widths"
        )
    logger.info("selection dataset: %d majority / %d minority rows, %d features",
                fsds.n_majority, fsds.n_minority, fsds.n_features)
    return fsds, cds


def _no_label_feature(data: LabeledDataset, filename: str):
    if "label" in (data.feature_names or ()):  # ``filename`` adds its own label column
        raise DataError(f"a feature column is named 'label', like the label column of {filename}")


def _check_trials_split(cds: LabeledDataset, protocol: EvalProtocol):
    """Raise DataError before training unless every [eval] trial can split ``cds``."""
    try:
        protocol.trial_rows(cds.y)
    except DataError as exc:
        raise DataError(f"held-out dataset: {exc}") from None


def _stack_blocks(fsds: LabeledDataset, cfg: RunConfig):
    """(block_of, stacks): ``block_of(stack)`` trains a stack of components into Q's block."""
    ecfg = cfg.ensemble_config()
    return (lambda stack: run_ensemble(fsds, ecfg, components=stack)), stacks(ecfg)


def _write_manifest(cfg: RunConfig, command: str, extra=None):
    """Write manifest.json; the commands that train also list every component's seeds."""
    doc = {"command": command, "version": __version__, "config": dataclasses.asdict(cfg)}
    if command != "evaluate":
        doc["component_seeds"] = [
            list(component_seeds(cfg.master_seed, b)) for b in range(cfg.n_components)
        ]
    if extra:
        doc.update(extra)
    save_json(doc, Path(cfg.output_dir) / "manifest.json")


def _selection_filename(dq: float) -> str:
    """The level in ``:g`` form, or in full where ``:g`` would round it."""
    text = f"{dq:g}"
    return f"selection_delta_{text if float(text) == dq else repr(dq)}.json"


def _cmd_select(args) -> int:
    cfg = _resolved_config(args)
    fsds, cds = _selection_data(cfg)
    if cds is not None:
        _no_label_feature(cds, "cds.csv")
        _check_trials_split(cds, cfg.protocol())
    with closing(ordered_map(*_stack_blocks(fsds, cfg))) as blocks:
        results = select_at_thresholds(blocks, cfg.delta_quantiles, cfg.estimator)
    out = Path(cfg.output_dir)
    names = [_selection_filename(result.delta_quantile) for result in results]
    for name, result in zip(names, results):
        save_selection(result, out / name)
    for stale in out.glob("selection_delta_*.json"):
        if stale.name not in names:  # an earlier run's level: evaluate scores every file here
            stale.unlink()
    if cds is None:  # evaluate would score these selections on an earlier run's held-out rows
        (out / "cds.csv").unlink(missing_ok=True)
    write_csv(out / "selection_summary.csv", *selection_summary_table(results))
    if cds is not None:
        save_csv(cds, out / "cds.csv")
    _write_manifest(cfg, "select", extra={"q_shape": list(q_shape(fsds, cfg.n_components))})
    logger.info("wrote %d selection files to %s", len(results), out)
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _resolved_config(args)
    out = Path(cfg.output_dir)
    files = sorted(out.glob("selection_delta_*.json"))
    if not files:
        raise UsageError(f"no selection_delta_*.json files in {out}")
    selections = sorted((load_selection(f) for f in files), key=lambda r: r.delta_quantile)
    cds_path = out / "cds.csv"
    cds = load_csv(cds_path, label="label", minority_label="1")  # as select wrote it
    for sel in selections:  # a file may come from a run on another dataset
        if len(sel.delta) != cds.n_features:
            raise DataError(
                f"selection at quantile {sel.delta_quantile} scores {len(sel.delta)} "
                f"features; the held-out dataset has {cds.n_features}"
            )
    pairs = [(sel.delta_quantile, sel.selected) for sel in selections]
    report = evaluate_selection(cds, pairs, cfg.protocol())
    write_csv(out / "report_rows.csv", *report_rows_table(report))
    write_csv(out / "report_summary.csv", *report_summary_table(report))
    save_json(report_to_dict(report), out / "report.json")
    _write_manifest(cfg, "evaluate", extra={"cds_path": str(cds_path)})
    logger.info("wrote evaluation report to %s", out)
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _resolved_config(args)
    if cfg.split is None:
        raise UsageError("benchmark needs a [split] section to carve out the held-out dataset")
    fsds, cds = _selection_data(cfg)
    protocol = cfg.protocol()
    _check_trials_split(cds, protocol)
    with closing(ordered_map(*_stack_blocks(fsds, cfg))) as blocks:
        results = select_at_thresholds(blocks, cfg.delta_quantiles, cfg.estimator)
    pairs = [(r.delta_quantile, r.selected) for r in results]
    # Chi-squared needs non-negative features: rank on the FSDS mapped into
    # [0, 1], which leaves a unit_interval FSDS unchanged to the bit.
    unit = LabeledDataset(apply_scaling(fit_scaling(fsds.X, "unit_interval"), fsds.X), fsds.y)
    matched = [(dq, chi2_rank(unit, len(cols)) if len(cols) else cols) for dq, cols in pairs]
    reports = {
        "refsel": evaluate_selection(cds, pairs, protocol),
        "chi2": evaluate_selection(cds, matched, protocol),
    }
    out = Path(cfg.output_dir)
    for table, filename in ((report_rows_table, "benchmark_rows.csv"),
                            (report_summary_table, "benchmark_summary.csv")):
        rows = []
        for method, report in reports.items():
            header, body = table(report)
            rows += [[method, *row] for row in body]
        write_csv(out / filename, ["method", *header], rows)
    _write_manifest(cfg, "benchmark")
    logger.info("wrote benchmark tables to %s", out)
    return 0


def _cmd_export_q(args) -> int:
    cfg = _resolved_config(args)
    fsds, _ = _selection_data(cfg)
    _no_label_feature(fsds, "q_matrix.csv")
    out = Path(cfg.output_dir)
    block_of, items = _stack_blocks(fsds, cfg)
    export_q_csv(block_of, out / "q_matrix.csv", fsds.feature_names, items)
    rows, n_features = q_shape(fsds, cfg.n_components)
    _write_manifest(cfg, "export-q", extra={"q_shape": [rows, n_features]})
    logger.info("wrote %dx%d error matrix to %s", rows, n_features + 1, out)
    return 0


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    # SIGTERM unwinds like Ctrl-C: workers are killed and temp files removed.
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RefselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
