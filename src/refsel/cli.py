"""Command-line surface: select, evaluate, benchmark, export-q.

Every run writes a manifest echoing the resolved configuration; those of the
commands that train also list the component seeds. Any output can thus be
reproduced byte-for-byte from its manifest. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
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
from .ensemble import component_seeds, run_ensemble, select_at_thresholds
from .evaluate import chi2_rank, evaluate_selection
from .exceptions import RefselError, UsageError
from .sampling import LabeledDataset

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
        p.add_argument("--output", help="override the output directory")
        p.add_argument("--components", type=int, help="override the component count")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument(
            "--parallelism", type=int,
            help="components trained together as one stacked model; "
                 "outputs are byte-identical for every value",
        )

    p_select = sub.add_parser("select", help="run the full selection pipeline")
    add_common(p_select)
    p_select.add_argument(
        "--delta", dest="deltas", action="append", type=float,
        help="quantile level; repeat for several (overrides the config grid)",
    )
    p_select.set_defaults(func=_cmd_select)

    p_eval = sub.add_parser("evaluate", help="score selection files on the held-out dataset")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--output", help="override the output directory")
    p_eval.add_argument(
        "--selections", help="directory holding selection_delta_*.json (default: output dir)"
    )
    p_eval.add_argument("--cds", help="held-out dataset CSV (default: <output>/cds.csv)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser(
        "benchmark", help="compare against the chi-squared filter at matched subset sizes"
    )
    add_common(p_bench)
    p_bench.add_argument("--delta", dest="deltas", action="append", type=float)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_export = sub.add_parser("export-q", help="write the stacked error matrix with labels")
    add_common(p_export)
    p_export.set_defaults(func=_cmd_export_q)

    return parser


def _resolved_config(args) -> RunConfig:
    cfg = load_run_config(args.config)
    updates = {}
    if getattr(args, "deltas", None):
        updates["delta_quantiles"] = tuple(args.deltas)
    if getattr(args, "components", None) is not None:
        updates["n_components"] = args.components
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "parallelism", None) is not None:
        updates["parallelism"] = args.parallelism
    if getattr(args, "output", None):
        updates["output_dir"] = args.output
    if updates:
        cfg = dataclasses.replace(cfg, **updates).validate()
    return cfg


def _load_dataset(cfg: RunConfig) -> LabeledDataset:
    if cfg.data_format == "csv":
        return load_csv(cfg.dataset_path, cfg.label, cfg.minority_label)
    counts = None
    if cfg.majority_count is not None or cfg.minority_count is not None:
        counts = (cfg.majority_count, cfg.minority_count)
    return load_idx_images(
        cfg.images_path, cfg.labels_path,
        (cfg.majority_class, cfg.minority_class), counts=counts,
    )


def _train(cfg: RunConfig):
    """Load, split and scale the data, then train the ensemble on the FSDS.

    Returns (fsds, cds, q); cds is None without a [split] section. Scaling is
    fit on the FSDS alone and applied to both sides.
    """
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
    return fsds, cds, run_ensemble(fsds, cfg.ensemble_config())


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
    fsds, cds, q = _train(cfg)
    results = select_at_thresholds(q, cfg.delta_quantiles, estimator=cfg.estimator)
    out = Path(cfg.output_dir)
    for result in results:
        save_selection(result, out / _selection_filename(result.delta_quantile))
    write_csv(out / "selection_summary.csv", *selection_summary_table(results))
    if cds is not None:
        save_csv(cds, out / "cds.csv")
    _write_manifest(cfg, "select", extra={"q_shape": list(q.Q.shape)})
    logger.info("wrote %d selection files to %s", len(results), out)
    return 0


def _load_selections(cfg: RunConfig, args):
    directory = Path(args.selections) if args.selections else Path(cfg.output_dir)
    files = sorted(directory.glob("selection_delta_*.json"))
    if not files:
        raise UsageError(f"no selection_delta_*.json files in {directory}")
    return [load_selection(f) for f in files]


def _cmd_evaluate(args) -> int:
    cfg = _resolved_config(args)
    selections = _load_selections(cfg, args)
    selections.sort(key=lambda r: r.delta_quantile)
    cds_path = Path(args.cds) if args.cds else Path(cfg.output_dir) / "cds.csv"
    minority = "1" if args.cds is None else None  # cds.csv written by select uses 1 = minority
    cds = load_csv(cds_path, label="label", minority_label=minority)
    report = evaluate_selection(cds, selections, cfg.protocol())
    out = Path(cfg.output_dir)
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
    fsds, cds, q = _train(cfg)
    results = select_at_thresholds(q, cfg.delta_quantiles, estimator=cfg.estimator)
    # Chi-squared needs non-negative features: rank on the FSDS mapped into
    # [0, 1], which leaves a unit_interval FSDS unchanged to the bit.
    unit = LabeledDataset(apply_scaling(fit_scaling(fsds.X, "unit_interval"), fsds.X), fsds.y)
    matched = [
        (r.delta_quantile,
         chi2_rank(unit, r.n_selected) if r.n_selected > 0 else r.selected)
        for r in results
    ]
    protocol = cfg.protocol()
    reports = {
        "refsel": evaluate_selection(cds, results, protocol),
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
    fsds, _, q = _train(cfg)
    out = Path(cfg.output_dir)
    export_q_csv(q, out / "q_matrix.csv", fsds.feature_names)
    _write_manifest(cfg, "export-q", extra={"q_shape": list(q.Q.shape)})
    logger.info("wrote %dx%d error matrix to %s", q.n_rows, q.n_features + 1, out)
    return 0


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
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


if __name__ == "__main__":
    sys.exit(main())
