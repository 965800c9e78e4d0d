"""Closed-loop end-to-end measurement and the separate traced run.

One client runs ``select``, ``evaluate`` and ``export-q`` in sequence, each
as a child process started only after the previous one exited, and checks
what each wrote. The traced run calls ``refsel.cli.main`` in-process: an
untimed warm-up pass, then passes with count-only wrappers (the untraced
baseline) alternating with passes that record spans.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import refsel.cli
from refsel.ensemble import run_ensemble

import checks
import spans
import workloads

COMMANDS = ("select", "evaluate", "export-q")
SETUP_REPEATS = 5
MIN_ITERATIONS = 2  # the repeat-hash check needs a second iteration
STARTUP_REPEATS = 3
# Untraced/traced pass pairs behind trace.overhead_ratio; per-layer metrics
# come from the first traced pass.
OVERHEAD_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "select_s": "s",
    "evaluate_s": "s",
    "export_q_s": "s",
    "select_rss_mb": "MiB",
    "evaluate_rss_mb": "MiB",
    "export_q_rss_mb": "MiB",
    "planted_recall": "ratio",
    "auroc_mean": "auroc",
}

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "config.load_run_config_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_mb_per_s": "MB/s",
    "data.save_csv_s": "s",
    "data.scaling_s": "s",
    "data.build_fsds_cds_s": "s",
    "data.export_q_csv_s": "s",
    "data.export_q_csv_mb_per_s": "MB/s",
    "sampling.build_component_split_s": "s",
    "sampling.build_component_split_calls": "count",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.adam_step_s": "s",
    "nn.train_self_s": "s",
    "nn.reconstruction_errors_s": "s",
    "nn.from_config_s": "s",
    "nn.adam_step_calls": "count",
    "nn.final_loss": "loss",
    "nn.gflop_computed": "GFLOP",
    "nn.gflop_per_s": "GFLOP/s",
    "nn.adam_gb_computed": "GB",
    "nn.adam_gb_per_s": "GB/s",
    "ensemble.run_ensemble_s": "s",
    "ensemble.run_ensemble_self_s": "s",
    "ensemble.q_mb_computed": "MB",
    "ensemble.select_at_thresholds_s": "s",
    "ensemble.parallel_speedup": "ratio",
    "evaluate.evaluate_selection_s": "s",
    "evaluate.evaluate_selection_self_s": "s",
    "evaluate.stratified_split_s": "s",
    "classifiers.logistic_regression_fit_s": "s",
    "classifiers.logistic_regression_iterations": "count",
    "classifiers.logistic_regression_converged_ratio": "ratio",
    "classifiers.knn_predict_s": "s",
    "classifiers.gaussian_nb_s": "s",
    "metrics.auroc_s": "s",
    "metrics.auroc_calls": "count",
    "metrics.sensitivity_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Op:
    """One command invocation; ``error`` is empty when it passed every check."""

    command: str
    seconds: float
    rss_mib: float = None
    error: str = ""


@dataclass
class Context:
    workload: workloads.Workload
    seed: int
    workdir: Path
    config: Path = None
    planted: list = None
    hashes: dict = dataclasses.field(default_factory=dict)
    recall: float = None
    auroc: float = None
    problems: list = dataclasses.field(default_factory=list)

    @property
    def out(self) -> Path:
        return self.workdir / "out"


def _argv(ctx: Context, command: str):
    argv = [command, "--config", str(ctx.config)]
    if command != "evaluate":  # evaluate trains nothing and takes no --parallelism
        argv += ["--parallelism", str(workloads.PARALLELISM)]
    return argv


# Runs the CLI as ``python -m refsel.cli`` does, then records the peak RSS
# of this process image. ru_maxrss from wait4 would not do: Linux carries
# the RSS of the forking parent (the benchmark, with numpy and the set-up
# data loaded) over into the child's ru_maxrss at exec.
_CHILD = """
import runpy, sys
rss_path = sys.argv.pop(1)
try:
    runpy.run_module("refsel.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(rss_path, "w", encoding="ascii") as out:
        out.write(peak_kib)
"""


def run_command(ctx: Context, command: str, env) -> Op:
    """Run one CLI command as a child process; time it and take its peak RSS."""
    log = ctx.workdir / f"{command}.log"
    rss_path = ctx.workdir / f"{command}.rss"
    rss_path.unlink(missing_ok=True)
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(rss_path), *_argv(ctx, command)],
            stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ctx.workdir,
        )
        seconds = time.perf_counter() - start
    op = Op(command, seconds)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        op.error = f"exit code {proc.returncode}: {' '.join(tail)}"
    elif rss_path.exists():
        op.rss_mib = int(rss_path.read_text(encoding="ascii")) / 1024.0
    else:
        op.error = "child wrote no peak RSS"
    return op


def _same_as_first(ctx: Context, key: str, paths, first_check) -> None:
    digest = checks.sha256(paths)
    if key not in ctx.hashes:
        first_check()
        ctx.hashes[key] = digest
    elif digest != ctx.hashes[key]:
        raise checks.CheckError(f"{key} output differs from the first run's")


def check_outputs(ctx: Context, ops) -> None:
    """Apply the output checks, marking each failing invocation with its error.

    Selection and Q files must hash the same as the first run's; content is
    checked in full the first time a file set passes.
    """
    w = ctx.workload
    levels = workloads.LEVELS
    by_command = {op.command: op for op in ops}

    def first_selection():
        delta = checks.check_selections(ctx.out, levels, w.n_features)
        ctx.recall = checks.planted_recall(delta, ctx.planted)

    def evaluate():
        roc = checks.check_report(ctx.out, len(levels), len(workloads.CLASSIFIERS),
                                  workloads.TRIALS)
        if ctx.auroc is not None and roc != ctx.auroc:
            raise checks.CheckError(f"auroc_mean {roc!r} != first run's {ctx.auroc!r}")
        ctx.auroc = roc

    q_path = ctx.out / "q_matrix.csv"
    steps = {
        "select": lambda: _same_as_first(
            ctx, "selection", [checks.selection_path(ctx.out, lv) for lv in levels],
            first_selection),
        "evaluate": evaluate,
        "export-q": lambda: _same_as_first(
            ctx, "q_matrix", [q_path],
            lambda: checks.check_q(q_path, w.q_rows, w.n_features)),
    }
    for command, step in steps.items():
        op = by_command.get(command)
        if op is None or op.error:
            continue
        try:
            step()
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"


def failed_share(ops) -> float:
    return sum(1 for op in ops if op.error) / len(ops)


def _median(values):
    return statistics.median(values) if values else float("nan")


def set_up(ctx: Context, repeats: int):
    """Write the inputs ``repeats`` times; return the set-up times."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        ctx.config, ctx.planted = workloads.set_up(ctx.workload, ctx.seed, ctx.workdir)
        times.append(time.perf_counter() - start)
        digests.add(checks.sha256([ctx.workdir / "data.csv", ctx.config]))
    if len(digests) != 1:
        ctx.problems.append("set-up wrote different inputs for the same seed")
    return times


def child_env():
    env = dict(os.environ)
    src = str(Path(refsel.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def measure_end_to_end(ctx: Context, seconds: float):
    """Closed loop of child-process commands for ``seconds``; metrics and ops."""
    setup_times = set_up(ctx, SETUP_REPEATS)
    env = child_env()
    ops = []
    start = time.perf_counter()
    iterations = 0
    while iterations < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        batch = [run_command(ctx, command, env) for command in COMMANDS]
        check_outputs(ctx, batch)
        ops.extend(batch)
        iterations += 1

    def per_command(command, field):
        values = (getattr(op, field) for op in ops if op.command == command)
        return [v for v in values if v is not None]

    samples = {"setup_s": setup_times}
    for command in COMMANDS:
        stem = command.replace("-", "_")
        samples[f"{stem}_s"] = per_command(command, "seconds")
        samples[f"{stem}_rss_mb"] = per_command(command, "rss_mib")
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["planted_recall"] = ctx.recall if ctx.recall is not None else float("nan")
    metrics["auroc_mean"] = ctx.auroc if ctx.auroc is not None else float("nan")
    return metrics, samples, ops


def _run_in_process(ctx: Context):
    ops = []
    for command in COMMANDS:
        start = time.perf_counter()
        try:
            # Looked up on the module at call time, so a patched main is traced.
            returncode = refsel.cli.main(_argv(ctx, command))
            error = f"exit code {returncode}" if returncode != 0 else ""
        except Exception as exc:  # a crash is a failed invocation, like a child's
            error = f"raised {exc!r}"
        ops.append(Op(command, time.perf_counter() - start, error=error))
    check_outputs(ctx, ops)
    return ops


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _startup_seconds(env):
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import refsel.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_layers(ctx: Context):
    """Traced run: per-layer metrics (see PER_LAYER_UNITS) and all ops run."""
    set_up(ctx, 1)
    startup = _startup_seconds(child_env())
    handler = logging.FileHandler(ctx.workdir / "in_process.log", encoding="utf-8")
    root = logging.getLogger()
    saved_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        # The first in-process pass pays one-off costs (the allocator growing
        # the heap for Q and the CSV text) that would otherwise be charged to
        # whichever pass runs first, so it is not timed.
        ops = _run_in_process(ctx)
        passes = []  # (tracer, ops), alternating untraced and traced
        for _ in range(OVERHEAD_PAIRS):
            for timing in (False, True):
                tracer = spans.Tracer(timing=timing)
                with tracer.patched():
                    passes.append((tracer, _run_in_process(ctx)))
                ops += passes[-1][1]
    finally:
        root.removeHandler(handler)
        root.setLevel(saved_level)
        handler.close()

    traced = passes[1][0]
    for tracer, _ in passes:
        for name in spans.EXACT_COUNTS:
            if tracer.counts[name] != traced.counts[name]:
                ctx.problems.append(f"{name} count {tracer.counts[name]} in one pass, "
                                    f"{traced.counts[name]} in another")

    # Serial baseline on the select command's own inputs, patches removed.
    speedup = float("nan")
    if traced.values["ensemble.args"]:
        data, cfg = traced.values["ensemble.args"][0]
        serial_s, serial_q = _timed(run_ensemble, data, dataclasses.replace(cfg, parallelism=1))
        parallel_s, parallel_q = _timed(run_ensemble, data, cfg)
        speedup = serial_s / parallel_s
        if not np.array_equal(serial_q.Q, parallel_q.Q):
            ctx.problems.append("run_ensemble output depends on parallelism")

    base_s = sum(op.seconds for tracer, run in passes if not tracer.timing for op in run)
    traced_s = sum(op.seconds for tracer, run in passes if tracer.timing for op in run)
    metrics = layer_metrics(traced, startup)
    metrics["ensemble.parallel_speedup"] = speedup
    metrics["trace.overhead_ratio"] = (traced_s - base_s) / base_s
    return metrics, ops


def layer_metrics(tracer: spans.Tracer, startup_s: float) -> dict:
    total = tracer.inclusive_seconds
    self_s = tracer.self_seconds
    count = tracer.counts
    values = tracer.values

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else float("nan")

    flop = sum(values["nn.flop"])
    adam_bytes = sum(values["nn.adam_bytes"])
    fits = count["classifiers.logistic_regression_fit"]
    return {
        "cli.startup_s": startup_s,
        "cli.self_s": self_s("cli.main"),
        "config.load_run_config_s": total("config.load_run_config"),
        "data.load_csv_s": total("data.load_csv"),
        "data.load_csv_mb_per_s": rate(sum(values["data.load_csv_bytes"]) / 1e6,
                                       total("data.load_csv")),
        "data.save_csv_s": total("data.save_csv"),
        "data.scaling_s": total("data.scaling"),
        "data.build_fsds_cds_s": total("data.build_fsds_cds"),
        "data.export_q_csv_s": total("data.export_q_csv"),
        "data.export_q_csv_mb_per_s": rate(sum(values["data.export_q_csv_bytes"]) / 1e6,
                                           total("data.export_q_csv")),
        "sampling.build_component_split_s": total("sampling.build_component_split"),
        "sampling.build_component_split_calls": count["sampling.build_component_split"],
        "nn.forward_s": total("nn.forward"),
        "nn.backward_s": total("nn.backward"),
        "nn.adam_step_s": total("nn.adam_step"),
        "nn.train_self_s": self_s("nn.train"),
        "nn.reconstruction_errors_s": total("nn.reconstruction_errors"),
        "nn.from_config_s": total("nn.from_config"),
        "nn.adam_step_calls": count["nn.adam_step"],
        "nn.final_loss": _median(values["nn.final_loss"]),
        "nn.gflop_computed": flop / 1e9,
        "nn.gflop_per_s": rate(flop / 1e9, total("nn.forward") + total("nn.backward")),
        "nn.adam_gb_computed": adam_bytes / 1e9,
        "nn.adam_gb_per_s": rate(adam_bytes / 1e9, total("nn.adam_step")),
        "ensemble.run_ensemble_s": total("ensemble.run_ensemble"),
        "ensemble.run_ensemble_self_s": self_s("ensemble.run_ensemble"),
        "ensemble.q_mb_computed": max(values["ensemble.q_bytes"], default=0) / 1e6,
        "ensemble.select_at_thresholds_s": total("ensemble.select_at_thresholds"),
        "evaluate.evaluate_selection_s": total("evaluate.evaluate_selection"),
        "evaluate.evaluate_selection_self_s": self_s("evaluate.evaluate_selection"),
        "evaluate.stratified_split_s": total("evaluate.stratified_split"),
        "classifiers.logistic_regression_fit_s": total("classifiers.logistic_regression_fit"),
        "classifiers.logistic_regression_iterations": count[spans.LR_ITERATIONS],
        "classifiers.logistic_regression_converged_ratio": rate(
            len(values["classifiers.lr_converged"]), fits),
        "classifiers.knn_predict_s": total("classifiers.knn_predict"),
        "classifiers.gaussian_nb_s": total("classifiers.gaussian_nb"),
        "metrics.auroc_s": total("metrics.auroc"),
        "metrics.auroc_calls": count["metrics.auroc"],
        "metrics.sensitivity_s": total("metrics.sensitivity"),
    }


def machine_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    root = Path(refsel.cli.__file__).resolve().parents[2]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _line(name, value, unit, note=""):
    print(f"  {name:<48} {value:>14.6g} {unit:<8} {note}".rstrip())


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workroot: Path) -> dict:
    """Run one workload and print the human-readable report; return the result."""
    w = workloads.WORKLOADS[workload_name]
    if tiny:
        w = workloads.tiny(w)
    workdir = workroot / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workload=w, seed=seed, workdir=workdir)
    try:
        print("machine " + json.dumps(machine_block(), sort_keys=True))
        print(f"workload {workload_name} (seed {seed}, tiny={tiny}): {w.why}")
        if trace:
            metrics, ops = measure_layers(ctx)
            units = PER_LAYER_UNITS
            print("per-layer metrics (traced run; times summed over threads):")
            for name, unit in units.items():
                _line(name, metrics[name], unit)
        else:
            metrics, samples, ops = measure_end_to_end(ctx, seconds)
            units = END_TO_END_UNITS
            print("end-to-end metrics (untraced, closed loop, one client):")
            for name, unit in units.items():
                note = ""
                if samples.get(name):
                    note = (f"median of {len(samples[name])}, min {min(samples[name]):.4g}, "
                            f"max {max(samples[name]):.4g}")
                _line(name, metrics[name], unit, note)
        failed = sum(1 for op in ops if op.error)
        _line("failed_ops", failed_share(ops), "ratio", f"{failed} of {len(ops)} invocations")
        for op in ops:
            if op.error:
                print(f"FAILED {op.command}: {op.error}")
        for problem in ctx.problems:
            print(f"FAILED self-check: {problem}")
        return {
            "correct": failed == 0 and not ctx.problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": _finite_or_none(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
