"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric BENCHMARK.json names, with its unit,
and a corrupted output file must be counted as a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in text), metric["name"]
    assert any(line.split()[:1] == ["failed_ops"] for line in text)


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _one_iteration(workdir):
    ctx = harness.Context(workload=workloads.tiny(workloads.WORKLOADS["planted_small"]),
                          seed=5, workdir=workdir)
    harness.set_up(ctx, 1)
    env = harness.child_env()
    ops = [harness.run_command(ctx, command, env) for command in harness.COMMANDS]
    harness.check_outputs(ctx, ops)
    assert harness.failed_share(ops) == 0, [op.error for op in ops]
    return ctx, ops


def _fresh(ctx, ops):
    """The same outputs checked as if they came from a first iteration."""
    ctx.hashes.clear()
    ctx.auroc = None
    for op in ops:
        op.error = ""


def test_corrupted_outputs_count_as_failed_ops(workdir):
    ctx, ops = _one_iteration(workdir)

    # Swap the lowest-delta feature into the top selection: still a valid
    # file, but no longer the top-n_selected of its delta.
    path = harness.checks.selection_path(ctx.out, workloads.LEVELS[-1])
    original = path.read_text(encoding="utf-8")
    doc = json.loads(original)
    lowest = min(range(len(doc["delta"])), key=doc["delta"].__getitem__)
    doc["selected"] = sorted(doc["selected"][1:] + [lowest])
    path.write_text(json.dumps(doc), encoding="utf-8")

    harness.check_outputs(ctx, ops)
    assert "differs from the first run" in ops[0].error
    assert harness.failed_share(ops) == pytest.approx(1 / 3)
    _fresh(ctx, ops)
    harness.check_outputs(ctx, ops)
    assert "top" in ops[0].error
    path.write_text(original, encoding="utf-8")

    q_path = ctx.out / "q_matrix.csv"
    lines = q_path.read_text(encoding="utf-8").splitlines()
    lines[1] = ",".join(["-1.0"] + lines[1].split(",")[1:])
    q_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _fresh(ctx, ops)
    harness.check_outputs(ctx, ops)
    assert [bool(op.error) for op in ops] == [False, False, True]
    assert "negative" in ops[2].error
