"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of tier-1 (``pytest.ini`` collects ``tests`` and
``benchmarks`` only).  Every workload runs at a ~3 s smoke length, once
untraced and once traced, on two different seeds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402 - sibling module, needs the path above

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = "3"


def run_bench(*args: str, cwd: str = ROOT):
    """Run the benchmark command; returns ``(exit code, last stdout
    line parsed as JSON — or, when there is none, what it wrote to
    standard error)``."""
    proc = subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if result is not None else proc.stderr


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    # Seed differs with the mode, so two seeds pass the reference check
    # on every workload.
    code, result = run_bench(
        "--workload", workload, "--seed", str(11 + trace),
        "--seconds", SMOKE_SECONDS, "--trace", str(trace),
    )
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("fault", ["drop-delta", "drop-ref-batch"])
def test_a_lost_delta_or_reference_batch_fails_the_run(fault):
    code, result = run_bench(
        "--workload", "inproc-shared", "--seed", "5", "--seconds", "1",
        "--inject", fault,
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_without_the_program_the_command_fails_and_prints_no_result():
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "bench"),
            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
        )
        code, result = run_bench(
            "--workload", "inproc-tpch", "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not isinstance(result, dict)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.1)[0] == "unchanged"
    slower = [v * 0.8 for v in steady]
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "better"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "higher", 0.1)[0] == "unresolved"
