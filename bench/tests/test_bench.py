"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest bench/tests -q

Each case starts bench/run.py in a subprocess at minimum size (one
measured operation after the warm-up), as the benchmark's users do.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DECLARED = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache")


def bench(cwd: Path, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dst: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, dst / path, ignore=IGNORE)
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src", ignore=IGNORE)
    return dst


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimum_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in DECLARED[trace]}
    for name, unit in units.items():
        assert any(
            line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
            for line in proc.stdout.splitlines()
        ), name
    values = {name: m["value"] for name, m in res["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    else:
        # Self times of all spans add up to the traced operation's wall time.
        self_sum = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert self_sum == pytest.approx(values["trace.op_wall_s"], rel=1e-9)


def test_count_metrics_repeat_exactly():
    counted = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bytes")]
    first, second = (result(bench(ROOT, "grid", 1, seed=3))["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["policy.grpo_advantage.zero_frac"] == second["policy.grpo_advantage.zero_frac"]


def test_wrong_golden_fails_operations(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=True)
    goldens_path = checkout / "bench" / "goldens.json"
    goldens = json.loads(goldens_path.read_text())
    entry = goldens["workloads"]["train"]["0"]
    entry["matrix.csv"] = "0" * 64
    goldens_path.write_text(json.dumps(goldens))
    proc = bench(checkout, "train", 0)
    res = result(proc)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0
    assert f"context failed_frac = {res['failed']}/{res['attempted']}" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    proc = bench(checkout, "train", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
