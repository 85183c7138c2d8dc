"""Byte-identity gate: the goldens recorded by the benchmark.

Reruns seeds 0-2 of every scenario through `guiflux run` at the length the
benchmark records them with, and one master seed of every benchmark
workload, and compares the SHA-256 of matrix.csv and trainlog.csv with
bench/goldens.json. The file is only read here;
`python3 bench/goldens.py record` is the one way to rewrite it.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from guiflux.cli import main
from guiflux.simulator import SCENARIOS

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from goldens import SCENARIO_CONFIG, SCENARIO_SEEDS  # noqa: E402
from workloads import GOLDENS_PATH, WORKLOADS, output_digests, write_config  # noqa: E402

GOLDENS = json.loads(GOLDENS_PATH.read_text())
SCENARIO_GOLDENS = GOLDENS["scenarios"]

# One master seed per workload. Train seed 3's matrix moves if evaluate
# scores the clipped box's center instead of its pre-clip hit point, which
# the scenario goldens cannot see; grid covers iou correctness, N=8 groups
# and beta 0.
WORKLOAD_MASTERS = {"train": 3, "eval": 0, "grid": 0}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_outputs_match_recorded_digests(tmp_path, scenario, seed):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SCENARIO_CONFIG, "scenario": scenario, "seeds": [seed]}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), str(out)]) == 0
    expected = SCENARIO_GOLDENS[scenario][str(seed)]
    for name in ("matrix.csv", "trainlog.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected[name], f"{scenario} seed {seed}: {name} moved"


@pytest.mark.parametrize("name, master", WORKLOAD_MASTERS.items())
def test_workload_outputs_match_recorded_digests(tmp_path, name, master):
    w = WORKLOADS[name]
    cfg = write_config(tmp_path / "config.json", w.config, master)
    out = tmp_path / "out"
    assert main([w.command, str(cfg), str(out)]) == 0
    expected = GOLDENS["workloads"][name][str(master)]
    assert output_digests(out, w.command) == expected, f"{name} seed {master} moved"
