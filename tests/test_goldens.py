"""Byte-identity gate: the scenario goldens recorded by the benchmark.

Reruns seeds 0-2 of every scenario through `guiflux run` at the length the
benchmark records them with, and compares the SHA-256 of matrix.csv and
trainlog.csv with bench/goldens.json. The file is only read here;
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
from workloads import GOLDENS_PATH  # noqa: E402

SCENARIO_GOLDENS = json.loads(GOLDENS_PATH.read_text())["scenarios"]


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
