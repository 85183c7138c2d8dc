"""Byte-identity gate: the goldens recorded by the benchmark.

Reruns seeds 0-2 of every scenario through `guiflux run` at the length the
benchmark records them with, and one master seed of every benchmark
workload, and compares the SHA-256 of matrix.csv and trainlog.csv with
bench/goldens.json. The file is only read here;
`python3 bench/goldens.py record` is the one way to rewrite it. The
`point_distance` runs and the single runs at 8 samples per group, which
bench/goldens.json does not cover, keep their digests in this file. Every
case also runs with training draws made in blocks of 7 steps, so the block
boundaries fall mid-stage, and of 1 step, so each step is logged alone, and
with each form of `rewards.score_groups` forced at every batch width.
`metrics.json` and the three SVGs of `guiflux plot`, which no bench golden
hashes, keep digests in this file for a few runs.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from guiflux import harness, rewards
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

# (scenario, seed, length) -> (matrix.csv, trainlog.csv) digests under
# point_distance correctness: they pin TAU and the diversity sums. "short"
# is the scenario goldens' length, "default" the config's. The
# resolution_flux run saturates evaluate's sigmoid, where exp overflowed.
POINT_DISTANCE_GOLDENS = {
    ("domain_flux", 0, "short"): (
        "03a8bce3c570bbf27c4bb81cb98d47ce9e5ad44a3e9dcc68845add6d1f188d1b",
        "25f8206cb49814d5fb286c5b20cbb53ce695167e4717b6ea1d99ae23ce564ef3",
    ),
    ("domain_flux", 1, "short"): (
        "426b23d2730020b625fc3b1e4767c7689d8986272dec997b5196311a3da992e2",
        "c2f8c01921c8aed7b6651004c2b4ae5d9724effccddb950ae54868e12b583ce8",
    ),
    ("domain_flux", 2, "short"): (
        "3bd75532e60389169517ab720f1e2ca1404e9704c16bece53c7767fdf7e73b6a",
        "e567900606eac1f4e9e19d1a4ee23a5b536a5b064253e2aaf7a1ee4ff1f5978a",
    ),
    ("resolution_flux", 0, "default"): (
        "7060343cd3c65a2c3e414aa2732bc34ce568e150bc833dc4351b1cdc5a029285",
        "0e846893f197e154f8690eb0c3ca2f5a74f49b177ec9dba986a9bf576d7412ff",
    ),
}
LENGTHS = {"short": SCENARIO_CONFIG, "default": {}}

# (scenario, seed, correctness_kind) -> (matrix.csv, trainlog.csv) digests of
# a single `guiflux run` at n_samples 8 and the scenario goldens' length. The
# bench goldens meet N=8 only inside a 16-run grid; a numpy sum over groups of
# 8 or more may round differently when the run axis has length 1, so these
# pin the batch of one.
EIGHT_SAMPLE_GOLDENS = {
    ("domain_flux", 0, "iou"): (
        "00f055a6d20556710b45e175ec462f6dde939e50da5abcee141c0480580b47b6",
        "c42823213157aea13bf3300432baa7533bed43cd8142d881be963a9124ec8f8a",
    ),
    ("domain_flux", 0, "gaussian_dense"): (
        "53e69669dc2ae578f504e11fd740d6c3bdcafca20503414b17b58a427bda534f",
        "314f8d76e7cefcb88aa299ed820d469fdc8847c768de074f9a4a2fbe89dd9e36",
    ),
    ("joint", 1, "gaussian_dense"): (
        "9e26158a1746274b53f5a18a4e5616d600f5f96ab205f61e73b74e8e9555478a",
        "ea28348bb98da874a17761c917c536f42a7ebafe7f73bab2d6e9b858e4cd5887",
    ),
}


# (scenario, seed, correctness_kind) -> digests of DERIVED_FILES after
# `guiflux run` and `guiflux plot` at the scenario goldens' length: they pin
# the metrics and plots computed from the matrix and the trainlog. The joint
# run changes task at most steps, so its rewards.svg draws many boundaries.
DERIVED_FILES = ("metrics.json", "rewards.svg", "trend.svg", "transfer.svg")
DERIVED_GOLDENS = {
    ("domain_flux", 0, "gaussian_dense"): (
        "a79b2e3e171a4a903123503d760101f84f311f95c80edf51866c5861cf30b9dd",
        "d5eee6b4567f248cc94868e33b4608df2a1dd2a1e5b36c16b4a09e672c5d86df",
        "fb9fca11301da4bf43e5bd1e04fa14fcae446e45b693cc5e8ba07a8ebdc13957",
        "eb1863c277e431600df794011409e356938605a80231cfcd7788392cf74f9873",
    ),
    ("joint", 1, "gaussian_dense"): (
        "9d3dae443296e13cfb46551c388af521c91ddc886784c5ffa69cd5611e66572c",
        "c0289e46bc356f879e4810bc696abb642ff6a3915ccfec1db24da8e21eeab6da",
        "a5f631d85b62a35248b5f76510086bfbbdd958460997e517b087b51789e53551",
        "bd9d2a1ca504b7f65e7c81a061ff2d7baefbdc68a304d7a3247164622fac036b",
    ),
    ("resolution_flux", 2, "point_distance"): (
        "83f8420626031ea58057338a0b3df2ca0c4ece29066950d6068ea8f48702bac4",
        "f37bfc4c9d524a4c6f7376e4b586fbdcb6b698766715e6db061031b4309ae5c9",
        "66587bd15a975167f656caf1acab0aba96e4bb517113e98ae882ce8a5e6a7e3f",
        "927bf2b8268ffc2b314fa1d359533b94b115636f4008b91dea69f778dfcb4213",
    ),
}


def _run_digests(tmp_path, doc, names=("matrix.csv", "trainlog.csv"), plot=False):
    """SHA-256 of each of `names` in the directory `guiflux run` writes for
    `doc`, after `guiflux plot` on it when `plot` is set."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(cfg), str(out)]) == 0
    if plot:
        assert main(["plot", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_outputs_match_recorded_digests(tmp_path, scenario, seed):
    doc = {**SCENARIO_CONFIG, "scenario": scenario, "seeds": [seed]}
    digests = _run_digests(tmp_path, doc)
    expected = SCENARIO_GOLDENS[scenario][str(seed)]
    for name, digest in zip(("matrix.csv", "trainlog.csv"), digests):
        assert digest == expected[name], f"{scenario} seed {seed}: {name} moved"


@pytest.mark.parametrize("scenario, seed, length", POINT_DISTANCE_GOLDENS)
def test_point_distance_outputs_match_recorded_digests(tmp_path, scenario, seed, length):
    doc = {
        **LENGTHS[length], "scenario": scenario, "seeds": [seed],
        "reward": {"correctness_kind": "point_distance"},
    }
    expected = POINT_DISTANCE_GOLDENS[scenario, seed, length]
    assert _run_digests(tmp_path, doc) == expected, f"{scenario} seed {seed} moved"


@pytest.mark.parametrize("scenario, seed, kind", EIGHT_SAMPLE_GOLDENS)
def test_eight_sample_run_outputs_match_recorded_digests(tmp_path, scenario, seed, kind):
    doc = {
        **SCENARIO_CONFIG, "scenario": scenario, "seeds": [seed],
        "optim": {"n_samples": 8}, "reward": {"correctness_kind": kind},
    }
    expected = EIGHT_SAMPLE_GOLDENS[scenario, seed, kind]
    assert _run_digests(tmp_path, doc) == expected, f"{scenario} seed {seed} {kind} moved"


@pytest.mark.parametrize("scenario, seed, kind", DERIVED_GOLDENS)
def test_metrics_and_plots_match_recorded_digests(tmp_path, scenario, seed, kind):
    doc = {
        **SCENARIO_CONFIG, "scenario": scenario, "seeds": [seed],
        "reward": {"correctness_kind": kind},
    }
    expected = DERIVED_GOLDENS[scenario, seed, kind]
    digests = _run_digests(tmp_path, doc, DERIVED_FILES, plot=True)
    assert digests == expected, f"{scenario} seed {seed} {kind} moved"


@pytest.mark.parametrize("name, master", WORKLOAD_MASTERS.items())
def test_workload_outputs_match_recorded_digests(tmp_path, name, master):
    w = WORKLOADS[name]
    cfg = write_config(tmp_path / "config.json", w.config, master)
    out = tmp_path / "out"
    assert main([w.command, str(cfg), str(out)]) == 0
    expected = GOLDENS["workloads"][name][str(master)]
    assert output_digests(out, w.command) == expected, f"{name} seed {master} moved"


# Every case above with its arguments, under the id of each.
CASES = [
    ("-".join(map(str, (kind, *args))), case, args)
    for kind, case, cases in (
        ("scenario", test_outputs_match_recorded_digests,
         [(scenario, seed) for scenario in SCENARIOS for seed in SCENARIO_SEEDS]),
        ("point", test_point_distance_outputs_match_recorded_digests, POINT_DISTANCE_GOLDENS),
        ("eight", test_eight_sample_run_outputs_match_recorded_digests, EIGHT_SAMPLE_GOLDENS),
        ("derived", test_metrics_and_plots_match_recorded_digests, DERIVED_GOLDENS),
        ("workload", test_workload_outputs_match_recorded_digests, WORKLOAD_MASTERS.items()),
    )
    for args in cases
]

# Every case at two draw-block sizes, with the id suffix of each: 7 divides
# no stage's step count, and a block of 1 logs each step's KL and objective
# alone rather than stacked over steps.
SMALL_DRAW_BLOCKS = ((7, ""), (1, "-block1"))


@pytest.mark.parametrize("case, args, block", [
    pytest.param(case, args, block, id=case_id + suffix)
    for block, suffix in SMALL_DRAW_BLOCKS
    for case_id, case, args in CASES
])
def test_small_draw_blocks_keep_every_digest(tmp_path, monkeypatch, case, args, block):
    monkeypatch.setattr(harness, "DRAW_BLOCK", block)
    case(tmp_path, *args)


# Every case with `score_groups` held to one form at every batch width: the
# array form from 0 boxes on, the scalar form at any width. The two give the
# same bits, so the threshold between them defines no output.
SCORING_FORMS = ((0, "array"), (math.inf, "scalar"))


@pytest.mark.parametrize("case, args, threshold", [
    pytest.param(case, args, threshold, id=f"{case_id}-{form}")
    for threshold, form in SCORING_FORMS
    for case_id, case, args in CASES
])
def test_both_scoring_forms_keep_every_digest(tmp_path, monkeypatch, case, args, threshold):
    monkeypatch.setattr(rewards, "ARRAY_MIN_BOXES", threshold)
    case(tmp_path, *args)
