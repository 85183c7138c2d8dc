"""Acceptance suite: every release gate runs here at its stated tolerance.

The numerical gates (1-5, 12, 13) are exact-tolerance oracle checks. The
behavioral gates (6-11) run the full continual experiment on the default
configuration over ten paired seeds and check the directional findings the
stack is built to reproduce. One PASS line is printed per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import guiflux.rewards as rewards_mod
from guiflux import verify
from guiflux.cli import main
from guiflux.harness import RunConfig, ablate, reward_trend, run_continual
from guiflux.persistence import compute_metrics, read_matrix, read_trainlog
from guiflux.policy import GroundingPolicy, grpo_advantage
from guiflux.rewards import bhattacharyya

SEEDS = tuple(range(10))


def ok(criterion: int, text: str):
    print(f"ACCEPT-{criterion:02d} PASS  {text}")


# ---------------------------------------------------------------- experiment

# Each arm is the ablation grid's cell at scale point (1, 1).
ARMS = {
    "full": "full_kl1_a1_g1",
    "base": "neither_kl1_a1_g1",
    "apr": "apr_only_kl1_a1_g1",
    "arr": "arr_only_kl1_a1_g1",
    "nokl": "full_kl0_a1_g1",
}
CELLS = {cell.cell_id: cell.cfg for cell in ablate(RunConfig(seeds=SEEDS))}


def arm_config(arm: str) -> RunConfig:
    return CELLS[ARMS[arm]]


@pytest.fixture(scope="module")
def experiment():
    """All arms on domain_flux over the paired seeds, plus wall-clock times."""
    out = {arm: {"final": [], "matrix": [], "trend": []} for arm in ARMS}
    times = {}
    for arm in ARMS:
        cfg = arm_config(arm)
        t0 = time.perf_counter()
        for seed in SEEDS:
            matrix, records = run_continual(cfg, seed=seed)
            out[arm]["final"].append(matrix.final_average())
            out[arm]["matrix"].append(matrix)
            out[arm]["trend"].append(reward_trend(records, task=0))
        times[arm] = time.perf_counter() - t0
    out["times"] = times
    return out


@pytest.fixture(scope="module")
def reversed_experiment():
    out = {}
    for arm in ("full", "base"):
        cfg = replace(arm_config(arm), scenario="domain_flux_reversed")
        out[arm] = [run_continual(cfg, seed=s)[0].final_average() for s in SEEDS]
    return out


# ------------------------------------------------------------ oracle gates


def test_criterion_01_center_spread_oracle():
    t0 = time.perf_counter()
    result = verify.check_center_spread(np.random.default_rng(101))
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 1.0
    ok(1, f"center-spread matches brute force, {result.detail} in {elapsed:.2f}s")


def test_criterion_02_bhattacharyya_quadrature():
    a = (0.31, 0.62, 0.004, 0.009)
    assert abs(bhattacharyya(a, a)) <= 1e-12
    b = (0.41, 0.42, 0.004, 0.009)
    maha8 = ((0.1 ** 2) / 0.004 + (0.2 ** 2) / 0.009) / 8.0
    assert abs(bhattacharyya(a, b) - maha8) <= 1e-12

    t0 = time.perf_counter()
    result = verify.check_bhattacharyya(np.random.default_rng(verify.VERIFY_SEED + 1))
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 30.0
    ok(2, f"{result.detail} in {elapsed:.1f}s; exact identities at 1e-12")


def test_criterion_03_region_separation_oracle():
    result = verify.check_region_separation(np.random.default_rng(103))
    assert result.passed, result.detail
    ok(3, f"pairwise double-loop oracle {result.detail} over 1000 groups")


def test_criterion_04_advantage_contract():
    result = verify.check_advantage(np.random.default_rng(104), n_cases=1000)
    assert result.passed, result.detail
    assert (grpo_advantage(np.full(6, 3.3)) == 0.0).all()
    ok(4, "advantages have mean 0 +/- 1e-9, population std 1 +/- 1e-9, zeros when degenerate")


def test_criterion_05_gradient_check():
    result = verify.check_gradient(np.random.default_rng(105))
    assert result.passed, result.detail
    ok(5, f"analytic gradient vs central differences, {result.detail}")


# -------------------------------------------------------- behavioral gates


def test_criterion_06_continual_benefit(experiment):
    full = np.array(experiment["full"]["final"])
    base = np.array(experiment["base"]["final"])
    wins = int((full >= base).sum())
    delta = float((full - base).mean())
    runtime = experiment["times"]["full"] + experiment["times"]["base"]
    assert wins >= 7, f"full >= base in only {wins}/10 seeds"
    assert delta > 0.0, f"mean improvement {delta:+.4f}"
    assert runtime < 300.0, f"20 paired runs took {runtime:.0f}s"
    ok(6, f"full >= baseline in {wins}/10 seeds, mean delta {delta:+.4f}, {runtime:.0f}s")


def test_criterion_07_component_ablation(experiment):
    full = float(np.mean(experiment["full"]["final"]))
    apr = float(np.mean(experiment["apr"]["final"]))
    arr = float(np.mean(experiment["arr"]["final"]))
    assert full >= apr, f"full {full:.4f} < point-reward-only {apr:.4f}"
    assert full >= arr, f"full {full:.4f} < region-reward-only {arr:.4f}"
    ok(7, f"full {full:.4f} >= apr-only {apr:.4f} and >= arr-only {arr:.4f}")


def test_criterion_08_kl_ablation(experiment):
    kl_on = float(np.mean(experiment["full"]["final"]))
    kl_off = float(np.mean(experiment["nokl"]["final"]))
    assert kl_on > kl_off, f"KL on {kl_on:.4f} vs off {kl_off:.4f}"
    ok(8, f"beta=0.04 beats beta=0 on seed means: {kl_on:.4f} > {kl_off:.4f}")


def test_criterion_09_reward_anticorrelation(experiment):
    trends = experiment["full"]["trend"]
    negatives = sum(1 for t in trends if t is not None and t < 0.0)
    assert negatives >= 7, f"negative trend in only {negatives}/10 seeds: {trends}"
    ok(9, f"diversity/correctness Pearson r negative in {negatives}/10 seeds")


def test_criterion_10_forward_transfer():
    # Train ONLY task 1, to convergence, then compare zero-shot accuracy on
    # the two not-yet-trained tasks between the full and correctness-only
    # arms on seed means (paired seeds, aggregated over the future tasks).
    from guiflux.harness import STREAM_EVAL, child_rng, evaluate, train_stage

    def stage1_future_accuracy(cfg: RunConfig, seed: int) -> float:
        tasks = cfg.tasks
        policy = GroundingPolicy.zeros(tasks[0].state_dim, cfg.optim)
        policy = train_stage(policy, tasks[:1], cfg, [], seed, 0)
        row, _, _ = evaluate(policy, tasks, cfg.eval_episodes, child_rng(seed, STREAM_EVAL, 1))
        return float(row[1:].mean())

    steps = 1300  # task 1 trained to convergence for the transfer snapshot
    full_cfg = replace(arm_config("full"), steps_per_task=steps)
    base_cfg = replace(arm_config("base"), steps_per_task=steps)
    full = np.array([stage1_future_accuracy(full_cfg, s) for s in SEEDS])
    base = np.array([stage1_future_accuracy(base_cfg, s) for s in SEEDS])
    assert full.mean() > base.mean(), (
        f"stage-1 zero-shot on future tasks: full {full.mean():.4f} vs base {base.mean():.4f}"
    )
    ok(10, f"stage-1 zero-shot future-task accuracy {full.mean():.4f} > baseline {base.mean():.4f}")


def test_criterion_11_reversed_sequence(reversed_experiment):
    full = float(np.mean(reversed_experiment["full"]))
    base = float(np.mean(reversed_experiment["base"]))
    assert full >= base, f"reversed order: full {full:.4f} < base {base:.4f}"
    ok(11, f"reversed task order keeps full >= baseline: {full:.4f} vs {base:.4f}")


# ------------------------------------------------------------ system gates


def test_criterion_12_determinism_and_round_trip(tmp_path):
    import json

    cfg_doc = {"steps_per_task": 40, "eval_episodes": 200, "seeds": [3]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), str(a)]) == 0
    assert main(["run", str(cfg_path), str(b)]) == 0
    assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()

    stored = json.loads((a / "metrics.json").read_text())
    again = compute_metrics(read_matrix(a / "matrix.csv"), read_trainlog(a / "trainlog.csv"))
    assert math.isclose(stored["final_average"], again["final_average"], abs_tol=1e-12)
    for x, y in zip(stored["stage_averages"], again["stage_averages"]):
        assert math.isclose(x, y, abs_tol=1e-12)
    for dx, dy in zip(stored["forward_transfer"], again["forward_transfer"]):
        assert dx["stage"] == dy["stage"] and dx["task"] == dy["task"]
        assert math.isclose(dx["delta"], dy["delta"], abs_tol=1e-12)
    for dx, dy in zip(stored["forgetting"], again["forgetting"]):
        assert math.isclose(dx["drop"], dy["drop"], abs_tol=1e-12)
    ok(12, "identical config+seed gives byte-identical matrix.csv; metrics recompute at 1e-12")


def test_criterion_13_verify_negative_controls(monkeypatch, capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5

    spread, bhat, sep = (
        rewards_mod.center_spread, rewards_mod.bhattacharyya, rewards_mod.region_separation
    )
    mutations = [
        ("center_spread", lambda g: 1.000001 * spread(g), "center-spread"),
        ("bhattacharyya", lambda a, b: 1.1 * bhat(a, b), "bhattacharyya"),
        ("bhattacharyya", lambda a, b: (1.0 + 1e-6) * bhat(a, b), "bhattacharyya"),
        ("region_separation", lambda g, k, e: sep(g, k, e) + 1e-6, "region-separation"),
    ]
    for attr, mutant, name in mutations:
        with monkeypatch.context() as m:
            m.setattr(rewards_mod, attr, mutant)
            assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"FAIL  {name}") for line in lines), lines
        assert name in lines[-1]
    ok(13, "verify exits 0 clean and 1 under each injected reward-constant mutation")
