import math

import numpy as np
import pytest

from guiflux.harness import (
    AccuracyMatrix,
    RunConfig,
    TrainRecord,
    ablate,
    evaluate,
    forgetting,
    forward_transfer,
    reward_trend,
    run_continual,
    train_stage,
)
from guiflux.policy import GroundingPolicy, OptimConfig
from guiflux.rewards import RewardConfig
from guiflux.simulator import make_sequence

from conftest import oracle_policy


def tiny_config(**kw):
    defaults = dict(
        scenario="domain_flux",
        steps_per_task=12,
        eval_episodes=60,
        optim=OptimConfig(),
        reward=RewardConfig(),
        seeds=(0,),
        scale_points=((1.0, 1.0),),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def make_matrix(overall, names=None):
    overall = np.asarray(overall, dtype=float)
    names = names or [f"t{i}" for i in range(overall.shape[1])]
    labels = ["untrained"] + [f"stage{i}" for i in range(1, overall.shape[0])]
    return AccuracyMatrix(overall, overall.copy(), overall.copy(), names, labels)


class TestEvaluate:
    def test_oracle_hits_own_task(self):
        overrides = {n: {"noise_sigma": 0.0} for n in ("mobile", "desktop", "web")}
        tasks = make_sequence("domain_flux", 0, overrides)
        row, text, icon = evaluate(oracle_policy(tasks[0]), tasks, 500, np.random.default_rng(0))
        assert row[0] >= 0.99
        assert text[0] >= 0.99 and icon[0] >= 0.99

    def test_untrained_policy_is_weak(self):
        tasks = make_sequence("domain_flux", 0)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        row, _, _ = evaluate(policy, tasks, 1000, np.random.default_rng(1))
        assert (row < 0.5).all()

    def test_rates_bounded(self):
        tasks = make_sequence("resolution_flux", 3)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        row, text, icon = evaluate(policy, tasks, 200, np.random.default_rng(2))
        for arr in (row, text, icon):
            assert ((0.0 <= arr) & (arr <= 1.0)).all()


class TestTrainTask:
    def test_zero_steps_leaves_policy_unchanged(self):
        cfg = tiny_config(steps_per_task=0)
        tasks = make_sequence("domain_flux", 0)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        out = train_stage(policy, tasks[:1], cfg, [], 0, 0)
        assert np.array_equal(out.W, policy.W)

    def test_all_gates_off_logs_zero_shaping(self):
        cfg = tiny_config(
            optim=OptimConfig(beta=0.0), reward=RewardConfig(alpha=0.0, gamma=0.0)
        )
        records = []
        tasks = make_sequence("domain_flux", 0)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        train_stage(policy, tasks[:1], cfg, records, 0, 0)
        assert all(r.apr == 0.0 and r.arr == 0.0 and r.r_aif == 0.0 for r in records)

    def test_deterministic_log(self):
        cfg = tiny_config()
        logs = []
        for _ in range(2):
            records = []
            tasks = make_sequence("domain_flux", 0)
            policy = GroundingPolicy.zeros(tasks[0].state_dim)
            train_stage(policy, tasks[:1], cfg, records, 0, 0)
            logs.append(records)
        assert logs[0] == logs[1]


class TestRunContinual:
    def test_matrix_shape_domain(self):
        m, records = run_continual(tiny_config(), seed=0)
        assert m.overall.shape == (4, 3)
        assert m.stage_labels[0] == "untrained"
        assert m.stage_labels[-1] == "mobile->desktop->web"
        assert len(records) == 3 * 12
        assert ((m.overall >= 0) & (m.overall <= 1)).all()
        assert all(b.step == a.step + 1 for a, b in zip(records, records[1:]))

    def test_matrix_shape_joint(self):
        m, records = run_continual(tiny_config(scenario="joint"), seed=0)
        assert m.overall.shape == (2, 3)
        assert m.stage_labels == ["untrained", "joint"]
        assert len(records) == 3 * 12

    def test_deterministic(self):
        a, ra = run_continual(tiny_config(), seed=5)
        b, rb = run_continual(tiny_config(), seed=5)
        assert np.array_equal(a.overall, b.overall)
        assert np.array_equal(a.text, b.text)
        assert ra == rb

    def test_seed_pairing_of_untrained_row(self):
        # flag changes must not perturb the shared instance streams
        full, _ = run_continual(tiny_config(), seed=7)
        base, _ = run_continual(
            tiny_config(reward=RewardConfig(alpha=0.0, gamma=0.0)), seed=7
        )
        assert np.array_equal(full.overall[0], base.overall[0])

    def test_reversed_scenario_runs(self):
        cfg = tiny_config(scenario="domain_flux_reversed")
        m, _ = run_continual(cfg, seed=0)
        assert [t.name for t in cfg.tasks] == ["web", "desktop", "mobile"]
        assert m.task_names == ["web", "desktop", "mobile"]
        assert m.overall.shape == (4, 3)


class TestForwardTransfer:
    def test_identical_rows_zero(self):
        m = make_matrix(np.tile([0.3, 0.2, 0.1], (4, 1)))
        assert all(d["delta"] == 0.0 for d in forward_transfer(m))

    def test_hand_computed(self):
        m = make_matrix([
            [0.10, 0.20, 0.30],
            [0.50, 0.25, 0.35],
            [0.55, 0.60, 0.42],
            [0.50, 0.55, 0.70],
        ])
        ft = forward_transfer(m)
        by_key = {(d["stage"], d["task"]): d["delta"] for d in ft}
        assert by_key[(1, "t1")] == pytest.approx(0.05)
        assert by_key[(1, "t2")] == pytest.approx(0.05)
        assert by_key[(2, "t2")] == pytest.approx(0.12)
        assert len(ft) == 3

    def test_stage1_has_two_future_tasks(self):
        m, _ = run_continual(tiny_config(), seed=0)
        ft = forward_transfer(m)
        assert sum(1 for d in ft if d["stage"] == 1) == 2

    def test_joint_run_has_no_untrained_tasks(self):
        m, _ = run_continual(tiny_config(scenario="joint"), seed=0)
        assert forward_transfer(m) == []
        assert [d["drop"] for d in forgetting(m)] == [0.0, 0.0, 0.0]


class TestForgetting:
    def test_monotone_columns_zero_drop(self):
        m = make_matrix([
            [0.1, 0.1, 0.1],
            [0.2, 0.1, 0.1],
            [0.3, 0.4, 0.2],
            [0.4, 0.5, 0.6],
        ])
        assert all(d["drop"] == 0.0 for d in forgetting(m))

    def test_example_column(self):
        m = make_matrix([[0.1, 0.0], [0.8, 0.1], [0.6, 0.5]])
        drops = {d["task"]: d["drop"] for d in forgetting(m)}
        assert drops["t0"] == pytest.approx(0.2)
        assert drops["t1"] == pytest.approx(0.0)

    def test_joint_untouched_tasks_zero(self):
        m = make_matrix([[0.1, 0.1, 0.1], [0.5, 0.4, 0.3]])
        drops = [d["drop"] for d in forgetting(m)]
        assert drops[1] == 0.0 and drops[2] == 0.0


class TestRewardTrend:
    @staticmethod
    def records_from(xs, ys):
        return [
            TrainRecord(step=i, task=0, correctness=y, apr=0, arr=0, r_aif=x, kl=0, objective=0)
            for i, (x, y) in enumerate(zip(xs, ys))
        ]

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        r = reward_trend(self.records_from(xs, [-x for x in xs]))
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert reward_trend(self.records_from(xs, xs)) == pytest.approx(1.0, abs=1e-12)

    def test_textbook_formula(self, rng):
        xs = rng.random(50)
        ys = rng.random(50)
        got = reward_trend(self.records_from(xs, ys))
        n = len(xs)
        sx = np.sqrt(((xs - xs.mean()) ** 2).sum() / n)
        sy = np.sqrt(((ys - ys.mean()) ** 2).sum() / n)
        cov = ((xs - xs.mean()) * (ys - ys.mean())).sum() / n
        assert got == pytest.approx(cov / (sx * sy), abs=1e-9)

    def test_constant_series_absent(self):
        assert reward_trend(self.records_from([1, 1, 1, 1], [1, 2, 3, 4])) is None

    def test_too_few_records_absent(self):
        assert reward_trend(self.records_from([1, 2], [2, 1])) is None

    def test_task_filter(self):
        recs = self.records_from([1, 2, 3, 4], [4, 3, 2, 1])
        other = [
            TrainRecord(step=9 + i, task=1, correctness=v, apr=0, arr=0, r_aif=v, kl=0, objective=0)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        assert reward_trend(recs + other, task=0) == pytest.approx(-1.0, abs=1e-12)
        assert reward_trend(recs + other, task=1) == pytest.approx(1.0, abs=1e-12)


class TestAblate:
    def test_grid_structure_and_gates(self):
        cfg = tiny_config(steps_per_task=4, eval_episodes=20, seeds=(0, 1))
        runs = ablate(cfg)
        assert len(runs) == 4 * 2 * 1 * 2
        ids = [r.run_id for r in runs]
        assert len(set(ids)) == len(ids)
        apr_only = [r for r in runs if r.variant == "apr_only"]
        assert apr_only and all(
            all(rec.arr == 0.0 for rec in r.records) for r in apr_only
        )
        neither = [r for r in runs if r.variant == "neither"]
        assert neither and all(
            all(rec.r_aif == 0.0 for rec in r.records) for r in neither
        )

    def test_seed_pairing_across_cells(self):
        cfg = tiny_config(steps_per_task=4, eval_episodes=30, seeds=(3,))
        runs = ablate(cfg)
        untrained = {tuple(r.matrix.overall[0]) for r in runs}
        assert len(untrained) == 1


class TestRunConfig:
    """RunConfig built in code checks what parse_config used to check."""

    @pytest.mark.parametrize("kw, match", [
        ({"scenario": "cloud"}, r"^scenario: unknown scenario 'cloud'"),
        ({"scale_points": ((1.0, 1.0), (0.0, 1.0))}, r"^sweep\.scale_points\[1\]: .*positive"),
        ({"scale_points": ((1.0, 1.0), (1.0, math.inf))}, r"^sweep\.scale_points\[1\]: .*finite"),
        ({"scale_points": ((1.0, 1.0), (1.0000001, 1.0))},
         r"^sweep\.scale_points\[1\]: .*same grid cells \(a1_g1\) as sweep\.scale_points\[0\]"),
        ({"scale_points": ()}, r"^sweep\.scale_points: must hold"),
        ({"seeds": (True,)}, r"^seeds: "),
        ({"seeds": (0, False)}, r"^seeds: "),
        ({"sim_overrides": {"mobile": {"text_fraction": 1.5}}}, r"^simulator\.overrides\.mobile"),
    ])
    def test_rejects_invalid_values(self, kw, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**kw)

    def test_carries_its_tasks_with_overrides_applied(self):
        cfg = tiny_config(scenario="resolution_flux", sim_overrides={"high": {"noise_sigma": 0.0}})
        overrides = {"high": {"noise_sigma": 0.0}}
        assert list(cfg.tasks) == make_sequence("resolution_flux", 0, overrides)
        assert cfg == tiny_config(scenario="resolution_flux", sim_overrides=overrides)
        assert "tasks" not in repr(cfg)


class TestAccuracyMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AccuracyMatrix(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), ["a", "b", "c"], ["u", "s"])

    def test_final_average(self):
        m = make_matrix([[0.0, 0.0], [0.25, 0.75]])
        assert m.final_average() == pytest.approx(0.5)
