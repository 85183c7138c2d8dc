import ast
import csv
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from guiflux import harness
from guiflux import rewards as rewards_mod
from guiflux.harness import (
    AccuracyMatrix,
    TRAINLOG,
    RunConfig,
    ablate,
    evaluate,
    forgetting,
    forward_transfer,
    reward_trend,
    run_batch,
    run_continual,
    train_stage,
)
from guiflux.geometry import BBox
from guiflux.persistence import write_run
from guiflux.policy import GroundingPolicy, NumericalAbort, OptimConfig
from guiflux.rewards import CORRECTNESS_KINDS, RewardConfig
from guiflux.simulator import make_sequence, sample_instances

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
        row, text, icon = (
            split[0] for split in evaluate(oracle_policy(tasks[0]), tasks, 500, np.random.default_rng(0))
        )
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

    def test_saturated_mean_action_emits_no_warning(self):
        # a mean x action of -1000 overflowed the unclamped exp; the rates
        # are still the unclamped formula's
        tasks = make_sequence("domain_flux", 0)
        oracle = oracle_policy(tasks[0])
        policy = GroundingPolicy(oracle.W, oracle.b - [1000.0, 0, 0, 0], oracle.log_std)
        got = evaluate(policy, tasks, 300, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for t_idx, task in enumerate(tasks):
            states, gt, is_text = sample_instances(task, 300, rng)
            u = states @ policy.W[0] + policy.b[0]
            with np.errstate(over="ignore"):
                cx = 1.0 / (1.0 + np.exp(-u[:, 0]))
                cy = 1.0 / (1.0 + np.exp(-u[:, 1]))
            hit = (gt[:, 0] <= cx) & (cx <= gt[:, 2]) & (gt[:, 1] <= cy) & (cy <= gt[:, 3])
            expected = (hit.mean(), hit[is_text].mean(), hit[~is_text].mean())
            assert tuple(rates[0, t_idx] for rates in got) == expected


class TestTrainTask:
    def test_zero_steps_leaves_policy_unchanged(self):
        cfg = tiny_config(steps_per_task=0)
        tasks = make_sequence("domain_flux", 0)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        aborts = {}
        out, blocks = train_stage(policy, tasks[:1], [cfg], aborts, 0, 0)
        assert aborts == {}
        assert np.array_equal(out.W, policy.W)
        assert blocks == []

    def test_all_gates_off_logs_zero_shaping(self):
        cfg = tiny_config(
            optim=OptimConfig(beta=0.0), reward=RewardConfig(alpha=0.0, gamma=0.0)
        )
        tasks = make_sequence("domain_flux", 0)
        policy = GroundingPolicy.zeros(tasks[0].state_dim)
        _, blocks = train_stage(policy, tasks[:1], [cfg], {}, 0, 0)
        trainlog = np.concatenate(blocks, axis=1)
        assert trainlog.shape == (1, cfg.steps_per_task)
        for name in ("apr", "arr", "r_aif"):
            assert (trainlog[name] == 0.0).all()

    def test_deterministic_log(self):
        cfg = tiny_config()
        logs = []
        for _ in range(2):
            tasks = make_sequence("domain_flux", 0)
            policy = GroundingPolicy.zeros(tasks[0].state_dim)
            _, blocks = train_stage(policy, tasks[:1], [cfg], {}, 0, 0)
            logs.append(np.concatenate(blocks, axis=1))
        assert np.array_equal(logs[0], logs[1])


def bench_spanned(*modules):
    """(module, function) of each function bench/tracing.py spans in `modules`."""
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANNED":
            spanned = ast.literal_eval(node.value)
            return [(m, fn) for m, fn, _ in spanned if m in modules]
    raise AssertionError("bench/tracing.py defines no SPANNED table")


def count_calls(monkeypatch, module, attr, counts):
    """Count calls to module.attr under every guiflux name that holds it."""
    fn = getattr(sys.modules[module], attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("guiflux"):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)


class TestOnePassStep:
    """A training step takes each policy's mean at the state once, and models
    the ground truth and each sampled box by a Gaussian once. The trainlog's
    KL and objective are taken once per draw block, over its stacked steps."""

    @pytest.mark.parametrize("runs, draw_block, array_form",
                             [(1, None, False), (2, None, False), (1, 2, False), (2, None, True)],
                             ids=["1", "2", "1-block2", "2-array"])
    def test_calls_per_step(self, monkeypatch, runs, draw_block, array_form):
        steps = 5
        if draw_block is not None:
            monkeypatch.setattr(harness, "DRAW_BLOCK", draw_block)
        if array_form:
            monkeypatch.setattr(rewards_mod, "ARRAY_MIN_BOXES", 0)
        blocks = math.ceil(steps / harness.DRAW_BLOCK)
        cfgs = [c.cfg for c in ablate(tiny_config(steps_per_task=steps))][:runs]
        n = cfgs[0].optim.n_samples
        assert n == 4 and cfgs[0].reward.correctness_kind == "gaussian_dense"
        counts = Counter()
        policy_fns = bench_spanned("guiflux.policy")
        reward_fns = bench_spanned("guiflux.rewards")
        assert policy_fns and reward_fns
        for module, attr in [("guiflux.rewards", "to_gaussian"), *policy_fns, *reward_fns]:
            count_calls(monkeypatch, module, attr, counts)
        at = GroundingPolicy.at

        def counted_at(policy, state):
            counts["at"] += 1
            return at(policy, state)

        monkeypatch.setattr(GroundingPolicy, "at", counted_at)
        tasks = cfgs[0].tasks
        policy = GroundingPolicy.zeros(tasks[0].state_dim, runs)
        aborts = {}
        _, logged = train_stage(policy, tasks[:1], cfgs, aborts, 0, 0)
        assert aborts == {}
        assert len(logged) == blocks
        assert np.concatenate(logged, axis=1).shape == (runs, steps)
        # theta before the update and the reference; the updated policy's
        # mean is taken for the whole block at once
        assert counts["at"] == 2 * steps
        # the ground truth once, each sampled box once; the array form models
        # the boxes without the per-box function
        assert counts["to_gaussian"] == (1 + (0 if array_form else runs * n)) * steps
        per_block = {"objective": 1, "kl_ref_theta": 2}  # objective takes its own KL
        for _, attr in policy_fns:
            expected = per_block[attr] * blocks if attr in per_block else steps
            assert counts[attr] == expected, attr
        # the scalar form scores each run's group once by the reward functions
        # the benchmark spans; the array form calls none of them
        for _, attr in reward_fns:
            assert counts[attr] == (0 if array_form else runs * steps), attr


class TestRunContinual:
    @pytest.mark.parametrize("kind", CORRECTNESS_KINDS)
    def test_training_constructs_no_bbox(self, monkeypatch, kind):
        # sampled and ground-truth boxes stay plain tuples on the hot path;
        # counted the way the benchmark's tracer counts them
        constructed = []
        post_init = BBox.__post_init__

        def counted_post_init(box):
            constructed.append(box)
            post_init(box)

        monkeypatch.setattr(BBox, "__post_init__", counted_post_init)
        run_continual(tiny_config(reward=RewardConfig(correctness_kind=kind)), 0)
        assert constructed == []
        BBox(0.0, 0.0, 1.0, 1.0)  # the hook counts
        assert len(constructed) == 1

    def test_matrix_shape_domain(self):
        m, trainlog = run_continual(tiny_config(), seed=0)
        assert m.overall.shape == (4, 3)
        assert m.stage_labels[0] == "untrained"
        assert m.stage_labels[-1] == "mobile->desktop->web"
        assert trainlog.dtype == TRAINLOG
        assert trainlog.shape == (3 * 12,)
        assert ((m.overall >= 0) & (m.overall <= 1)).all()
        assert np.array_equal(trainlog["step"], np.arange(3 * 12))
        assert np.array_equal(trainlog["task"], np.repeat([0, 1, 2], 12))

    def test_matrix_shape_joint(self):
        m, trainlog = run_continual(tiny_config(scenario="joint"), seed=0)
        assert m.overall.shape == (2, 3)
        assert m.stage_labels == ["untrained", "joint"]
        assert trainlog.shape == (3 * 12,)

    def test_deterministic(self):
        a, ra = run_continual(tiny_config(), seed=5)
        b, rb = run_continual(tiny_config(), seed=5)
        assert np.array_equal(a.overall, b.overall)
        assert np.array_equal(a.text, b.text)
        assert np.array_equal(ra, rb)

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


class TestRunBatch:
    @pytest.mark.parametrize("scenario", ["domain_flux", "joint"])
    def test_each_run_equals_its_run_alone(self, scenario):
        cells = ablate(tiny_config(scenario=scenario, steps_per_task=5, eval_episodes=30))
        cfgs = [c.cfg for c in cells]
        for (matrix, trainlog), cfg in zip(run_batch(cfgs, 2), cfgs):
            alone, alone_trainlog = run_continual(cfg, 2)
            for split in ("overall", "text", "icon"):
                assert np.array_equal(getattr(matrix, split), getattr(alone, split), equal_nan=True)
            assert matrix.stage_labels == alone.stage_labels
            assert np.array_equal(trainlog, alone_trainlog)

    @pytest.mark.parametrize("kw", [
        {"steps_per_task": 3}, {"eval_episodes": 7}, {"optim": OptimConfig(n_samples=5)},
        {"optim": OptimConfig(lr=0.01)}, {"reward": RewardConfig(correctness_kind="iou")},
        {"scenario": "joint"}, {"sim_overrides": {"mobile": {"noise_sigma": 0.0}}},
        {"seeds": (1,)},
    ])
    def test_runs_may_differ_only_in_weights(self, kw):
        with pytest.raises(ValueError, match="only in reward.alpha, reward.gamma, optim.beta"):
            run_batch([tiny_config(), tiny_config(**kw)], 0)

    def test_every_run_aborting_ends_the_batch(self, monkeypatch):
        # every row aborts at the first step: the batch stops there instead
        # of training its dead rows on
        step = harness.step
        calls = []

        def corrupt(theta, grad, lr):
            calls.append(theta.W.shape[0])
            dW, db, dlog_std = grad
            return step(theta, (dW, np.full_like(db, np.nan), dlog_std), lr)

        monkeypatch.setattr(harness, "step", corrupt)
        results = run_batch([c.cfg for c in ablate(tiny_config())][:3], 0)
        assert [type(r) for r in results] == [NumericalAbort] * 3
        assert calls == [3]
        with pytest.raises(NumericalAbort, match="not finite"):
            run_continual(tiny_config(), 0)
        assert calls == [3, 1]


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


class TestLiteratureDefinitions:
    """forward_transfer and forgetting against their literature definitions,
    recomputed from a written matrix.csv. R[i][j] is the accuracy on task j
    after stage i; row 0 is the untrained policy (GEM's b), and task j
    (0-based) is first trained at stage j + 1."""

    @staticmethod
    def written(tmp_path, cfg, seed):
        m, trainlog = run_continual(cfg, seed)
        write_run(tmp_path, cfg, seed, m, trainlog)
        with open(tmp_path / "matrix.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        n_tasks = (len(header) - 1) // 3
        R = [[float(v) for v in row[1 : 1 + n_tasks]] for row in rows]
        return header[1 : 1 + n_tasks], R, json.loads((tmp_path / "metrics.json").read_text())

    def test_sequential_runs(self, tmp_path):
        cfg = tiny_config(steps_per_task=40, eval_episodes=200, seeds=(0, 1))
        all_chaudhry = []
        for seed in cfg.seeds:
            names, R, metrics = self.written(tmp_path / f"s{seed}", cfg, seed)
            T = len(names)
            # GEM (Lopez-Paz & Ranzato, arXiv 1706.08840), 1-based:
            # FWT = 1/(T-1) sum_{i=2..T} R[i-1][i] - b[i]
            gem_fwt = sum(R[j][j] - R[0][j] for j in range(1, T)) / (T - 1)
            # guiflux also scores tasks further ahead; GEM's are the next-task deltas
            next_task = [
                d["delta"] for d in metrics["forward_transfer"]
                if names.index(d["task"]) == d["stage"]
            ]
            assert len(next_task) == T - 1
            assert sum(next_task) / len(next_task) == gem_fwt
            # Chaudhry et al. (arXiv 1801.10112), 1-based, for j < T:
            # f_j = max_{l in j..T-1} R[l][j] - R[T][j]
            chaudhry = [max(R[l][j] - R[T][j] for l in range(j + 1, T)) for j in range(T - 1)]
            # guiflux's max also takes the final row, so its drop is never negative
            drops = [d["drop"] for d in metrics["forgetting"]]
            assert drops == [max(f, 0.0) for f in chaudhry] + [0.0]
            all_chaudhry += chaudhry
        # the two seeds forget and improve, so both branches of the max are met
        assert min(all_chaudhry) < 0.0 < max(all_chaudhry)

    def test_joint_run_has_no_terms(self, tmp_path):
        # one stage trains every task: neither measure has a task trained after another
        names, R, metrics = self.written(tmp_path, tiny_config(scenario="joint"), 0)
        assert len(R) == 2
        assert metrics["forward_transfer"] == []
        assert [d["drop"] for d in metrics["forgetting"]] == [0.0] * len(names)


class TestRewardTrend:
    @staticmethod
    def trainlog_from(xs, ys, task=0):
        trainlog = np.zeros(len(xs), TRAINLOG)
        trainlog["step"] = np.arange(len(xs))
        trainlog["task"] = task
        trainlog["r_aif"] = xs
        trainlog["correctness"] = ys
        return trainlog

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        r = reward_trend(self.trainlog_from(xs, [-x for x in xs]))
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert reward_trend(self.trainlog_from(xs, xs)) == pytest.approx(1.0, abs=1e-12)

    def test_textbook_formula(self, rng):
        xs = rng.random(50)
        ys = rng.random(50)
        got = reward_trend(self.trainlog_from(xs, ys))
        n = len(xs)
        sx = np.sqrt(((xs - xs.mean()) ** 2).sum() / n)
        sy = np.sqrt(((ys - ys.mean()) ** 2).sum() / n)
        cov = ((xs - xs.mean()) * (ys - ys.mean())).sum() / n
        assert got == pytest.approx(cov / (sx * sy), abs=1e-9)

    def test_constant_series_absent(self):
        assert reward_trend(self.trainlog_from([1, 1, 1, 1], [1, 2, 3, 4])) is None

    def test_too_few_records_absent(self):
        assert reward_trend(self.trainlog_from([1, 2], [2, 1])) is None

    def test_task_filter(self):
        both = np.concatenate([
            self.trainlog_from([1, 2, 3, 4], [4, 3, 2, 1]),
            self.trainlog_from([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], task=1),
        ])
        assert reward_trend(both, task=0) == pytest.approx(-1.0, abs=1e-12)
        assert reward_trend(both, task=1) == pytest.approx(1.0, abs=1e-12)


class TestAblate:
    def test_grid_structure_and_gates(self):
        cfg = tiny_config(steps_per_task=4, eval_episodes=20, seeds=(0, 1))
        cells = ablate(cfg)
        assert len(cells) == 4 * 2 * 1
        ids = [c.cell_id for c in cells]
        assert len(set(ids)) == len(ids)
        apr_only = [c for c in cells if c.variant == "apr_only"]
        assert apr_only and all(
            (run_continual(c.cfg, seed)[1]["arr"] == 0.0).all()
            for c in apr_only for seed in cfg.seeds
        )
        neither = [c for c in cells if c.variant == "neither"]
        assert neither and all(
            (run_continual(c.cfg, seed)[1]["r_aif"] == 0.0).all()
            for c in neither for seed in cfg.seeds
        )

    def test_seed_pairing_across_cells(self):
        cfg = tiny_config(steps_per_task=4, eval_episodes=30, seeds=(3,))
        untrained = {tuple(run_continual(c.cfg, 3)[0].overall[0]) for c in ablate(cfg)}
        assert len(untrained) == 1

    def test_cells_in_grid_order_without_running(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ablate must not run a cell")

        monkeypatch.setattr(harness, "run_batch", boom)
        cells = ablate(tiny_config(scale_points=((1.0, 1.0), (2.0, 0.5))))
        assert [c.cell_id for c in cells] == [
            f"{variant}_kl{kl}_{label}"
            for variant in ("full", "apr_only", "arr_only", "neither")
            for kl in (1, 0)
            for label in ("a1_g1", "a2_g0.5")
        ]
        by_id = {c.cell_id: c.cfg for c in cells}
        assert by_id["full_kl1_a2_g0.5"].reward.alpha == 2.0 * RewardConfig.alpha
        assert by_id["full_kl1_a2_g0.5"].reward.gamma == 0.5 * RewardConfig.gamma
        assert by_id["arr_only_kl0_a1_g1"].reward.alpha == 0.0
        assert by_id["arr_only_kl0_a1_g1"].optim.beta == 0.0

    def test_coordinates_are_not_read_from_cfg(self):
        # under beta 0 the KL switch leaves the config unchanged, and a zeroed
        # weight forgets its scale: only the cell's own fields tell them apart
        cfg = tiny_config(optim=OptimConfig(beta=0.0), scale_points=((1.0, 1.0), (2.0, 1.0)))
        cells = ablate(cfg)
        by_id = {c.cell_id: c for c in cells}
        assert by_id["full_kl1_a1_g1"].cfg == by_id["full_kl0_a1_g1"].cfg
        assert by_id["arr_only_kl1_a1_g1"].cfg == by_id["arr_only_kl1_a2_g1"].cfg
        assert len(by_id) == len(cells) == 16


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
