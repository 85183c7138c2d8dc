import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guiflux.simulator as simulator_mod
from guiflux.errors import ConfigError
from guiflux.geometry import BBox, check_boxes
from guiflux.harness import evaluate
from guiflux.policy import GroundingPolicy
from guiflux.simulator import (
    DOMAIN_FIXTURES,
    ICON_SIZE_FACTOR,
    SCENARIOS,
    SIZE_CLIP,
    TaskSpec,
    make_sequence,
    sample_instances,
)

from conftest import oracle_policy


def target_latent(gt: BBox) -> np.ndarray:
    """Pre-squash representation of a box: (logit cx, logit cy, log w, log h)."""
    cx = (gt.x1 + gt.x2) / 2.0
    cy = (gt.y1 + gt.y2) / 2.0
    return np.array([
        math.log(cx / (1.0 - cx)),
        math.log(cy / (1.0 - cy)),
        math.log(gt.x2 - gt.x1),
        math.log(gt.y2 - gt.y1),
    ])


def scalar_reference(task, n, rng):
    """Per-episode construction of `n` episodes, as the simulator built them
    before it became array-first: the same vectorized draws, then one state
    vector, one BBox and one kind per episode. Returns (states, boxes, kinds)."""
    is_text = rng.random(n) < task.text_fraction
    w = rng.normal(task.size_mean, task.size_spread, n)
    h = rng.normal(task.size_mean, task.size_spread, n)
    factor = np.where(is_text, 1.0, ICON_SIZE_FACTOR)
    w = np.clip(w * factor, *SIZE_CLIP)
    h = np.clip(h * factor, *SIZE_CLIP)
    cx = w / 2.0 + rng.random(n) * (1.0 - w)
    cy = h / 2.0 + rng.random(n) * (1.0 - h)
    noise = task.noise_sigma * rng.standard_normal((n, 4))

    matrix = np.asarray(task.matrix)
    offset = np.asarray(task.offset)
    latent = np.column_stack([
        np.log(cx / (1.0 - cx)),
        np.log(cy / (1.0 - cy)),
        np.log(w),
        np.log(h),
    ])
    obs = np.empty_like(latent)
    obs[:, :2] = latent[:, :2] @ matrix.T + offset
    obs[:, 2:] = latent[:, 2:] @ matrix.T
    obs += noise
    one_hot = np.zeros(task.n_tasks)
    one_hot[task.index] = 1.0

    states, boxes, kinds = [], [], []
    for i in range(n):
        x1 = min(max(cx[i] - w[i] / 2.0, 0.0), 1.0)
        x2 = min(max(cx[i] + w[i] / 2.0, 0.0), 1.0)
        y1 = min(max(cy[i] - h[i] / 2.0, 0.0), 1.0)
        y2 = min(max(cy[i] + h[i] / 2.0, 0.0), 1.0)
        gt = BBox(x1, y1, x2, y2)
        states.append(np.concatenate([obs[i], one_hot, [1.0 if is_text[i] else 0.0]]))
        boxes.append((gt.x1, gt.y1, gt.x2, gt.y2))
        kinds.append("text" if is_text[i] else "icon")
    return np.array(states), np.array(boxes), kinds


def reference_evaluate(policy, tasks, episodes, rng):
    """One accuracy-matrix row scored episode by episode from the scalar
    reference draws; empty splits are nan."""
    rows = []
    for task in tasks:
        states, boxes, kinds = scalar_reference(task, episodes, rng)
        u = states @ policy.W + policy.b
        cx = 1.0 / (1.0 + np.exp(-u[:, 0]))
        cy = 1.0 / (1.0 + np.exp(-u[:, 1]))
        hits = {"text": [], "icon": []}
        for i, kind in enumerate(kinds):
            x1, y1, x2, y2 = boxes[i]
            hits[kind].append(bool(x1 <= cx[i] <= x2 and y1 <= cy[i] <= y2))
        every = hits["text"] + hits["icon"]
        rows.append((
            sum(every) / len(every),
            sum(hits["text"]) / len(hits["text"]) if hits["text"] else math.nan,
            sum(hits["icon"]) / len(hits["icon"]) if hits["icon"] else math.nan,
        ))
    return tuple(np.array(col) for col in zip(*rows))


class TestMakeSequence:
    def test_domain_flux_fixtures(self):
        tasks = make_sequence("domain_flux", 0)
        assert [t.name for t in tasks] == ["mobile", "desktop", "web"]
        assert tasks[0].text_fraction == 0.7
        assert [t.text_fraction for t in tasks] == [0.7, 0.5, 0.3]
        assert [t.size_mean for t in tasks] == [0.12, 0.08, 0.06]
        assert len({t.matrix for t in tasks}) == 3

    def test_reversed_is_elementwise_reverse(self):
        fwd = make_sequence("domain_flux", 0)
        rev = make_sequence("domain_flux_reversed", 0)
        assert [t.name for t in rev] == [t.name for t in reversed(fwd)]
        assert [t.index for t in rev] == [0, 1, 2]

    def test_resolution_halving(self):
        tasks = make_sequence("resolution_flux", 0)
        assert len(tasks) == 2
        normal, high = tasks
        assert high.size_mean == pytest.approx(normal.size_mean / 2)
        assert np.allclose(np.asarray(high.matrix), 2 * np.asarray(normal.matrix))

    def test_joint_mirrors_domain_tasks(self):
        assert [t.name for t in make_sequence("joint", 0)] == ["mobile", "desktop", "web"]

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            make_sequence("diagonal_flux", 0)

    def test_overrides_applied(self):
        tasks = make_sequence("domain_flux", 0, {"mobile": {"noise_sigma": 0.0}})
        assert tasks[0].noise_sigma == 0.0
        assert tasks[1].noise_sigma == DOMAIN_FIXTURES[1]["noise_sigma"]

    def test_override_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            make_sequence("domain_flux", 0, {"tablet": {"noise_sigma": 0.0}})

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            make_sequence("domain_flux", 0, {"mobile": {"pixels": 99}})

    def test_state_dim_constant_within_scenario(self):
        for scenario in ("domain_flux", "resolution_flux"):
            tasks = make_sequence(scenario, 0)
            assert len({t.state_dim for t in tasks}) == 1


class TestTaskSpec:
    def test_invariants(self):
        base = dict(
            name="x", matrix=((1, 0), (0, 1)), offset=(0, 0),
            size_mean=0.1, size_spread=0.01, text_fraction=0.5, noise_sigma=0.0,
            index=0, n_tasks=1,
        )
        TaskSpec(**base)
        with pytest.raises(ValueError):
            TaskSpec(**{**base, "text_fraction": 1.2})
        with pytest.raises(ValueError):
            TaskSpec(**{**base, "size_mean": 0.6})
        with pytest.raises(ValueError):
            TaskSpec(**{**base, "matrix": ((1, 1), (1, 1))})


class TestSampleInstance:
    def test_noise_free_identity_observation_matches_target(self):
        tasks = make_sequence("domain_flux", 0, {"mobile": {"noise_sigma": 0.0}})
        mobile = tasks[0]  # identity affine, zero offset
        rng = np.random.default_rng(5)
        for _ in range(20):
            states, boxes, _ = sample_instances(mobile, 1, rng)
            state, gt = states[0], BBox(*boxes[0])
            np.testing.assert_allclose(state[:4], target_latent(gt), atol=1e-12)
            # observation decodes back to the exact box
            cx = 1 / (1 + math.exp(-state[0]))
            cy = 1 / (1 + math.exp(-state[1]))
            w = math.exp(state[2])
            h = math.exp(state[3])
            assert cx == pytest.approx((gt.x1 + gt.x2) / 2, abs=1e-12)
            assert w == pytest.approx(gt.x2 - gt.x1, abs=1e-12)
            assert cy == pytest.approx((gt.y1 + gt.y2) / 2, abs=1e-12)
            assert h == pytest.approx(gt.y2 - gt.y1, abs=1e-12)

    def test_deterministic_given_rng_state(self):
        task = make_sequence("domain_flux", 0)[1]
        a = sample_instances(task, 1, np.random.default_rng(42))
        b = sample_instances(task, 1, np.random.default_rng(42))
        for x, y in zip(a, b):  # states, boxes, text mask
            assert np.array_equal(x, y)

    def test_text_fraction_concentration(self):
        task = make_sequence("domain_flux", 0)[0]  # text_fraction 0.7
        rng = np.random.default_rng(3)
        _, _, is_text = sample_instances(task, 10_000, rng)
        assert abs(is_text.mean() - 0.7) < 0.02

    def test_gt_always_valid(self):
        rng = np.random.default_rng(11)
        for task in make_sequence("domain_flux", 0) + make_sequence("resolution_flux", 0):
            states, boxes, _ = sample_instances(task, 500, rng)
            for (x1, y1, x2, y2), state in zip(boxes, states):
                assert 0.0 <= x1 <= x2 <= 1.0
                assert 0.0 <= y1 <= y2 <= 1.0
                assert np.isfinite(state).all()

    def test_state_layout(self):
        task = make_sequence("domain_flux", 0)[1]
        states, _, _ = sample_instances(task, 1, np.random.default_rng(0))
        state = states[0]
        one_hot = state[4:7]
        assert list(one_hot) == [0.0, 1.0, 0.0]
        assert state[7] in (0.0, 1.0)
        assert state.shape == (8,)


class TestTaskDistinctness:
    def test_oracle_of_one_task_is_worse_on_another(self):
        # the mechanism that makes the sequence a continual-learning problem
        overrides = {n: {"noise_sigma": 0.0} for n in ("mobile", "desktop", "web")}
        tasks = make_sequence("domain_flux", 0, overrides)
        rng = np.random.default_rng(9)
        for trained in range(3):
            policy = oracle_policy(tasks[trained])
            row, _, _ = evaluate(policy, tasks, 800, rng)
            for other in range(3):
                if other != trained:
                    assert row[other] < row[trained] - 0.05


class TestEpisodeBatch:
    """The (states, boxes, is_text) arrays `sample_instances` returns."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("n", [1, 3, 2000])
    def test_equals_scalar_reference_bitwise(self, scenario, n):
        for task in make_sequence(scenario, 7):
            rng_a = np.random.default_rng(100 + task.index)
            rng_b = np.random.default_rng(100 + task.index)
            got_states, got_boxes, is_text = sample_instances(task, n, rng_a)
            states, boxes, kinds = scalar_reference(task, n, rng_b)
            assert len(is_text) == n
            assert np.array_equal(got_states, states)
            assert np.array_equal(got_boxes, boxes)
            assert ["text" if t else "icon" for t in is_text] == kinds
            # the draws consume the stream exactly as the scalar loop did
            assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("corner, value", [
        (0, math.nan), (1, math.inf), (2, -math.inf), (0, -1e-12), (3, 1.0 + 1e-12),
    ])
    def test_rejects_corrupted_corner(self, corner, value):
        _, boxes, _ = sample_instances(make_sequence("domain_flux", 0)[0], 4, np.random.default_rng(0))
        boxes = boxes.copy()
        boxes[2, corner] = value
        with pytest.raises(ValueError, match="box 2"):
            check_boxes(boxes)

    def test_returned_boxes_are_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(simulator_mod, "check_boxes", checked.append)
        _, boxes, _ = sample_instances(make_sequence("domain_flux", 0)[0], 4, np.random.default_rng(0))
        assert len(checked) == 1 and checked[0] is boxes

    @pytest.mark.parametrize("lo, hi", [(0, 2), (1, 3)])
    def test_rejects_inverted_box(self, lo, hi):
        boxes = np.array([[0.1, 0.1, 0.2, 0.2], [0.1, 0.1, 0.2, 0.2]])
        boxes[1, [lo, hi]] = boxes[1, [hi, lo]]
        with pytest.raises(ValueError, match="box 1"):
            check_boxes(boxes)
        # the same corners are rejected by BBox itself
        with pytest.raises(ValueError):
            BBox(*boxes[1])

    def test_degenerate_box_accepted_like_bbox(self):
        boxes = np.array([[0.0, 0.3, 0.0, 0.3], [0.0, 0.0, 1.0, 1.0]])
        check_boxes(boxes)
        for row in boxes:
            BBox(*row)


class TestEvaluateEquivalence:
    @pytest.mark.parametrize("overrides", [
        {},
        # an empty icon split on mobile and an empty text split on web: nan
        {"mobile": {"text_fraction": 1.0}, "web": {"text_fraction": 0.0}},
    ])
    def test_rows_equal_per_instance_reference(self, overrides):
        tasks = make_sequence("domain_flux", 3, overrides)
        policies = [GroundingPolicy.zeros(tasks[0].state_dim)]
        policies += [oracle_policy(t) for t in tasks]
        for k, policy in enumerate(policies):
            got = evaluate(policy, tasks, 300, np.random.default_rng(k))
            want = reference_evaluate(policy, tasks, 300, np.random.default_rng(k))
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)


@st.composite
def task_specs(draw):
    """Any TaskSpec the constructor accepts, within finite, moderate ranges."""
    coef = st.floats(-5.0, 5.0)
    matrix = ((draw(coef), draw(coef)), (draw(coef), draw(coef)))
    with np.errstate(divide="ignore", invalid="ignore"):  # singular draws warn
        det = np.linalg.det(np.asarray(matrix))
    if not abs(det) >= 1e-6:
        matrix = ((1.0, 0.0), (0.0, 1.0))
    n_tasks = draw(st.integers(1, 4))
    return TaskSpec(
        name="t",
        matrix=matrix,
        offset=(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))),
        size_mean=draw(st.floats(1e-6, 0.5)),
        size_spread=draw(st.floats(0.0, 10.0)),
        text_fraction=draw(st.floats(0.0, 1.0)),
        noise_sigma=draw(st.floats(0.0, 10.0)),
        index=draw(st.integers(0, n_tasks - 1)),
        n_tasks=n_tasks,
    )


@settings(max_examples=150, deadline=None)
@given(task=task_specs(), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_any_valid_task_draws_valid_episodes(task, n, seed):
    states, boxes, _ = sample_instances(task, n, np.random.default_rng(seed))
    x1, y1, x2, y2 = boxes.T
    assert ((0.0 <= x1) & (x1 <= x2) & (x2 <= 1.0)).all()
    assert ((0.0 <= y1) & (y1 <= y2) & (y2 <= 1.0)).all()
    assert np.isfinite(states).all()
    assert states.shape == (n, task.state_dim)
    assert (states[:, 4 + task.index] == 1.0).all()
