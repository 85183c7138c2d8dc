import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import guiflux.rewards as rewards_mod
from guiflux.geometry import BBox, iou
from guiflux.policy import SIZE_MAX, SIZE_MIN, action_to_bbox
from guiflux.rewards import (
    CORRECTNESS_KINDS,
    EPS_MIN,
    RewardConfig,
    bhattacharyya,
    center_spread,
    correctness,
    correctness_gaussian,
    correctness_point,
    diversity_reward,
    region_separation,
    score_groups,
    to_gaussian,
)

from conftest import random_bbox


def brute_spread(boxes):
    cs = [((b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2) for b in boxes]
    mx = sum(c[0] for c in cs) / len(cs)
    my = sum(c[1] for c in cs) / len(cs)
    return sum((c[0] - mx) ** 2 + (c[1] - my) ** 2 for c in cs) / len(cs)


def models(boxes):
    """The boxes' Gaussian models, as the training step builds them."""
    return [to_gaussian(b) for b in boxes]


def brute_separation(boxes):
    gs = [to_gaussian(b) for b in boxes]
    n = len(gs)
    total = sum(
        bhattacharyya(gs[i], gs[j]) for i in range(n - 1) for j in range(i + 1, n)
    )
    return 2.0 * total / (n * (n - 1))


class TestRewardConfig:
    def test_defaults_valid(self):
        cfg = RewardConfig()
        assert cfg.alpha == 15.0 and cfg.gamma == 0.5

    def test_invalid_kind(self):
        kinds = "('iou', 'point_distance', 'gaussian_dense')"
        with pytest.raises(ValueError, match=re.escape(f"must be one of {kinds}, got 'nope'")):
            RewardConfig(correctness_kind="nope")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=-1.0)


class TestCenterSpread:
    def test_identical_boxes_zero(self):
        b = BBox(0.2, 0.2, 0.4, 0.4)
        assert center_spread([b] * 5) == 0.0

    def test_two_box_example(self):
        g = [BBox(0.05, 0.4, 0.15, 0.6), BBox(0.25, 0.4, 0.35, 0.6)]
        # centers (0.1, 0.5) and (0.3, 0.5): centroid (0.2, 0.5), spread 0.01
        assert center_spread(g) == pytest.approx(0.01, abs=1e-12)

    def test_single_box_zero(self):
        assert center_spread([BBox(0, 0, 1, 1)]) == 0.0

    def test_translation_invariance(self, rng):
        boxes = [BBox(0.1, 0.1, 0.2, 0.3), BBox(0.3, 0.2, 0.5, 0.4), BBox(0.2, 0.5, 0.4, 0.6)]
        base = center_spread(boxes)
        for _ in range(20):
            tx, ty = rng.uniform(0, 0.4, 2)
            moved = [BBox(b.x1 + tx, b.y1 + ty, b.x2 + tx, b.y2 + ty) for b in boxes]
            assert center_spread(moved) == pytest.approx(base, abs=1e-12)

    def test_similarity_scaling(self):
        boxes = [BBox(0.1, 0.1, 0.2, 0.3), BBox(0.3, 0.2, 0.5, 0.4)]
        s = 0.5
        scaled = [BBox(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s) for b in boxes]
        assert center_spread(scaled) == pytest.approx(s * s * center_spread(boxes), rel=1e-12)

    def test_brute_force_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            boxes = [random_bbox(rng) for _ in range(n)]
            got = center_spread(boxes)
            assert got == pytest.approx(brute_spread(boxes), abs=1e-9)
            assert got >= 0.0

    def test_sums_left_to_right(self, monkeypatch):
        # the trainlog goldens hold left-to-right sums; the compensated
        # builtin sum of Python 3.12+ gives 0.007499999999999999 here
        g = [BBox(x, 0.5, x, 0.5) for x in (0.1, 0.1, 0.1, 0.3)]
        assert center_spread(g) == 0.007499999999999998
        monkeypatch.setattr(rewards_mod, "sum", math.fsum, raising=False)
        assert center_spread(g) == 0.007499999999999998


class TestBhattacharyya:
    def test_identical_zero(self):
        g = (0.3, 0.6, 0.01, 0.02)
        assert abs(bhattacharyya(g, g)) < 1e-12

    def test_equal_covariance_mahalanobis(self):
        a = (0.0, 0.0, 0.01, 0.01)
        b = (0.2, 0.0, 0.01, 0.01)
        assert bhattacharyya(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_pure_log_term(self):
        a = (0.5, 0.5, 0.01, 0.01)
        b = (0.5, 0.5, 0.04, 0.04)
        assert bhattacharyya(a, b) == pytest.approx(math.log(0.025 / 0.02), abs=1e-12)

    def test_symmetric_nonnegative(self, rng):
        for _ in range(200):
            m = rng.random(4)
            v = np.exp(rng.uniform(-8, -2, 4))
            a = (m[0], m[1], v[0], v[1])
            b = (m[2], m[3], v[2], v[3])
            d = bhattacharyya(a, b)
            assert d == bhattacharyya(b, a)
            assert d >= 0.0


class TestRegionSeparation:
    def test_identical_boxes_zero(self):
        b = BBox(0.2, 0.3, 0.5, 0.6)
        assert region_separation(models([b] * 4)) == 0.0

    def test_two_boxes_single_pair(self):
        boxes = [BBox(0.1, 0.1, 0.3, 0.3), BBox(0.5, 0.5, 0.8, 0.9)]
        expected = bhattacharyya(to_gaussian(boxes[0]), to_gaussian(boxes[1]))
        got = region_separation(models(boxes))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_single_box_zero(self):
        assert region_separation(models([BBox(0, 0, 0.5, 0.5)])) == 0.0

    def test_pairwise_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            boxes = [random_bbox(rng) for _ in range(n)]
            got = region_separation(models(boxes))
            assert got == pytest.approx(brute_separation(boxes), abs=1e-9)

    def test_permutation_invariance(self, rng):
        boxes = [random_bbox(rng) for _ in range(5)]
        base = region_separation(models(boxes))
        spread = center_spread(boxes)
        for _ in range(5):
            perm = list(rng.permutation(5))
            shuffled = [boxes[i] for i in perm]
            assert region_separation(models(shuffled)) == pytest.approx(base, abs=1e-12)
            assert center_spread(shuffled) == pytest.approx(spread, abs=1e-12)


class TestDiversityReward:
    def test_zero_weights(self, rng):
        cfg = RewardConfig(alpha=0.0, gamma=0.0)
        boxes = [random_bbox(rng) for _ in range(4)]
        assert diversity_reward(boxes, models(boxes), cfg)[2] == 0.0

    def test_alpha_only_reduces_to_spread(self, rng):
        cfg = RewardConfig(alpha=1.0, gamma=0.0)
        g = [random_bbox(rng) for _ in range(4)]
        assert diversity_reward(g, models(g), cfg)[2] == pytest.approx(center_spread(g), abs=1e-12)

    def test_weighted_composition(self, rng):
        cfg = RewardConfig(alpha=15.0, gamma=0.5)
        boxes = [random_bbox(rng) for _ in range(4)]
        expected = 15.0 * brute_spread(boxes) + 0.5 * brute_separation(boxes)
        assert diversity_reward(boxes, models(boxes), cfg)[2] == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_term_is_off(self, rng, monkeypatch):
        # a term whose weight is 0 is neither computed nor logged
        g = [random_bbox(rng) for _ in range(4)]
        spread = center_spread(g)
        sep = region_separation(models(g))
        monkeypatch.setattr(rewards_mod, "center_spread", lambda g: pytest.fail("spread computed"))
        cfg = RewardConfig(alpha=0.0, gamma=0.5)
        assert diversity_reward(g, models(g), cfg) == (0.0, sep, 0.5 * sep)
        monkeypatch.undo()
        monkeypatch.setattr(
            rewards_mod, "region_separation", lambda g: pytest.fail("separation computed")
        )
        cfg = RewardConfig(alpha=2.0, gamma=0.0)
        assert diversity_reward(g, None, cfg) == (spread, 0.0, 2.0 * spread)

    def test_linear_in_alpha(self, rng):
        g = [random_bbox(rng) for _ in range(4)]
        lo = diversity_reward(g, models(g), RewardConfig(alpha=5.0, gamma=0.0))[2]
        hi = diversity_reward(g, models(g), RewardConfig(alpha=10.0, gamma=0.0))[2]
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)


class TestCorrectness:
    def test_iou_examples(self):
        gt = BBox(0, 0, 0.5, 0.5)
        assert iou(gt, gt) == 1.0
        assert iou(BBox(0.6, 0.6, 0.9, 0.9), gt) == 0.0
        assert iou(BBox(0.25, 0, 0.75, 0.5), gt) == pytest.approx(1 / 3, abs=1e-12)

    def test_point_hit_at_center(self):
        gt = BBox(0.4, 0.4, 0.6, 0.6)
        assert correctness_point(gt, gt) == pytest.approx(2.0, abs=1e-12)

    def test_point_miss_decay(self):
        gt = BBox(0.0, 0.0, 0.1, 0.1)  # center (0.05, 0.05)
        pred = BBox(0.1, 0.1, 0.2, 0.2)  # center (0.15, 0.15), outside gt
        dist = math.hypot(0.1, 0.1)
        expected = math.exp(-dist / 0.1)
        assert correctness_point(pred, gt) == pytest.approx(expected, abs=1e-12)

    def test_point_distance_one_tau(self):
        gt = BBox(0.0, 0.0, 0.1, 0.1)  # center (0.05, 0.05)
        pred = BBox(0.1, 0.0, 0.2, 0.1)  # center (0.15, 0.05): distance 0.1, miss
        assert correctness_point(pred, gt) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_point_far_miss_vanishes(self):
        gt = BBox(0.0, 0.0, 0.02, 0.02)
        pred = BBox(0.96, 0.96, 1.0, 1.0)  # centers 1.37 apart: exp(-13.7)
        assert correctness_point(pred, gt) < 2e-6

    def test_gaussian_exact_match(self):
        gt = to_gaussian(BBox(0.3, 0.3, 0.5, 0.6))
        assert correctness_gaussian(gt, gt) == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_far_shift_vanishes(self):
        gt = BBox(0.0, 0.0, 0.05, 0.05)
        pred = BBox(0.9, 0.9, 0.95, 0.95)
        assert correctness_gaussian(to_gaussian(pred), to_gaussian(gt)) < 1e-6

    def test_gaussian_fixture_recomputation(self):
        gt = BBox(0.2, 0.2, 0.4, 0.5)
        pred = BBox(0.25, 0.3, 0.5, 0.55)
        ggt = to_gaussian(gt)
        gp = to_gaussian(pred)
        dx = (0.25 + 0.5) / 2 - 0.3
        dy = (0.3 + 0.55) / 2 - 0.35
        point = math.exp(-0.5 * (dx * dx / ggt[2] + dy * dy / ggt[3]))
        coverage = math.exp(-bhattacharyya(gp, ggt))
        got = correctness_gaussian(gp, ggt)
        assert got == pytest.approx(point + coverage, rel=1e-12)

    def test_dispatcher(self):
        gt = BBox(0.3, 0.3, 0.5, 0.5)
        pred = BBox(0.35, 0.3, 0.55, 0.5)
        assert correctness([pred], gt, RewardConfig(correctness_kind="iou")) == [iou(pred, gt)]
        cfg = RewardConfig(correctness_kind="point_distance")
        assert correctness([pred], gt, cfg) == [correctness_point(pred, gt)]
        cfg = RewardConfig(correctness_kind="gaussian_dense")
        gp, ggt = to_gaussian(pred), to_gaussian(gt)
        assert correctness([gp], ggt, cfg) == [correctness_gaussian(gp, ggt)]

    def test_coverage_term_maximized_at_gt(self, rng):
        gt = to_gaussian(BBox(0.4, 0.4, 0.6, 0.6))
        best = correctness_gaussian(gt, gt)
        for _ in range(50):
            pred = to_gaussian(random_bbox(rng))
            assert correctness_gaussian(pred, gt) <= best + 1e-12


def score_in_form(form, actions, gt, cfgs):
    """score_groups with its scalar or its array form forced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewards_mod, "ARRAY_MIN_BOXES", 0 if form == "array" else math.inf)
        return score_groups(actions, gt, cfgs)


class TestScoreGroups:
    @pytest.mark.parametrize("kind", ["iou", "point_distance", "gaussian_dense"])
    def test_equals_its_parts(self, rng, kind):
        actions = rng.normal(0.0, 1.5, (2, 4, 4))
        groups = [[action_to_bbox(u) for u in run] for run in actions.tolist()]
        gt = random_bbox(rng)
        cfgs = [RewardConfig(correctness_kind=kind), RewardConfig(gamma=0.0, correctness_kind=kind)]
        scores, bonus = score_in_form("scalar", actions, gt, cfgs)
        if kind == "gaussian_dense":
            want = [correctness(models(g), to_gaussian(gt), cfgs[0]) for g in groups]
        else:
            want = [correctness(g, gt, cfgs[0]) for g in groups]
        assert scores.shape == (2, 4) and scores.tolist() == want
        want = [list(diversity_reward(g, models(g), c)) for g, c in zip(groups, cfgs)]
        assert bonus.shape == (2, 3) and bonus.tolist() == want

    @pytest.mark.parametrize(
        "kind, gamma, modeled",
        [("gaussian_dense", 0.5, 1 + 4), ("gaussian_dense", 0.0, 1 + 4),
         ("iou", 0.5, 4), ("iou", 0.0, 0)],
    )
    def test_models_each_box_once_and_only_when_read(self, rng, monkeypatch, kind, gamma, modeled):
        calls = []
        monkeypatch.setattr(rewards_mod, "to_gaussian", lambda b: calls.append(b) or to_gaussian(b))
        cfg = RewardConfig(gamma=gamma, correctness_kind=kind)
        score_in_form("scalar", rng.normal(0.0, 1.5, (1, 4, 4)), random_bbox(rng), [cfg])
        assert len(calls) == modeled

    @pytest.mark.parametrize("kind, modeled", [("gaussian_dense", 1), ("iou", 0)])
    def test_array_form_models_only_the_truth(self, rng, monkeypatch, kind, modeled):
        # the array form models the boxes itself; the truth takes to_gaussian
        calls = []
        monkeypatch.setattr(rewards_mod, "to_gaussian", lambda b: calls.append(b) or to_gaussian(b))
        cfg = RewardConfig(correctness_kind=kind)
        score_in_form("array", rng.normal(0.0, 1.5, (1, 4, 4)), random_bbox(rng), [cfg])
        assert len(calls) == modeled

    def test_form_follows_the_batch_width(self, rng, monkeypatch):
        calls = []
        array_form = rewards_mod._score_array
        monkeypatch.setattr(
            rewards_mod, "_score_array", lambda *a: calls.append(a) or array_form(*a)
        )
        cfg = RewardConfig()
        for runs, n in ((1, 4), (7, 4), (8, 4), (4, 8), (12, 8)):
            score_groups(rng.normal(size=(runs, n, 4)), random_bbox(rng), [cfg] * runs)
        # ARRAY_MIN_BOXES boxes and more take the array form
        assert rewards_mod.ARRAY_MIN_BOXES == 32
        assert [a[0].shape[:2] for a in calls] == [(8, 4), (4, 8), (12, 8)]


unit = st.floats(0.0, 1.0)
variances = st.floats(1e-12, 1e6)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(unit), draw(unit)))
    y1, y2 = sorted((draw(unit), draw(unit)))
    return BBox(x1, y1, x2, y2)


gaussians = st.tuples(unit, unit, variances, variances)


@st.composite
def group_and_permutation(draw):
    group = draw(st.lists(boxes(), min_size=1, max_size=8))
    return group, draw(st.permutations(group))


class TestRewardProperties:
    @settings(max_examples=300, deadline=None)
    @given(gaussians, gaussians)
    def test_bhattacharyya_symmetric_bit_for_bit(self, a, b):
        assert bhattacharyya(a, b) == bhattacharyya(b, a)

    @settings(max_examples=300, deadline=None)
    @given(group_and_permutation())
    def test_center_spread_permutation_invariant(self, groups):
        group, permuted = groups
        # the centroid's rounding depends on summation order: five centers one
        # ulp apart have a spread of ~1e-32 that reordering moves by a third
        assert center_spread(permuted) == pytest.approx(
            center_spread(group), rel=1e-12, abs=1e-20
        )

    @settings(max_examples=300, deadline=None)
    @given(group_and_permutation())
    def test_region_separation_permutation_invariant(self, groups):
        group, permuted = groups
        assert region_separation(models(permuted)) == pytest.approx(
            region_separation(models(group)), rel=1e-12
        )


# Action coordinates at each guard of the decode: a center saturated at the
# screen edge (+-50), sides at SIZE_MIN (exp(-10) and below), at log(SIZE_MIN)
# and log(SIZE_MAX) exactly, and past the exp cap of 10.
EDGE_ACTIONS = [-50.0, -10.0, math.log(SIZE_MIN), 0.0, math.log(SIZE_MAX), 10.0, 50.0]
weights = st.just(0.0) | st.floats(1e-3, 30.0)


@st.composite
def steps(draw):
    """One step of a batch: (R, N, 4) actions, a ground truth, R configs of
    one kind with zero and non-zero weights mixed."""
    runs, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    coords = st.floats(-30.0, 30.0) | st.sampled_from(EDGE_ACTIONS)
    kind = draw(st.sampled_from(list(CORRECTNESS_KINDS)))
    cfgs = [
        RewardConfig(alpha=draw(weights), gamma=draw(weights), correctness_kind=kind)
        for _ in range(runs)
    ]
    return draw(arrays(float, (runs, n, 4), elements=coords)), list(draw(boxes())), cfgs


def assert_forms_agree(actions, gt, cfgs):
    scalar = score_in_form("scalar", actions, gt, cfgs)
    array = score_in_form("array", actions, gt, cfgs)
    for a, b in zip(scalar, array):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()  # bit for bit, signed zeros included


class TestArrayForm:
    """score_groups' array form gives the scalar form's bits."""

    @settings(max_examples=300, deadline=None)
    @given(steps())
    # a single box per group (no pairs), beside a wide group
    @example((np.zeros((3, 1, 4)), [0.4, 0.4, 0.6, 0.6], [RewardConfig()] * 3))
    # corners clipped at the screen and sides at SIZE_MIN: variances floored at EPS_MIN
    @example((
        np.array([[[50.0, -50.0, -10.0, -10.0], [-50.0, 50.0, -50.0, 10.0],
                   [0.0, 0.0, math.log(SIZE_MIN), math.log(SIZE_MAX)]]]),
        [0.0, 0.0, 1.0, 1.0], [RewardConfig(correctness_kind="point_distance")],
    ))
    # a truth with negative-zero corners: Python's max(0.0, -0.0) keeps 0.0,
    # numpy's maximum the -0.0, and the iou's sign shows which ran
    @example((
        np.array([[[-50.0, 0.0, 0.0, 0.0]] * 4]), [-0.0, 0.2, -0.0, 0.6],
        [RewardConfig(correctness_kind="iou")],
    ))
    def test_bit_equal_to_the_scalar_form(self, step):
        assert_forms_agree(*step)

    @pytest.mark.parametrize("kind", list(CORRECTNESS_KINDS))
    def test_bit_equal_on_wide_batches(self, kind):
        # wide batches, large actions, degenerate truths: the regime the
        # array form runs in
        rng = np.random.default_rng(27)
        for trial in range(100):
            runs, n = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            scale = float(rng.choice([0.3, 1.0, 3.0, 10.0, 30.0]))
            actions = rng.normal(0.0, scale, (runs, n, 4)) + rng.normal(0.0, 2.0, 4)
            x1, x2 = sorted(rng.random(2))
            y1, y2 = sorted(rng.random(2))
            gt = [x1, y1, x1 if trial % 5 == 0 else x2, y2]
            cfgs = [
                RewardConfig(
                    alpha=float(rng.choice([0.0, 20.0 * rng.random()])),
                    gamma=float(rng.choice([0.0, rng.random()])),
                    correctness_kind=kind,
                )
                for _ in range(runs)
            ]
            assert_forms_agree(actions, gt, cfgs)

    def test_floors_fire(self):
        # the edge example above reaches the guards it is meant to reach
        boxes = [action_to_bbox(u) for u in ([50.0, -50.0, -10.0, -10.0], [0.0, 0.0, -10.0, 10.0])]
        assert boxes[0][2] == 1.0 and boxes[0][1] == 0.0  # clipped at the screen
        assert to_gaussian(boxes[0])[2:] == (EPS_MIN, EPS_MIN)
        assert boxes[1][2] - boxes[1][0] == pytest.approx(SIZE_MIN)
        assert boxes[1][3] - boxes[1][1] == SIZE_MAX
