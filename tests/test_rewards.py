import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guiflux.rewards as rewards_mod
from guiflux.geometry import BBox, iou, to_gaussian
from guiflux.rewards import (
    EPS_MIN,
    KAPPA,
    TAU,
    RewardConfig,
    bhattacharyya,
    center_spread,
    correctness,
    correctness_gaussian,
    correctness_point,
    diversity_reward,
    region_separation,
)

from conftest import random_bbox


def brute_spread(boxes):
    cs = [((b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2) for b in boxes]
    mx = sum(c[0] for c in cs) / len(cs)
    my = sum(c[1] for c in cs) / len(cs)
    return sum((c[0] - mx) ** 2 + (c[1] - my) ** 2 for c in cs) / len(cs)


def brute_separation(boxes, kappa, eps_min):
    gs = [to_gaussian(b, kappa, eps_min) for b in boxes]
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
        with pytest.raises(ValueError):
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
        assert region_separation([b] * 4, 0.25, 1e-8) == 0.0

    def test_two_boxes_single_pair(self):
        boxes = [BBox(0.1, 0.1, 0.3, 0.3), BBox(0.5, 0.5, 0.8, 0.9)]
        expected = bhattacharyya(
            to_gaussian(boxes[0], 0.25, 1e-8), to_gaussian(boxes[1], 0.25, 1e-8)
        )
        got = region_separation(boxes, 0.25, 1e-8)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_single_box_zero(self):
        assert region_separation([BBox(0, 0, 0.5, 0.5)], 0.25, 1e-8) == 0.0

    def test_pairwise_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            boxes = [random_bbox(rng) for _ in range(n)]
            got = region_separation(boxes, 0.25, 1e-8)
            assert got == pytest.approx(brute_separation(boxes, 0.25, 1e-8), abs=1e-9)

    def test_permutation_invariance(self, rng):
        boxes = [random_bbox(rng) for _ in range(5)]
        base = region_separation(boxes, 0.25, 1e-8)
        spread = center_spread(boxes)
        for _ in range(5):
            perm = list(rng.permutation(5))
            shuffled = [boxes[i] for i in perm]
            assert region_separation(shuffled, 0.25, 1e-8) == pytest.approx(base, abs=1e-12)
            assert center_spread(shuffled) == pytest.approx(spread, abs=1e-12)


class TestDiversityReward:
    def test_zero_weights(self, rng):
        cfg = RewardConfig(alpha=0.0, gamma=0.0)
        boxes = [random_bbox(rng) for _ in range(4)]
        assert diversity_reward(boxes, cfg)[2] == 0.0

    def test_alpha_only_reduces_to_spread(self, rng):
        cfg = RewardConfig(alpha=1.0, gamma=0.0)
        g = [random_bbox(rng) for _ in range(4)]
        assert diversity_reward(g, cfg)[2] == pytest.approx(center_spread(g), abs=1e-12)

    def test_weighted_composition(self, rng):
        cfg = RewardConfig(alpha=15.0, gamma=0.5)
        boxes = [random_bbox(rng) for _ in range(4)]
        expected = 15.0 * brute_spread(boxes) + 0.5 * brute_separation(boxes, KAPPA, EPS_MIN)
        assert diversity_reward(boxes, cfg)[2] == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_term_is_off(self, rng, monkeypatch):
        # a term whose weight is 0 is neither computed nor logged
        g = [random_bbox(rng) for _ in range(4)]
        spread = center_spread(g)
        sep = region_separation(g, 1.0, 1e-8)
        monkeypatch.setattr(rewards_mod, "center_spread", lambda g: pytest.fail("spread computed"))
        assert diversity_reward(g, RewardConfig(alpha=0.0, gamma=0.5)) == (0.0, sep, 0.5 * sep)
        monkeypatch.undo()
        monkeypatch.setattr(
            rewards_mod, "region_separation", lambda *a: pytest.fail("separation computed")
        )
        assert diversity_reward(g, RewardConfig(alpha=2.0, gamma=0.0)) == (spread, 0.0, 2.0 * spread)

    def test_linear_in_alpha(self, rng):
        g = [random_bbox(rng) for _ in range(4)]
        lo = diversity_reward(g, RewardConfig(alpha=5.0, gamma=0.0))[2]
        hi = diversity_reward(g, RewardConfig(alpha=10.0, gamma=0.0))[2]
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)


class TestCorrectness:
    def test_iou_examples(self):
        gt = BBox(0, 0, 0.5, 0.5)
        assert iou(gt, gt) == 1.0
        assert iou(BBox(0.6, 0.6, 0.9, 0.9), gt) == 0.0
        assert iou(BBox(0.25, 0, 0.75, 0.5), gt) == pytest.approx(1 / 3, abs=1e-12)

    def test_point_hit_at_center(self):
        gt = BBox(0.4, 0.4, 0.6, 0.6)
        assert correctness_point(gt, gt, tau=0.1) == pytest.approx(2.0, abs=1e-12)

    def test_point_miss_decay(self):
        gt = BBox(0.0, 0.0, 0.1, 0.1)  # center (0.05, 0.05)
        pred = BBox(0.1, 0.1, 0.2, 0.2)  # center (0.15, 0.15), outside gt
        dist = math.hypot(0.1, 0.1)
        expected = math.exp(-dist / 0.1)
        assert correctness_point(pred, gt, tau=0.1) == pytest.approx(expected, abs=1e-12)

    def test_point_distance_one_tau(self):
        gt = BBox(0.0, 0.0, 0.1, 0.1)  # center (0.05, 0.05)
        pred = BBox(0.1, 0.0, 0.2, 0.1)  # center (0.15, 0.05): distance 0.1, miss
        assert correctness_point(pred, gt, tau=0.1) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_point_far_miss_vanishes(self):
        gt = BBox(0.0, 0.0, 0.02, 0.02)
        pred = BBox(0.96, 0.96, 1.0, 1.0)
        assert correctness_point(pred, gt, tau=0.05) < 1e-8

    def test_gaussian_exact_match(self):
        gt = BBox(0.3, 0.3, 0.5, 0.6)
        assert correctness_gaussian(gt, gt, kappa=0.25, eps_min=1e-8) == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_far_shift_vanishes(self):
        gt = BBox(0.0, 0.0, 0.05, 0.05)
        pred = BBox(0.9, 0.9, 0.95, 0.95)
        assert correctness_gaussian(pred, gt, kappa=0.25, eps_min=1e-8) < 1e-6

    def test_gaussian_fixture_recomputation(self):
        gt = BBox(0.2, 0.2, 0.4, 0.5)
        pred = BBox(0.25, 0.3, 0.5, 0.55)
        kappa, eps = 0.25, 1e-8
        ggt = to_gaussian(gt, kappa, eps)
        gp = to_gaussian(pred, kappa, eps)
        dx = (0.25 + 0.5) / 2 - 0.3
        dy = (0.3 + 0.55) / 2 - 0.35
        point = math.exp(-0.5 * (dx * dx / ggt[2] + dy * dy / ggt[3]))
        coverage = math.exp(-bhattacharyya(gp, ggt))
        got = correctness_gaussian(pred, gt, kappa, eps)
        assert got == pytest.approx(point + coverage, rel=1e-12)

    def test_dispatcher(self):
        gt = BBox(0.3, 0.3, 0.5, 0.5)
        pred = BBox(0.35, 0.3, 0.55, 0.5)
        assert correctness(pred, gt, RewardConfig(correctness_kind="iou")) == iou(pred, gt)
        cfg = RewardConfig(correctness_kind="point_distance")
        assert correctness(pred, gt, cfg) == correctness_point(pred, gt, TAU)
        cfg = RewardConfig(correctness_kind="gaussian_dense")
        assert correctness(pred, gt, cfg) == correctness_gaussian(pred, gt, KAPPA, EPS_MIN)

    def test_coverage_term_maximized_at_gt(self, rng):
        gt = BBox(0.4, 0.4, 0.6, 0.6)
        best = correctness_gaussian(gt, gt, 0.25, 1e-8)
        for _ in range(50):
            pred = random_bbox(rng)
            assert correctness_gaussian(pred, gt, 0.25, 1e-8) <= best + 1e-12


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
        assert region_separation(permuted, 0.5, 1e-8) == pytest.approx(
            region_separation(group, 0.5, 1e-8), rel=1e-12
        )
