import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guiflux.geometry import BBox
from guiflux.policy import (
    LOG_STD_MAX,
    GroundingPolicy,
    NumericalAbort,
    OptimConfig,
    action_to_bbox,
    gaussian_logp,
    grad_objective,
    grpo_advantage,
    kl_ref_theta,
    objective,
    sample_group,
    step,
)


def make_policy(rng, feature_dim=6):
    return GroundingPolicy(
        rng.normal(0, 0.4, (feature_dim, 4)),
        rng.normal(0, 0.3, 4),
        rng.uniform(-3, 0, 4),
    )


def perturbed(policy, rng, scale=0.05):
    return GroundingPolicy(
        policy.W + rng.normal(0, scale, policy.W.shape),
        policy.b + rng.normal(0, scale, 4),
        np.clip(policy.log_std + rng.normal(0, scale, 4), -6.0, 1.0),
    )


def make_rollout(rng, behavior, n=4):
    """A rollout, its advantages and its diversity bonus."""
    state = rng.normal(0, 1.5, behavior.W.shape[0])
    rollout = sample_group(behavior, state, n, rng)
    return rollout, grpo_advantage(rng.random(n) * 2), float(rng.random())


class TestActionToBBox:
    def test_centered_half_box(self):
        b = action_to_bbox(np.array([0.0, 0.0, math.log(0.5), math.log(0.5)]))
        assert b.x1 == pytest.approx(0.25, abs=1e-12)
        assert b.y1 == pytest.approx(0.25, abs=1e-12)
        assert b.x2 == pytest.approx(0.75, abs=1e-12)
        assert b.y2 == pytest.approx(0.75, abs=1e-12)

    def test_width_floor(self):
        b = action_to_bbox(np.array([0.0, 0.0, -50.0, -50.0]))
        assert b.width == pytest.approx(1e-4, rel=1e-9)

    def test_saturated_center_clipped(self):
        b = action_to_bbox(np.array([50.0, 0.0, 0.0, 0.0]))
        assert b.x2 == 1.0
        assert 0 <= b.x1 <= 1.0

    def test_always_valid(self, rng):
        for _ in range(500):
            u = rng.normal(0, 5, 4)
            b = action_to_bbox(u)  # BBox validates on construction
            assert 0.0 <= b.x1 <= b.x2 <= 1.0
            assert 0.0 <= b.y1 <= b.y2 <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    @example([1e308, -1e308, 1e308, -1e308])
    @example([-1e308, 1e308, -1e308, 1e308])
    def test_any_finite_action_gives_valid_box(self, u):
        b = action_to_bbox(np.array(u))  # BBox validates on construction
        assert isinstance(b, BBox)
        assert 0.0 <= b.x1 <= b.x2 <= 1.0
        assert 0.0 <= b.y1 <= b.y2 <= 1.0


class TestPolicyTypes:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GroundingPolicy(np.zeros((3, 3)), np.zeros(4), np.zeros(4))

    def test_log_std_bounds(self):
        with pytest.raises(ValueError):
            GroundingPolicy(np.zeros((3, 4)), np.zeros(4), np.full(4, -7.0))

    def test_optim_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)
        with pytest.raises(ValueError):
            OptimConfig(beta=-0.1)

    def test_rollout_is_frozen(self, rng):
        rollout = sample_group(make_policy(rng), np.zeros(6), 4, rng)
        with pytest.raises(FrozenInstanceError):
            rollout.boxes = []


class TestSampleGroup:
    def test_deterministic_given_seed(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        r1 = sample_group(theta, state, 4, np.random.default_rng(7))
        r2 = sample_group(theta, state, 4, np.random.default_rng(7))
        assert np.array_equal(r1.actions, r2.actions)
        assert np.array_equal(r1.logp_behavior, r2.logp_behavior)
        assert r1.boxes == r2.boxes

    def test_floor_std_collapses_spread(self, rng):
        from guiflux.rewards import center_spread

        theta = GroundingPolicy(np.zeros((6, 4)), np.zeros(4), np.full(4, -6.0))
        rollout = sample_group(theta, np.zeros(6), 8, rng)
        assert center_spread(rollout.boxes) < 1e-4

    def test_logp_behavior_is_sampling_policy_logp(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        rollout = sample_group(theta, state, 4, rng)
        expected = gaussian_logp(rollout.actions, theta.action_mean(state), theta.log_std)
        assert np.array_equal(rollout.logp_behavior, expected)
        assert len({id(b) for b in rollout.boxes}) == 4


class TestGrpoAdvantage:
    def test_constant_rewards_zeroed(self):
        assert np.array_equal(grpo_advantage(np.ones(4)), np.zeros(4))

    def test_two_point_example(self):
        a = grpo_advantage(np.array([0.0, 2.0]))
        assert a == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_single_sample_zero(self):
        assert np.array_equal(grpo_advantage(np.array([3.7])), np.zeros(1))

    def test_normalization_identity(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            r = rng.random(n) * 10
            a = grpo_advantage(r)
            if r.std() < 1e-12:
                assert np.array_equal(a, np.zeros(n))
            else:
                assert abs(a.mean()) < 1e-9
                assert abs(a.std() - 1.0) < 1e-9


class TestKL:
    def test_identical_zero(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        assert kl_ref_theta(theta, theta, state) == 0.0

    def test_std_ratio_e(self, rng):
        ref = GroundingPolicy(np.zeros((6, 4)), np.zeros(4), np.full(4, -2.0))
        theta = GroundingPolicy(np.zeros((6, 4)), np.zeros(4), np.full(4, -1.0))
        per_dim = 1.0 + 1.0 / (2.0 * math.e ** 2) - 0.5
        assert kl_ref_theta(ref, theta, np.zeros(6)) == pytest.approx(4 * per_dim, rel=1e-12)

    def test_mean_shift_only(self):
        delta = 0.3
        ref = GroundingPolicy(np.zeros((6, 4)), np.zeros(4), np.zeros(4))
        b = np.zeros(4)
        b[2] = delta
        theta = GroundingPolicy(np.zeros((6, 4)), b, np.zeros(4))
        assert kl_ref_theta(ref, theta, np.zeros(6)) == pytest.approx(delta ** 2 / 2, rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            a, b = make_policy(rng), make_policy(rng)
            state = rng.normal(0, 1, 6)
            assert kl_ref_theta(a, b, state) >= 0.0


class TestObjective:
    def test_at_reference_equals_diversity_bonus(self, rng):
        theta = make_policy(rng)
        rollout, advantages, r_div = make_rollout(rng, theta)
        for beta in (0.0, 0.04):
            got = objective(rollout, advantages + r_div, theta, theta, beta)
            assert got == pytest.approx(r_div, abs=1e-9)

    def test_term_by_term_recomputation(self, rng):
        # sampled from ref, evaluated at theta: the ratios are not 1
        theta = make_policy(rng)
        ref = perturbed(theta, rng)
        rollout, advantages, r_div = make_rollout(rng, ref)
        beta = 0.04
        mean = theta.action_mean(rollout.state)
        expected = 0.0
        for i in range(rollout.n):
            logp_theta = sum(
                -0.5 * ((rollout.actions[i, d] - mean[d]) / math.exp(theta.log_std[d])) ** 2
                - theta.log_std[d] - 0.5 * math.log(2 * math.pi)
                for d in range(4)
            )
            ratio = math.exp(logp_theta - rollout.logp_behavior[i])
            expected += ratio * (advantages[i] + r_div)
        expected /= rollout.n
        expected -= beta * kl_ref_theta(ref, theta, rollout.state)
        got = objective(rollout, advantages + r_div, theta, ref, beta)
        assert got == pytest.approx(expected, rel=1e-12)


class TestGradObjective:
    def test_zero_weights_zero_gradient(self, rng):
        theta = make_policy(rng)
        rollout, _, _ = make_rollout(rng, theta)
        dW, db, dlog_std = grad_objective(rollout, np.zeros(rollout.n), theta, theta, beta=0.0)
        assert np.allclose(dW, 0.0) and np.allclose(db, 0.0) and np.allclose(dlog_std, 0.0)

    def test_kl_gradient_vanishes_at_reference(self, rng):
        theta = make_policy(rng)
        rollout, advantages, r_div = make_rollout(rng, theta)
        dW0, _, dlog_std0 = grad_objective(rollout, advantages + r_div, theta, theta, beta=0.0)
        dW1, _, dlog_std1 = grad_objective(rollout, advantages + r_div, theta, theta, beta=0.04)
        assert np.allclose(dW0, dW1, atol=1e-14)
        assert np.allclose(dlog_std0, dlog_std1, atol=1e-14)

    def test_matches_plain_policy_gradient_when_shaping_off(self, rng):
        # With no diversity bonus and beta=0 the update direction must equal
        # the group-normalized likelihood-ratio gradient computed by an
        # independent implementation that never builds the bonus at all.
        theta = make_policy(rng)
        state = rng.normal(0, 1.5, 6)
        rollout = sample_group(theta, state, 4, rng)
        rewards = rng.random(4) * 2
        dW, db, dlog_std = grad_objective(rollout, grpo_advantage(rewards), theta, theta, beta=0.0)

        mean = theta.action_mean(state)
        std = theta.action_std()
        adv = (rewards - rewards.mean()) / rewards.std()
        dmu = np.zeros(4)
        dlog = np.zeros(4)
        for i in range(4):
            z = (rollout.actions[i] - mean) / std
            dmu += adv[i] * z / std
            dlog += adv[i] * (z * z - 1.0)
        dmu /= 4
        dlog /= 4
        assert np.allclose(db, dmu, rtol=1e-10, atol=1e-12)
        assert np.allclose(dlog_std, dlog, rtol=1e-10, atol=1e-12)
        assert np.allclose(dW, np.outer(state, dmu), rtol=1e-10, atol=1e-12)


class TestStep:
    def test_zero_gradient_unchanged(self, rng):
        theta = make_policy(rng)
        g = (np.zeros_like(theta.W), np.zeros(4), np.zeros(4))
        out = step(theta, g, lr=0.1)
        assert np.array_equal(out.W, theta.W)
        assert np.array_equal(out.b, theta.b)

    def test_arithmetic(self, rng):
        theta = make_policy(rng)
        g = (np.ones_like(theta.W), np.full(4, 2.0), np.zeros(4))
        out = step(theta, g, lr=0.01)
        assert np.allclose(out.W, theta.W + 0.01)
        assert np.allclose(out.b, theta.b + 0.02)

    def test_log_std_reclamped(self):
        theta = GroundingPolicy(np.zeros((3, 4)), np.zeros(4), np.full(4, 0.9))
        g = (np.zeros((3, 4)), np.zeros(4), np.full(4, 100.0))
        out = step(theta, g, lr=1.0)
        assert np.all(out.log_std == 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("part", [0, 1, 2], ids=["dW", "db", "dlog_std"])
    def test_non_finite_aborts(self, rng, part, value):
        theta = make_policy(rng)
        g = [np.zeros_like(theta.W), np.zeros(4), np.zeros(4)]
        g[part] = np.full_like(g[part], value)
        with pytest.raises(NumericalAbort, match="lr=0.1"):
            step(theta, tuple(g), lr=0.1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_log_std_overflow_clamps_without_abort(self):
        # finite dlog_std times a huge lr overflows log_std to inf, which the
        # clip maps to LOG_STD_MAX: the guard reads dlog_std, not log_std
        theta = GroundingPolicy(np.zeros((3, 4)), np.zeros(4), np.zeros(4))
        g = (np.zeros((3, 4)), np.zeros(4), np.full(4, 10.0))
        out = step(theta, g, lr=1e308)
        assert np.all(out.log_std == LOG_STD_MAX)
        assert np.array_equal(out.W, theta.W) and np.array_equal(out.b, theta.b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("part", ["W", "b"])
    def test_overflowing_update_aborts(self, rng, part):
        # a finite gradient times a huge lr overflows W or b to inf
        theta = make_policy(rng)
        g = (
            np.full_like(theta.W, 10.0 if part == "W" else 0.0),
            np.full(4, 10.0 if part == "b" else 0.0),
            np.zeros(4),
        )
        with pytest.raises(NumericalAbort, match="lr=1e\\+308"):
            step(theta, g, lr=1e308)


class TestGaussianLogp:
    def test_standard_normal_density(self):
        logp = gaussian_logp(np.zeros((1, 4)), np.zeros(4), np.zeros(4))
        assert logp[0] == pytest.approx(-2.0 * math.log(2 * math.pi), rel=1e-12)
