import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guiflux.geometry import BBox, check_boxes
from guiflux.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    GroundingPolicy,
    GroupRollout,
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
    """A batch of one random policy."""
    return GroundingPolicy(
        rng.normal(0, 0.4, (1, feature_dim, 4)),
        rng.normal(0, 0.3, (1, 4)),
        rng.uniform(-3, 0, (1, 4)),
    )


def constant_policy(feature_dim, log_std, b=0.0, runs=1):
    return GroundingPolicy(
        np.zeros((runs, feature_dim, 4)), np.full((runs, 4), b), np.full((runs, 4), log_std)
    )


def perturbed(policy, rng, scale=0.05):
    return GroundingPolicy(
        policy.W + rng.normal(0, scale, policy.W.shape),
        policy.b + rng.normal(0, scale, policy.b.shape),
        np.clip(policy.log_std + rng.normal(0, scale, policy.log_std.shape), -6.0, 1.0),
    )


def advantage(rewards):
    """grpo_advantage about each group's mean, as the training step calls it."""
    return grpo_advantage(rewards, rewards.mean(axis=-1, keepdims=True))


def make_rollout(rng, behavior, n=4):
    """A rollout, its (R, n) advantages, its diversity bonus and its state."""
    state = rng.normal(0, 1.5, behavior.W.shape[1])
    rollout = sample_group(behavior.at(state), rng.standard_normal((n, 4)))
    return rollout, advantage(rng.random((1, n)) * 2), float(rng.random()), state


class TestActionToBBox:
    def test_centered_half_box(self):
        x1, y1, x2, y2 = action_to_bbox([0.0, 0.0, math.log(0.5), math.log(0.5)])
        assert x1 == pytest.approx(0.25, abs=1e-12)
        assert y1 == pytest.approx(0.25, abs=1e-12)
        assert x2 == pytest.approx(0.75, abs=1e-12)
        assert y2 == pytest.approx(0.75, abs=1e-12)

    def test_width_floor(self):
        x1, _, x2, _ = action_to_bbox([0.0, 0.0, -50.0, -50.0])
        assert x2 - x1 == pytest.approx(1e-4, rel=1e-9)

    def test_saturated_center_clipped(self):
        x1, _, x2, _ = action_to_bbox([50.0, 0.0, 0.0, 0.0])
        assert x2 == 1.0
        assert 0 <= x1 <= 1.0

    def test_always_valid(self, rng):
        for u in rng.normal(0, 5, (500, 4)).tolist():
            BBox(*action_to_bbox(u))  # BBox validates on construction

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    @example([1e308, -1e308, 1e308, -1e308])
    @example([-1e308, 1e308, -1e308, 1e308])
    def test_any_finite_action_gives_valid_box(self, u):
        box = action_to_bbox(u)
        assert all(type(c) is float for c in box)
        BBox(*box)  # BBox validates on construction

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
            st.floats(allow_nan=False) | st.sampled_from([-1e3, 1e3]),
            st.floats(allow_nan=False) | st.sampled_from([-1e3, 1e3]),
        ),
        min_size=1, max_size=16,
    ))
    @example([(0.0, 0.0, math.inf, -math.inf), (1e3, -1e3, -math.inf, math.inf)])
    def test_decoded_groups_pass_check_boxes(self, actions):
        # the training step scores decoded boxes without constructing a BBox
        check_boxes(np.array([action_to_bbox(u) for u in actions]))


class TestPolicyTypes:
    def test_optim_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)
        with pytest.raises(ValueError):
            OptimConfig(beta=-0.1)

    def test_rollout_is_frozen(self, rng):
        rollout = sample_group(make_policy(rng).at(np.zeros(6)), rng.standard_normal((4, 4)))
        with pytest.raises(FrozenInstanceError):
            rollout.boxes = []


class TestSampleGroup:
    def test_deterministic_given_seed(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        r1 = sample_group(theta.at(state), np.random.default_rng(7).standard_normal((4, 4)))
        r2 = sample_group(theta.at(state), np.random.default_rng(7).standard_normal((4, 4)))
        assert np.array_equal(r1.actions, r2.actions)
        assert np.array_equal(r1.logp_behavior, r2.logp_behavior)
        assert r1.boxes == r2.boxes

    def test_floor_std_collapses_spread(self, rng):
        from guiflux.rewards import center_spread

        theta = constant_policy(6, -6.0)
        rollout = sample_group(theta.at(np.zeros(6)), rng.standard_normal((8, 4)))
        assert center_spread(rollout.boxes[0]) < 1e-4

    def test_logp_behavior_is_sampling_policy_logp(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        noise = rng.standard_normal((4, 4))
        rollout = sample_group(theta.at(state), noise)
        assert np.array_equal(
            rollout.actions[0], theta.action_mean(state)[0] + theta.std[0] * noise
        )
        expected = gaussian_logp(rollout.actions, theta.at(state))
        assert np.array_equal(rollout.logp_behavior, expected)
        assert len({id(b) for b in rollout.boxes[0]}) == 4

    def test_runs_share_the_noise_draw(self, rng):
        # two runs of a batch, each equal to its batch of one on the same draw
        a, b = make_policy(rng), make_policy(rng)
        both = GroundingPolicy(*(np.concatenate(x) for x in zip(
            (a.W, a.b, a.log_std), (b.W, b.b, b.log_std)
        )))
        state = rng.normal(0, 1, 6)
        noise = rng.standard_normal((8, 4))
        batch = sample_group(both.at(state), noise)
        for r, alone in enumerate((a, b)):
            single = sample_group(alone.at(state), noise)
            assert np.array_equal(batch.actions[r], single.actions[0])
            assert np.array_equal(batch.logp_behavior[r], single.logp_behavior[0])
            assert batch.boxes[r] == single.boxes[0]


class TestGrpoAdvantage:
    def test_constant_rewards_zeroed(self):
        assert np.array_equal(advantage(np.ones(4)), np.zeros(4))

    def test_two_point_example(self):
        a = advantage(np.array([0.0, 2.0]))
        assert a == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_single_sample_zero(self):
        assert np.array_equal(advantage(np.array([3.7])), np.zeros(1))

    def test_rows_are_groups(self, rng):
        # each row is standardized on its own, exactly as that row alone
        r = rng.random((5, 8))
        r[2] = 0.7
        a = advantage(r)
        assert np.array_equal(a[2], np.zeros(8))
        for k in range(5):
            assert np.array_equal(a[k], advantage(r[k]))

    def test_normalization_identity(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            r = rng.random(n) * 10
            a = advantage(r)
            if r.std() < 1e-12:
                assert np.array_equal(a, np.zeros(n))
            else:
                assert abs(a.mean()) < 1e-9
                assert abs(a.std() - 1.0) < 1e-9


class TestKL:
    def test_identical_zero(self, rng):
        theta = make_policy(rng)
        state = rng.normal(0, 1, 6)
        assert kl_ref_theta(theta.at(state), theta.at(state)).tolist() == [0.0]

    def test_std_ratio_e(self, rng):
        ref = constant_policy(6, -2.0)
        theta = constant_policy(6, -1.0)
        per_dim = 1.0 + 1.0 / (2.0 * math.e ** 2) - 0.5
        state = np.zeros(6)
        assert kl_ref_theta(ref.at(state), theta.at(state)) == pytest.approx([4 * per_dim], rel=1e-12)

    def test_mean_shift_only(self):
        delta = 0.3
        ref = constant_policy(6, 0.0)
        b = np.zeros((1, 4))
        b[0, 2] = delta
        theta = GroundingPolicy(np.zeros((1, 6, 4)), b, np.zeros((1, 4)))
        state = np.zeros(6)
        assert kl_ref_theta(ref.at(state), theta.at(state)) == pytest.approx([delta ** 2 / 2], rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            a, b = make_policy(rng), make_policy(rng)
            state = rng.normal(0, 1, 6)
            assert kl_ref_theta(a.at(state), b.at(state))[0] >= 0.0


class TestObjective:
    def test_at_reference_equals_diversity_bonus(self, rng):
        theta = make_policy(rng)
        rollout, advantages, r_div, state = make_rollout(rng, theta)
        at = theta.at(state)
        for beta in (0.0, 0.04):
            got = objective(rollout, advantages + r_div, at, at, np.array([beta]))
            assert got == pytest.approx([r_div], abs=1e-9)

    def test_term_by_term_recomputation(self, rng):
        # sampled from ref, evaluated at theta: the ratios are not 1
        theta = make_policy(rng)
        ref = perturbed(theta, rng)
        rollout, advantages, r_div, state = make_rollout(rng, ref)
        beta = 0.04
        mean = theta.action_mean(state)[0]
        log_std = theta.log_std[0]
        expected = 0.0
        for i in range(rollout.n):
            logp_theta = sum(
                -0.5 * ((rollout.actions[0, i, d] - mean[d]) / math.exp(log_std[d])) ** 2
                - log_std[d] - 0.5 * math.log(2 * math.pi)
                for d in range(4)
            )
            ratio = math.exp(logp_theta - rollout.logp_behavior[0, i])
            expected += ratio * (advantages[0, i] + r_div)
        expected /= rollout.n
        expected -= beta * kl_ref_theta(ref.at(state), theta.at(state))[0]
        got = objective(
            rollout, advantages + r_div, theta.at(state), ref.at(state), np.array([beta])
        )
        assert got == pytest.approx([expected], rel=1e-12)


class TestGradObjective:
    def test_zero_weights_zero_gradient(self, rng):
        theta = make_policy(rng)
        rollout, _, _, state = make_rollout(rng, theta)
        at = theta.at(state)
        dW, db, dlog_std = grad_objective(
            rollout, np.zeros((1, rollout.n)), at, at, beta=np.array([0.0]), kl_on=None
        )
        assert np.allclose(dW, 0.0) and np.allclose(db, 0.0) and np.allclose(dlog_std, 0.0)

    def test_kl_gradient_vanishes_at_reference(self, rng):
        theta = make_policy(rng)
        rollout, advantages, r_div, state = make_rollout(rng, theta)
        shaped = advantages + r_div
        at = theta.at(state)
        dW0, _, dlog_std0 = grad_objective(rollout, shaped, at, at, np.array([0.0]), None)
        dW1, _, dlog_std1 = grad_objective(
            rollout, shaped, at, at, np.array([0.04]), np.array([[True]])
        )
        assert np.allclose(dW0, dW1, atol=1e-14)
        assert np.allclose(dlog_std0, dlog_std1, atol=1e-14)

    def test_matches_plain_policy_gradient_when_shaping_off(self, rng):
        # With no diversity bonus and beta=0 the update direction must equal
        # the group-normalized likelihood-ratio gradient computed by an
        # independent implementation that never builds the bonus at all.
        theta = make_policy(rng)
        state = rng.normal(0, 1.5, 6)
        at = theta.at(state)
        rollout = sample_group(at, rng.standard_normal((4, 4)))
        rewards = rng.random(4) * 2
        dW, db, dlog_std = grad_objective(
            rollout, advantage(rewards[None]), at, at, beta=np.array([0.0]), kl_on=None
        )

        mean = theta.action_mean(state)
        std = theta.std
        adv = (rewards - rewards.mean()) / rewards.std()
        dmu = np.zeros((1, 4))
        dlog = np.zeros((1, 4))
        for i in range(4):
            z = (rollout.actions[:, i] - mean) / std
            dmu += adv[i] * z / std
            dlog += adv[i] * (z * z - 1.0)
        dmu /= 4
        dlog /= 4
        assert np.allclose(db, dmu, rtol=1e-10, atol=1e-12)
        assert np.allclose(dlog_std, dlog, rtol=1e-10, atol=1e-12)
        assert np.allclose(dW[0], np.outer(state, dmu[0]), rtol=1e-10, atol=1e-12)

    def test_beta_zero_run_gets_no_kl_term(self, rng):
        # per-run beta: each row's gradient equals its batch of one
        theta = make_policy(rng)
        ref = perturbed(theta, rng, scale=0.3)
        rollout, advantages, r_div, state = make_rollout(rng, theta)
        two = GroundingPolicy(*(np.concatenate([x, x]) for x in (theta.W, theta.b, theta.log_std)))
        two_ref = GroundingPolicy(*(np.concatenate([x, x]) for x in (ref.W, ref.b, ref.log_std)))
        two_rollout = GroupRollout(
            np.concatenate([rollout.actions, rollout.actions]),
            rollout.boxes * 2,
            np.concatenate([rollout.logp_behavior, rollout.logp_behavior]),
        )
        both = grad_objective(
            two_rollout, np.concatenate([advantages, advantages]) + r_div,
            two.at(state), two_ref.at(state), np.array([0.04, 0.0]), np.array([[True], [False]]),
        )
        for r, beta in enumerate((0.04, 0.0)):
            alone = grad_objective(
                rollout, advantages + r_div, theta.at(state), ref.at(state), np.array([beta]),
                np.array([[True]]) if beta else None,
            )
            for got, want in zip(both, alone):
                assert np.array_equal(got[r], want[0])


class TestStep:
    def test_zero_gradient_unchanged(self, rng):
        theta = make_policy(rng)
        g = (np.zeros_like(theta.W), np.zeros((1, 4)), np.zeros((1, 4)))
        out, aborts = step(theta, g, lr=0.1)
        assert aborts == {}
        assert np.array_equal(out.W, theta.W)
        assert np.array_equal(out.b, theta.b)

    def test_arithmetic(self, rng):
        theta = make_policy(rng)
        g = (np.ones_like(theta.W), np.full((1, 4), 2.0), np.zeros((1, 4)))
        out, _ = step(theta, g, lr=0.01)
        assert np.allclose(out.W, theta.W + 0.01)
        assert np.allclose(out.b, theta.b + 0.02)

    def test_log_std_reclamped(self):
        theta = constant_policy(3, 0.9)
        g = (np.zeros((1, 3, 4)), np.zeros((1, 4)), np.full((1, 4), 100.0))
        out, _ = step(theta, g, lr=1.0)
        assert np.all(out.log_std == 1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_log_std_clamp_equals_clip(self, rng):
        # step clamps with np.minimum(np.maximum(...)); it must agree with
        # np.clip on every sum step can form: finite, or +-inf where lr *
        # dlog_std overflows. Row 0 reaches +-inf and lands on both bounds.
        log_std = rng.uniform(LOG_STD_MIN, LOG_STD_MAX, (64, 4))
        dlog_std = rng.normal(0.0, 3.0, (64, 4))
        log_std[0] = [0.0, 0.0, LOG_STD_MIN, LOG_STD_MAX]
        dlog_std[0] = [1e308, -1e308, 0.0, 0.0]
        theta = GroundingPolicy(np.zeros((64, 3, 4)), np.zeros((64, 4)), log_std)
        out, aborts = step(theta, (np.zeros((64, 3, 4)), np.zeros((64, 4)), dlog_std), 2.0)
        assert aborts == {}
        proposed = log_std + 2.0 * dlog_std
        assert (proposed < LOG_STD_MIN).any() and (proposed > LOG_STD_MAX).any()
        assert np.array_equal(out.log_std, np.clip(proposed, LOG_STD_MIN, LOG_STD_MAX))
        assert out.log_std[0].tolist() == [LOG_STD_MAX, LOG_STD_MIN, LOG_STD_MIN, LOG_STD_MAX]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("part", [0, 1, 2], ids=["dW", "db", "dlog_std"])
    def test_non_finite_aborts(self, rng, part, value):
        theta = make_policy(rng)
        g = [np.zeros_like(theta.W), np.zeros((1, 4)), np.zeros((1, 4))]
        g[part] = np.full_like(g[part], value)
        out, aborts = step(theta, tuple(g), lr=0.1)
        assert list(aborts) == [0] and isinstance(aborts[0], NumericalAbort)
        assert "lr=0.1" in str(aborts[0])
        # the aborted row keeps theta's policy
        assert np.array_equal(out.W, theta.W) and np.array_equal(out.b, theta.b)
        assert np.array_equal(out.log_std, theta.log_std)

    def test_non_finite_row_leaves_the_others(self, rng):
        # the runs around an aborted row get exactly their own update, and
        # the aborted row keeps its policy
        runs = [make_policy(rng) for _ in range(3)]
        grads = [
            (rng.normal(size=(1, 6, 4)), rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))
            for _ in runs
        ]
        grads[1][1][0, 2] = math.nan
        batch = GroundingPolicy(*(np.concatenate(x) for x in zip(
            *((p.W, p.b, p.log_std) for p in runs)
        )))
        out, aborts = step(batch, tuple(np.concatenate(x) for x in zip(*grads)), lr=0.1)
        assert list(aborts) == [1] and "lr=0.1" in str(aborts[1])
        for r in (0, 2):
            alone, none = step(runs[r], grads[r], lr=0.1)
            assert none == {}
            assert np.array_equal(out.W[r], alone.W[0])
            assert np.array_equal(out.b[r], alone.b[0])
            assert np.array_equal(out.log_std[r], alone.log_std[0])
        assert np.array_equal(out.W[1], batch.W[1]) and np.array_equal(out.b[1], batch.b[1])
        assert np.array_equal(out.log_std[1], batch.log_std[1])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_log_std_overflow_clamps_without_abort(self):
        # finite dlog_std times a huge lr overflows log_std to inf, which the
        # clip maps to LOG_STD_MAX: the guard reads dlog_std, not log_std
        theta = constant_policy(3, 0.0)
        g = (np.zeros((1, 3, 4)), np.zeros((1, 4)), np.full((1, 4), 10.0))
        out, aborts = step(theta, g, lr=1e308)
        assert aborts == {}
        assert np.all(out.log_std == LOG_STD_MAX)
        assert np.array_equal(out.W, theta.W) and np.array_equal(out.b, theta.b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("part", ["W", "b"])
    def test_overflowing_update_aborts(self, rng, part):
        # a finite gradient times a huge lr overflows W or b to inf
        theta = make_policy(rng)
        g = (
            np.full_like(theta.W, 10.0 if part == "W" else 0.0),
            np.full((1, 4), 10.0 if part == "b" else 0.0),
            np.zeros((1, 4)),
        )
        _, aborts = step(theta, g, lr=1e308)
        assert list(aborts) == [0] and "lr=1e+308" in str(aborts[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.tuples(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=12, max_size=12),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
            st.lists(st.floats(LOG_STD_MIN, LOG_STD_MAX), min_size=4, max_size=4),
        ),
        grad=st.tuples(
            st.lists(st.floats(), min_size=12, max_size=12),
            st.lists(st.floats(), min_size=4, max_size=4),
            st.lists(st.floats(), min_size=4, max_size=4),
        ),
        lr=st.floats(0.0, 1e308, exclude_min=True),
    )
    def test_result_keeps_the_policy_invariants(self, theta, grad, lr):
        # step is the one guard of GroundingPolicy: from a finite policy,
        # any gradient and any lr either abort and keep theta's row, or give
        # a finite policy with log_std in bounds; the shapes never change
        W, b, log_std = (np.array(v) for v in theta)
        theta = GroundingPolicy(W.reshape(1, 3, 4), b.reshape(1, 4), log_std.reshape(1, 4))
        dW, db, dlog_std = (np.array(v) for v in grad)
        out, aborts = step(theta, (dW.reshape(1, 3, 4), db.reshape(1, 4), dlog_std.reshape(1, 4)), lr)
        if aborts:
            assert list(aborts) == [0]
            assert np.array_equal(out.W, theta.W) and np.array_equal(out.b, theta.b)
            assert np.array_equal(out.log_std, theta.log_std)
            return
        assert out.W.shape == (1, 3, 4) and out.b.shape == (1, 4) and out.log_std.shape == (1, 4)
        assert np.isfinite(out.W).all() and np.isfinite(out.b).all()
        assert ((LOG_STD_MIN <= out.log_std) & (out.log_std <= LOG_STD_MAX)).all()


class TestGaussianLogp:
    def test_standard_normal_density(self):
        logp = gaussian_logp(np.zeros((1, 1, 4)), constant_policy(1, 0.0).at(np.zeros(1)))
        assert logp[0, 0] == pytest.approx(-2.0 * math.log(2 * math.pi), rel=1e-12)
