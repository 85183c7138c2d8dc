"""Linear-Gaussian box policy and its group-relative policy optimization.

The policy maps a state feature vector to a diagonal Gaussian over a raw
4-dim action (pre-squash center x/y, log-width, log-height). Groups of N
actions are sampled per instruction, scored, normalized into group-relative
advantages, and the policy ascends the likelihood-ratio objective with an
analytic KL penalty against a frozen reference snapshot. Policies are
immutable; every update returns a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox

LOG_STD_MIN = -6.0
LOG_STD_MAX = 1.0
SIZE_MIN = 1e-4
SIZE_MAX = 1.0
ADV_STD_FLOOR = 1e-12
LOG_2PI = math.log(2.0 * math.pi)
# The untrained policy: screen-centered boxes of this side, with these
# position and size log-stds.
INIT_SIZE = 0.2
INIT_LOG_STD = -1.6
INIT_LOG_STD_SIZE = -0.5


class NumericalAbort(RuntimeError):
    """Raised when an update would propagate non-finite values."""


@dataclass(frozen=True)
class OptimConfig:
    """Optimizer settings for the group-relative update loop.

    The learning rate default is tuned for this linear policy, not for any
    large-model setup. Each rollout gets one update.
    """

    beta: float = 0.04
    lr: float = 0.0012
    n_samples: int = 4

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta: must be >= 0, got {self.beta!r}")
        if self.lr <= 0.0:
            raise ValueError(f"lr: must be > 0, got {self.lr!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples: must be >= 1, got {self.n_samples!r}")


@dataclass(frozen=True)
class GroundingPolicy:
    """Linear-Gaussian policy: action mean = state @ W + b, per-dim std exp(log_std).

    A record that does not check itself: its makers keep the invariants
    (float arrays of the shapes below, all finite, log_std in
    [LOG_STD_MIN, LOG_STD_MAX]). `zeros` builds constants inside the bounds;
    `step`, the one update guard, aborts unless the new W, b and dlog_std
    are finite, then clips log_std; `verify`'s fixtures draw log_std inside
    the bounds.
    """

    W: np.ndarray        # (feature_dim, 4)
    b: np.ndarray        # (4,)
    log_std: np.ndarray  # (4,), clamped to [LOG_STD_MIN, LOG_STD_MAX]

    def action_mean(self, state: np.ndarray) -> np.ndarray:
        return state @ self.W + self.b

    def action_std(self) -> np.ndarray:
        return np.exp(self.log_std)

    @staticmethod
    def zeros(feature_dim: int) -> "GroundingPolicy":
        """Untrained policy: screen-centered INIT_SIZE boxes with the INIT_LOG_STD
        position noise and INIT_LOG_STD_SIZE size noise."""
        b = np.array([0.0, 0.0, math.log(INIT_SIZE), math.log(INIT_SIZE)])
        log_stds = np.array([INIT_LOG_STD, INIT_LOG_STD, INIT_LOG_STD_SIZE, INIT_LOG_STD_SIZE])
        return GroundingPolicy(np.zeros((feature_dim, 4)), b, log_stds)


@dataclass(frozen=True)
class GroupRollout:
    """One instruction's group: N raw actions, their boxes and log-probs."""

    state: np.ndarray          # (feature_dim,)
    actions: np.ndarray        # (N, 4) raw actions
    boxes: list[BBox]          # N decoded boxes
    logp_behavior: np.ndarray  # (N,) log-prob under the sampling policy; anchors the ratio

    @property
    def n(self) -> int:
        return self.actions.shape[0]


def action_to_bbox(u: np.ndarray) -> BBox:
    """Decode a raw action into a valid box.

    Center via sigmoid, sides via exp clamped to [1e-4, 1]; the corners are
    clipped to [0,1], so any finite action yields a valid box. The corners
    need no re-ordering: rounding is monotone, so fl(c - side/2) <= c <=
    fl(c + side/2) for a side >= 0, and the clip keeps that order.
    """
    cx = _sigmoid(u[0])
    cy = _sigmoid(u[1])
    w = min(max(math.exp(min(u[2], 10.0)), SIZE_MIN), SIZE_MAX)
    h = min(max(math.exp(min(u[3], 10.0)), SIZE_MIN), SIZE_MAX)
    x1 = min(max(cx - w / 2.0, 0.0), 1.0)
    x2 = min(max(cx + w / 2.0, 0.0), 1.0)
    y1 = min(max(cy - h / 2.0, 0.0), 1.0)
    y2 = min(max(cy + h / 2.0, 0.0), 1.0)
    return BBox(x1, y1, x2, y2)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gaussian_logp(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Log-density of each action row under the diagonal Gaussian."""
    std = np.exp(log_std)
    z = (actions - mean) / std
    return (-0.5 * z * z - log_std - 0.5 * LOG_2PI).sum(axis=-1)


def sample_group(
    policy: GroundingPolicy,
    state: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> GroupRollout:
    """Draw N raw actions at `state`, decoding boxes and recording their
    log-probs under the sampling policy."""
    mean = policy.action_mean(state)
    std = policy.action_std()
    noise = rng.standard_normal((n_samples, 4))
    actions = mean + std * noise
    boxes = [action_to_bbox(u) for u in actions]
    logp_behavior = gaussian_logp(actions, mean, policy.log_std)
    return GroupRollout(state, actions, boxes, logp_behavior)


def grpo_advantage(rewards: np.ndarray) -> np.ndarray:
    """Standardize rewards by the group mean and population std.

    Degenerate groups (all rewards equal, or a single sample) get all-zero
    advantages rather than dividing by ~0.
    """
    std = rewards.std()
    if std < ADV_STD_FLOOR:
        return np.zeros_like(rewards)
    return (rewards - rewards.mean()) / std


def kl_ref_theta(ref: GroundingPolicy, theta: GroundingPolicy, state: np.ndarray) -> float:
    """Exact KL(reference || current) between the action Gaussians at `state`."""
    mu_r = ref.action_mean(state)
    mu_t = theta.action_mean(state)
    var_r = np.exp(2.0 * ref.log_std)
    var_t = np.exp(2.0 * theta.log_std)
    per_dim = (
        theta.log_std - ref.log_std
        + (var_r + (mu_r - mu_t) ** 2) / (2.0 * var_t)
        - 0.5
    )
    return float(per_dim.sum())


def objective(
    rollout: GroupRollout,
    shaped: np.ndarray,
    theta: GroundingPolicy,
    ref: GroundingPolicy,
    beta: float,
) -> float:
    """J(theta) for a rollout and its (N,) shaped advantages A_i + r_div.

    J = mean_i ratio_i * shaped_i - beta * KL(ref || theta at state),
    with ratio_i = exp(logp_theta_i - logp_behavior_i): logp under `theta`
    is recomputed at the stored actions, so the ratio is 1 only when `theta`
    is the sampling policy.
    """
    mean = theta.action_mean(rollout.state)
    logp = gaussian_logp(rollout.actions, mean, theta.log_std)
    ratios = np.exp(logp - rollout.logp_behavior)
    surrogate = float((ratios * shaped).mean())
    return surrogate - beta * kl_ref_theta(ref, theta, rollout.state)


def grad_objective(
    rollout: GroupRollout,
    shaped: np.ndarray,
    theta: GroundingPolicy,
    ref: GroundingPolicy,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of `objective` w.r.t. theta's (W, b, log_std), as
    the tuple (dW, db, dlog_std)."""
    state = rollout.state
    mean = theta.action_mean(state)
    std = theta.action_std()
    var = std * std

    diff = rollout.actions - mean                     # (N, 4)
    z2 = diff * diff / var                            # (N, 4)
    logp = (-0.5 * z2 - theta.log_std - 0.5 * LOG_2PI).sum(axis=1)
    weights = np.exp(logp - rollout.logp_behavior) * shaped

    n = rollout.n
    # d logp / d mean = diff / var; d logp / d log_std = z^2 - 1
    dmu = (weights[:, None] * diff / var).sum(axis=0) / n
    dlog_std = (weights[:, None] * (z2 - 1.0)).sum(axis=0) / n

    if beta != 0.0:
        mu_r = ref.action_mean(state)
        var_r = np.exp(2.0 * ref.log_std)
        # KL(ref||theta) per dim: log s_t - log s_r + (var_r + (mu_r-mu_t)^2)/(2 var_t) - 1/2
        dkl_dmu = (mean - mu_r) / var
        dkl_dlog_std = 1.0 - (var_r + (mu_r - mean) ** 2) / var
        dmu = dmu - beta * dkl_dmu
        dlog_std = dlog_std - beta * dkl_dlog_std

    dW = np.outer(state, dmu)
    return dW, dmu, dlog_std


def step(
    theta: GroundingPolicy, grad: tuple[np.ndarray, np.ndarray, np.ndarray], lr: float
) -> GroundingPolicy:
    """One gradient-ascent step along grad = (dW, db, dlog_std); log_std is
    re-clamped to its bounds. This is the guard that keeps every trained
    GroundingPolicy finite and in bounds.

    Raises NumericalAbort when the new W or b, or dlog_std, is not finite,
    so the run stops with a diagnostic instead of silently corrupting the
    policy. theta is finite, so a non-finite dW or db, or a finite one that
    `lr` overflows, always shows in W or b; dlog_std is checked before the
    clip, which would turn an inf log_std finite.
    """
    dW, db, dlog_std = grad
    W = theta.W + lr * dW
    b = theta.b + lr * db
    if not (np.isfinite(W).all() and np.isfinite(b).all() and np.isfinite(dlog_std).all()):
        raise NumericalAbort(
            f"update with lr={lr} is not finite: |W|max={np.abs(W).max(initial=0.0)}, "
            f"b={b}, dlog_std={dlog_std}"
        )
    log_std = np.clip(theta.log_std + lr * dlog_std, LOG_STD_MIN, LOG_STD_MAX)
    return GroundingPolicy(W, b, log_std)
