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
    init_log_std: float = -1.6
    init_log_std_size: float = -0.5
    init_size: float = 0.2

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for name in ("init_log_std", "init_log_std_size"):
            v = getattr(self, name)
            if not LOG_STD_MIN <= v <= LOG_STD_MAX:
                raise ValueError(f"{name} {v} outside [{LOG_STD_MIN}, {LOG_STD_MAX}]")
        if not SIZE_MIN < self.init_size <= SIZE_MAX:
            raise ValueError(f"init_size outside ({SIZE_MIN}, {SIZE_MAX}]")


@dataclass(frozen=True)
class GroundingPolicy:
    """Linear-Gaussian policy: action mean = state @ W + b, per-dim std exp(log_std)."""

    W: np.ndarray        # (feature_dim, 4)
    b: np.ndarray        # (4,)
    log_std: np.ndarray  # (4,), clamped to [LOG_STD_MIN, LOG_STD_MAX]

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float)
        log_std = np.asarray(self.log_std, dtype=float)
        if W.ndim != 2 or W.shape[1] != 4 or b.shape != (4,) or log_std.shape != (4,):
            raise ValueError(
                f"bad parameter shapes W{W.shape} b{b.shape} log_std{log_std.shape}"
            )
        if not (np.isfinite(W).all() and np.isfinite(b).all() and np.isfinite(log_std).all()):
            raise ValueError("non-finite policy parameters")
        if (log_std < LOG_STD_MIN - 1e-12).any() or (log_std > LOG_STD_MAX + 1e-12).any():
            raise ValueError(f"log_std outside [{LOG_STD_MIN}, {LOG_STD_MAX}]")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "log_std", log_std)

    def action_mean(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float) @ self.W + self.b

    def action_std(self) -> np.ndarray:
        return np.exp(self.log_std)

    @staticmethod
    def zeros(feature_dim: int, optim: OptimConfig = OptimConfig()) -> "GroundingPolicy":
        """Untrained policy: screen-centered boxes with `optim`'s element-size
        prior, position-noise prior and size-noise prior."""
        size, pos_std, size_std = optim.init_size, optim.init_log_std, optim.init_log_std_size
        b = np.array([0.0, 0.0, math.log(size), math.log(size)])
        log_stds = np.array([pos_std, pos_std, size_std, size_std], dtype=float)
        return GroundingPolicy(np.zeros((feature_dim, 4)), b, log_stds)


@dataclass(frozen=True)
class GroupRollout:
    """One instruction's group: N raw actions, their boxes and log-probs."""

    state: np.ndarray          # (feature_dim,)
    actions: np.ndarray        # (N, 4) raw actions
    boxes: list[BBox]          # N decoded boxes
    logp_behavior: np.ndarray  # (N,) log-prob under the sampling policy; anchors the ratio

    def __post_init__(self):
        n = self.actions.shape[0]
        if not (len(self.boxes) == n and self.logp_behavior.shape == (n,)):
            raise ValueError("rollout field lengths disagree")

    @property
    def n(self) -> int:
        return self.actions.shape[0]


def action_to_bbox(u: np.ndarray) -> BBox:
    """Decode a raw action into a valid box.

    Center via sigmoid, sides via exp clamped to [1e-4, 1]; the corners are
    clipped to [0,1] and re-ordered, so any finite action yields a valid box.
    """
    u = np.asarray(u, dtype=float)
    cx = _sigmoid(u[0])
    cy = _sigmoid(u[1])
    w = min(max(math.exp(min(u[2], 10.0)), SIZE_MIN), SIZE_MAX)
    h = min(max(math.exp(min(u[3], 10.0)), SIZE_MIN), SIZE_MAX)
    x1 = min(max(cx - w / 2.0, 0.0), 1.0)
    x2 = min(max(cx + w / 2.0, 0.0), 1.0)
    y1 = min(max(cy - h / 2.0, 0.0), 1.0)
    y2 = min(max(cy + h / 2.0, 0.0), 1.0)
    return BBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    state = np.asarray(state, dtype=float)
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
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rewards must be a non-empty 1-d array")
    std = r.std()
    if std < ADV_STD_FLOOR:
        return np.zeros_like(r)
    return (r - r.mean()) / std


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
    re-clamped to its bounds.

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
