"""Linear-Gaussian box policies and their group-relative policy optimization.

A policy maps a state feature vector to a diagonal Gaussian over a raw
4-dim action (pre-squash center x/y, log-width, log-height). Policies come
in batches: every array has a leading run axis R, one row per run, and the
runs of a batch share each state and each draw of action noise. Groups of N
actions are sampled per instruction, scored, normalized into group-relative
advantages, and each run ascends its likelihood-ratio objective with an
analytic KL penalty against a frozen reference snapshot. Policies are
immutable; every update returns a new one. `gaussian_logp`, `kl_ref_theta`
and `objective` also take records stacked over T steps, with (T, R, ...)
arrays, and give each step the values a call on that step alone gives.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

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
    """R linear-Gaussian policies, one per run: run r's action mean is
    state @ W[r] + b[r], its per-dim std exp(log_std[r]).

    A record that does not check itself: its makers keep the invariants
    (float arrays of the shapes below, all finite, log_std in
    [LOG_STD_MIN, LOG_STD_MAX]). `zeros` builds constants inside the bounds;
    `step`, the one update guard, keeps theta's row wherever the new W, b or
    dlog_std is not finite, then clips log_std; `verify`'s fixtures draw
    log_std inside the bounds.
    """

    W: np.ndarray        # (R, feature_dim, 4)
    b: np.ndarray        # (R, 4)
    log_std: np.ndarray  # (R, 4), clamped to [LOG_STD_MIN, LOG_STD_MAX]
    # exp(log_std) and the KL's exp(2 log_std), which rounds unlike std * std
    std: np.ndarray = field(init=False, repr=False, compare=False)
    var: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "std", np.exp(self.log_std))
        object.__setattr__(self, "var", np.exp(2.0 * self.log_std))

    def action_mean(self, state: np.ndarray) -> np.ndarray:
        """(R, 4) mean actions at one (feature_dim,) state."""
        return state @ self.W + self.b

    def at(self, state: np.ndarray) -> "ActionGaussians":
        """Each run's action Gaussian at `state`, for the functions below."""
        return ActionGaussians(state, self.action_mean(state), self.log_std, self.std, self.var)

    @staticmethod
    def zeros(feature_dim: int, runs: int = 1) -> "GroundingPolicy":
        """`runs` untrained policies: screen-centered INIT_SIZE boxes with the
        INIT_LOG_STD position noise and INIT_LOG_STD_SIZE size noise."""
        b = np.array([0.0, 0.0, math.log(INIT_SIZE), math.log(INIT_SIZE)])
        log_stds = np.array([INIT_LOG_STD, INIT_LOG_STD, INIT_LOG_STD_SIZE, INIT_LOG_STD_SIZE])
        return GroundingPolicy(
            np.zeros((runs, feature_dim, 4)), np.tile(b, (runs, 1)), np.tile(log_stds, (runs, 1))
        )


# R runs' action Gaussians at one (feature_dim,) state, each field but the state
# (R, 4); a tuple, as a step builds three and a frozen dataclass costs more.
ActionGaussians = namedtuple("ActionGaussians", "state mean log_std std var")


@dataclass(frozen=True)
class GroupRollout:
    """One instruction's group per run: N raw actions, their boxes and log-probs."""

    actions: np.ndarray            # (R, N, 4) raw actions
    boxes: list[list[tuple[float, ...]]]  # per run, its N decoded (x1, y1, x2, y2)
    logp_behavior: np.ndarray      # (R, N) log-prob under the sampling policy; anchors the ratio

    @property
    def n(self) -> int:
        return self.actions.shape[-2]


def action_to_bbox(u: Sequence[float]) -> tuple[float, float, float, float]:
    """Decode a raw action into the corners (x1, y1, x2, y2) of a valid box.

    Center via sigmoid, sides via exp clamped to [1e-4, 1]; the corners are
    clipped to [0,1], so any finite action yields a box that keeps the
    `BBox` invariants, and the result is not re-checked. The corners need no
    re-ordering: rounding is monotone, so fl(c - side/2) <= c <= fl(c +
    side/2) for a side >= 0, and the clip keeps that order.
    """
    cx = _sigmoid(u[0])
    cy = _sigmoid(u[1])
    w = min(max(math.exp(min(u[2], 10.0)), SIZE_MIN), SIZE_MAX)
    h = min(max(math.exp(min(u[3], 10.0)), SIZE_MIN), SIZE_MAX)
    x1 = min(max(cx - w / 2.0, 0.0), 1.0)
    x2 = min(max(cx + w / 2.0, 0.0), 1.0)
    y1 = min(max(cy - h / 2.0, 0.0), 1.0)
    y2 = min(max(cy + h / 2.0, 0.0), 1.0)
    return x1, y1, x2, y2


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gaussian_logp(actions: np.ndarray, dist: ActionGaussians) -> np.ndarray:
    """(..., R, N) log-density of each run's N action rows under its Gaussian."""
    z = (actions - dist.mean[..., None, :]) / dist.std[..., None, :]
    return (-0.5 * z * z - dist.log_std[..., None, :] - 0.5 * LOG_2PI).sum(axis=-1)


def sample_group(theta: ActionGaussians, noise: np.ndarray) -> GroupRollout:
    """N raw actions per run at theta's state, mean + std * noise for the
    (N, 4) standard-normal `noise` that every run shares, with their decoded
    boxes and their log-probs under the sampling policy."""
    actions = theta.mean[:, None, :] + theta.std[:, None, :] * noise
    # plain Python floats: scalar arithmetic on numpy float64 costs more per box
    boxes = [[action_to_bbox(u) for u in run] for run in actions.tolist()]
    return GroupRollout(actions, boxes, gaussian_logp(actions, theta))


def grpo_advantage(rewards: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Standardize each group (last axis) by its `mean`, with the last axis
    kept, and its population std. Degenerate groups (all rewards equal, or a
    single sample) get all-zero advantages rather than dividing by ~0.
    """
    dev = rewards - mean
    std = np.sqrt((dev * dev).sum(axis=-1, keepdims=True) / rewards.shape[-1])
    # the floor only keeps the branch np.where discards finite
    return np.where(std < ADV_STD_FLOOR, 0.0, dev / np.maximum(std, ADV_STD_FLOOR))


def kl_ref_theta(ref: ActionGaussians, theta: ActionGaussians) -> np.ndarray:
    """(..., R) exact KL(reference || current) between each run's action Gaussians."""
    return (
        theta.log_std - ref.log_std
        + (ref.var + (ref.mean - theta.mean) ** 2) / (2.0 * theta.var)
        - 0.5
    ).sum(axis=-1)


def objective(
    rollout: GroupRollout,
    shaped: np.ndarray,
    theta: ActionGaussians,
    ref: ActionGaussians,
    beta: np.ndarray,
) -> np.ndarray:
    """(..., R) J(theta) per run for a rollout and its (..., R, N) shaped
    advantages A_i + r_div, under the (R,) per-run KL weights beta.

    J = mean_i ratio_i * shaped_i - beta * KL(ref || theta at state),
    with ratio_i = exp(logp_theta_i - logp_behavior_i): logp under `theta`
    is recomputed at the stored actions, so the ratio is 1 only when `theta`
    is the sampling policy.
    """
    ratios = np.exp(gaussian_logp(rollout.actions, theta) - rollout.logp_behavior)
    surrogate = (ratios * shaped).sum(axis=-1) / rollout.n
    return surrogate - beta * kl_ref_theta(ref, theta)


def grad_objective(
    rollout: GroupRollout,
    shaped: np.ndarray,
    theta: ActionGaussians,
    ref: ActionGaussians,
    beta: np.ndarray,
    kl_on: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of `objective` w.r.t. each run's (W, b, log_std), as
    the tuple (dW, db, dlog_std) of (R, feature_dim, 4), (R, 4), (R, 4).

    `kl_on` is the (R, 1) mask beta != 0, or None when no run has a KL term:
    a run whose beta is 0 gets no KL term at all, not 0 times its gradient."""
    var = theta.std * theta.std                       # (R, 4)

    diff = rollout.actions - theta.mean[:, None, :]   # (R, N, 4)
    z2 = diff * diff / var[:, None, :]                # (R, N, 4)
    logp = (-0.5 * z2 - theta.log_std[:, None, :] - 0.5 * LOG_2PI).sum(axis=-1)
    weights = (np.exp(logp - rollout.logp_behavior) * shaped)[:, :, None]

    n = rollout.n
    # d logp / d mean = diff / var; d logp / d log_std = z^2 - 1
    dmu = (weights * diff / var[:, None, :]).sum(axis=-2) / n
    dlog_std = (weights * (z2 - 1.0)).sum(axis=-2) / n

    if kl_on is not None:
        beta = beta[:, None]
        # KL(ref||theta) per dim: log s_t - log s_r + (var_r + (mu_r-mu_t)^2)/(2 var_t) - 1/2
        dkl_dmu = (theta.mean - ref.mean) / var
        dkl_dlog_std = 1.0 - (ref.var + (ref.mean - theta.mean) ** 2) / var
        np.subtract(dmu, beta * dkl_dmu, out=dmu, where=kl_on)
        np.subtract(dlog_std, beta * dkl_dlog_std, out=dlog_std, where=kl_on)

    dW = theta.state[:, None] * dmu[:, None, :]       # np.outer(state, dmu) per run
    return dW, dmu, dlog_std


def step(
    theta: GroundingPolicy, grad: tuple[np.ndarray, np.ndarray, np.ndarray], lr: float
) -> tuple[GroundingPolicy, dict[int, NumericalAbort]]:
    """One gradient-ascent step per run along grad = (dW, db, dlog_std);
    log_std is re-clamped to its bounds. This is the guard that keeps every
    trained GroundingPolicy finite and in bounds.

    Returns the new policies, one per row of `theta`, and a NumericalAbort
    for each row whose new W or b, or dlog_std, is not finite, keyed by its
    row: such a row keeps theta's W, b and log_std, so the shapes never
    change, and its run gets a diagnostic instead of a silently corrupted
    policy. theta is finite, so a non-finite dW or db, or a finite one that
    `lr` overflows, always shows in W or b; dlog_std is checked before the
    clip, which would turn an inf log_std finite.
    """
    dW, db, dlog_std = grad
    W = theta.W + lr * dW
    b = theta.b + lr * db
    aborts = {}
    if not (np.isfinite(W).all() and np.isfinite(b).all() and np.isfinite(dlog_std).all()):
        finite = np.isfinite(W).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
        finite &= np.isfinite(dlog_std).all(axis=1)
        aborts = {
            int(r): NumericalAbort(
                f"update with lr={lr} is not finite: |W|max={np.abs(W[r]).max(initial=0.0)}, "
                f"b={b[r]}, dlog_std={dlog_std[r]}"
            )
            for r in np.flatnonzero(~finite)
        }
        W = np.where(finite[:, None, None], W, theta.W)
        b = np.where(finite[:, None], b, theta.b)
        dlog_std = np.where(finite[:, None], dlog_std, 0.0)
    log_std = np.minimum(np.maximum(theta.log_std + lr * dlog_std, LOG_STD_MIN), LOG_STD_MAX)
    return GroundingPolicy(W, b, log_std), aborts
