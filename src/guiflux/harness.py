"""Lockstep training, evaluation, continual-learning metrics, ablation grid.

A run is a list of stages: one per task of a scenario in order, or a single
joint stage that trains every task. Each stage's KL reference is the policy
at the stage's start. The policy is evaluated on every task after every
stage (plus once untrained), producing a (stages+1) x tasks accuracy matrix
with text/icon splits. All randomness flows through named child
streams of the master seed, and no draw depends on the policy, so runs that
differ only in method weights (reward.alpha, reward.gamma, optim.beta) see
identical task choices, instances, action noise and evaluation episodes.
`run_batch` trains such runs as one batch that makes each draw once;
`run_continual` is the batch of one run. For the same reason a stage makes
its draws up front, DRAW_BLOCK steps at a time, and each training step does
only the work that depends on the policy.
"""

from __future__ import annotations

import copy
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import rewards as rw
from .policy import (
    ActionGaussians,
    GroundingPolicy,
    GroupRollout,
    NumericalAbort,
    OptimConfig,
    grad_objective,
    grpo_advantage,
    kl_ref_theta,
    objective,
    sample_group,
    step,
)
from .rewards import RewardConfig
from .simulator import TaskSpec, make_sequence, sample_episodes, sample_instances

log = logging.getLogger(__name__)

# Child-stream ids under the master seed.
STREAM_TRAIN_INSTANCES = 0
STREAM_ACTIONS = 1
STREAM_EVAL = 2
STREAM_TASK_CHOICE = 3

# Training steps whose instances and action noise a stage draws at once: a
# block holds about DRAW_BLOCK * (state_dim + 4 * (n_samples + 1)) floats.
DRAW_BLOCK = 256

# Stage label of the single stage that trains every task of a joint run.
JOINT_STAGE = "joint"

# Fixed sweep pattern for the ablation grid: scale one weight at a time.
DEFAULT_SCALE_POINTS = ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5))

ABLATION_VARIANTS = (
    ("full", True, True),
    ("apr_only", True, False),
    ("arr_only", False, True),
    ("neither", False, False),
)


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream derived from the master seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, *key])))


def scale_label(alpha_scale: float, gamma_scale: float) -> str:
    """The scale point's part of an ablation cell id; two points with the same
    label would write the same run directories."""
    return f"a{alpha_scale:g}_g{gamma_scale:g}"


@dataclass(frozen=True)
class RunConfig:
    """Everything one continual run needs; parsed from the config file.

    The method's switches are its weights: a diversity term is off when
    reward.alpha or reward.gamma is 0, the KL penalty when optim.beta is 0.
    Construction validates every field and builds the scenario's `tasks`
    once, with the simulator overrides applied.
    """

    scenario: str = "domain_flux"
    steps_per_task: int = 500
    eval_episodes: int = 2000
    optim: OptimConfig = field(default_factory=OptimConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    seeds: tuple[int, ...] = (0,)
    scale_points: tuple[tuple[float, float], ...] = DEFAULT_SCALE_POINTS
    sim_overrides: dict = field(default_factory=dict)
    tasks: tuple[TaskSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.steps_per_task < 0:
            raise ValueError(f"steps_per_task: must be >= 0, got {self.steps_per_task!r}")
        if self.eval_episodes < 1:
            raise ValueError(f"eval_episodes: must be >= 1, got {self.eval_episodes!r}")
        # a repeated seed would overwrite its own ablation run directories
        ints = all(type(s) is int and s >= 0 for s in self.seeds)  # type() rules out bools
        if not (self.seeds and ints and len(set(self.seeds)) == len(self.seeds)):
            raise ValueError("seeds: must be a non-empty list of distinct non-negative integers")
        if not self.scale_points:
            raise ValueError("sweep.scale_points: must hold at least one [alpha, gamma] pair")
        labels: dict[str, int] = {}
        for i, (a, g) in enumerate(self.scale_points):
            if not (0.0 < a < math.inf and 0.0 < g < math.inf):
                raise ValueError(
                    f"sweep.scale_points[{i}]: scales must be positive and finite, "
                    f"got [{a:g}, {g:g}]"
                )
            if not (math.isfinite(self.reward.alpha * a) and math.isfinite(self.reward.gamma * g)):
                raise ValueError(
                    f"sweep.scale_points[{i}]: [{a:g}, {g:g}] scales reward.alpha "
                    f"{self.reward.alpha:g} or reward.gamma {self.reward.gamma:g} to inf"
                )
            label = scale_label(a, g)
            if label in labels:
                raise ValueError(
                    f"sweep.scale_points[{i}]: [{a!r}, {g!r}] names the same grid cells "
                    f"({label}) as sweep.scale_points[{labels[label]}]"
                )
            labels[label] = i
        # rejects an unknown scenario and invalid overrides before any run starts
        tasks = make_sequence(self.scenario, self.seeds[0], self.sim_overrides)
        object.__setattr__(self, "tasks", tuple(tasks))


@dataclass(frozen=True)
class TrainRecord:
    """One training step's scalars; field order matches the trainlog.csv
    columns. `kl` is KL(ref || theta) at the step's state, taken before the
    update; `objective` is the surrogate minus beta times KL, taken after the
    update at the same state. No update reads either, so `train_stage` takes
    them for a whole draw block at once, with the values a step alone gives."""

    step: int
    task: int
    correctness: float
    apr: float
    arr: float
    r_aif: float
    kl: float
    objective: float


@dataclass
class AccuracyMatrix:
    """(stages+1) x tasks success rates with text/icon splits; row 0 untrained."""

    overall: np.ndarray
    text: np.ndarray
    icon: np.ndarray
    task_names: list[str]
    stage_labels: list[str]

    def __post_init__(self):
        shape = self.overall.shape
        if self.text.shape != shape or self.icon.shape != shape:
            raise ValueError("split matrices must share the overall shape")
        if shape != (len(self.stage_labels), len(self.task_names)):
            raise ValueError("matrix shape disagrees with labels")

    @property
    def n_stages(self) -> int:
        return self.overall.shape[0] - 1

    @property
    def n_tasks(self) -> int:
        return self.overall.shape[1]

    def stage_average(self, row: int) -> float:
        return float(self.overall[row].mean())

    def final_average(self) -> float:
        return self.stage_average(-1)


def evaluate(
    policy: GroundingPolicy,
    tasks: list[TaskSpec],
    episodes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One accuracy-matrix row per run: (R, tasks) overall/text/icon success rates.

    Every run is scored on the same episodes. Evaluation is deterministic
    given the rng and uses no sampling noise: an episode is a hit when the
    point (sigmoid(u_x), sigmoid(u_y)) of the policy's mean action u lands
    inside the ground-truth box. That point is taken before `action_to_bbox`
    clips the corners to the screen, so near a screen edge it can differ
    from the center of the decoded mean box. A split with no episodes (e.g.
    icons under text_fraction 1) is nan: missing, not 0% accurate. Each call
    draws fresh episodes from `rng`, so two rows of one run differ by
    sampling noise even when the policy does not change.
    """
    shape = (policy.b.shape[0], len(tasks))
    overall = np.zeros(shape)
    text = np.zeros(shape)
    icon = np.zeros(shape)
    for t_idx, task in enumerate(tasks):
        states, gt, is_text = sample_instances(task, episodes, rng)
        u = states @ policy.W + policy.b[:, None, :]  # (R, episodes, 4)
        # exp cannot overflow: a hit point moves only within [0, 1.2e-308],
        # where no box corner lies but 0
        cx = 1.0 / (1.0 + np.exp(np.minimum(-u[..., 0], 709.0)))
        cy = 1.0 / (1.0 + np.exp(np.minimum(-u[..., 1], 709.0)))
        hit = (
            (gt[:, 0] <= cx) & (cx <= gt[:, 2])
            & (gt[:, 1] <= cy) & (cy <= gt[:, 3])
        )
        n_text = int(is_text.sum())
        n_icon = episodes - n_text
        overall[:, t_idx] = hit.mean(axis=1)
        text[:, t_idx] = (hit & is_text).sum(axis=1) / n_text if n_text else np.nan
        icon[:, t_idx] = (hit & ~is_text).sum(axis=1) / n_icon if n_icon else np.nan
    return overall, text, icon


def train_stage(
    policy: GroundingPolicy,
    tasks: list[TaskSpec],
    cfgs: Sequence[RunConfig],
    records: Sequence[list[TrainRecord]],
    aborts: dict[int, NumericalAbort],
    master: int,
    stage: int,
) -> GroundingPolicy:
    """Run steps_per_task optimization steps per task of one stage, for
    every run of a batch in lockstep; returns the batch's policies.

    Row r of `policy` is the run of cfgs[r], whose records go to records[r].
    The KL reference is the policy at the start of the stage. Each task
    draws its instances from its own stream, the stage's actions come from
    one stream, and a stage of more than one task picks each step's task
    from the task-choice stream. No draw depends on the policy, so the
    stage draws DRAW_BLOCK steps' task choices, instances and action noise
    at a time, in the order the steps would draw them one by one, and every
    draw is shared by all runs. Each step does only what the next update
    needs and keeps the arrays its log row reads; the block's records are
    appended at its end by `_log_block`. The first NumericalAbort of a run
    whose update is not finite goes to aborts[r]; its row keeps its last
    finite policy and stays in the batch, and its records are not to be
    read. The stage ends early once every run has aborted, without logging
    the block it was in.
    """
    cfg = cfgs[0]
    ref = policy
    beta = np.array([c.optim.beta for c in cfgs])
    kl_on = (beta != 0.0)[:, None] if beta.any() else None
    reward_cfgs = [c.reward for c in cfgs]
    rngs_inst = [child_rng(master, STREAM_TRAIN_INSTANCES, t.index) for t in tasks]
    rng_actions = child_rng(master, STREAM_ACTIONS, stage)
    rng_choice = child_rng(master, STREAM_TASK_CHOICE) if len(tasks) > 1 else None
    steps = cfg.steps_per_task * len(tasks)
    for start in range(0, steps, DRAW_BLOCK):
        block = min(DRAW_BLOCK, steps - start)
        if rng_choice is None:
            choices = [0] * block
        else:
            choices = [int(rng_choice.integers(len(tasks))) for _ in range(block)]
        # per task, its episodes of this block in draw order, as (state, gt) pairs
        episodes = []
        for t, (task, rng) in enumerate(zip(tasks, rngs_inst)):
            states, boxes, _ = sample_episodes(task, choices.count(t), rng)
            episodes.append(iter(zip(states, boxes.tolist())))
        noise = rng_actions.standard_normal((block, cfg.optim.n_samples, 4))
        logged = []
        for k, step_noise in zip(choices, noise):
            state, gt = next(episodes[k])
            theta = policy.at(state)
            ref_at = ref.at(state)
            # Ratio anchor = behavior policy (rollout.logp_behavior); `ref` only
            # anchors the KL penalty. Anchoring the ratio to the stage-start
            # snapshot as well would make it overflow once the policy has
            # genuinely moved.
            rollout = sample_group(theta, step_noise)
            scores, bonus = rw.score_groups(rollout.boxes, gt, reward_cfgs)
            scores = np.array(scores)
            mean = scores.sum(axis=1, keepdims=True) / rollout.n
            # the group-shared diversity bonus is added to every advantage
            shaped = grpo_advantage(scores, mean) + np.array([[r_div] for _, _, r_div in bonus])

            grad = grad_objective(rollout, shaped, theta, ref_at, beta, kl_on)
            policy, failed = step(policy, grad, cfg.optim.lr)
            for r, e in failed.items():
                aborts.setdefault(r, e)
            if len(aborts) == len(cfgs):
                return policy
            logged.append((
                tasks[k].index, mean, bonus, theta, ref_at.mean,
                rollout.actions, rollout.logp_behavior, shaped, policy,
            ))
        _log_block(records, ref, beta, logged)
    return policy


def _log_block(
    records: Sequence[list[TrainRecord]], ref: GroundingPolicy, beta: np.ndarray, logged: list
) -> None:
    """Append each run's TrainRecords for a draw block, from what train_stage
    keeps of each step. One kl_ref_theta and one objective call over the
    steps stacked on a leading axis give every step's `kl` and `objective`:
    the arithmetic and last-axis sums of a call per step, so the same values."""
    task, mean, bonus, thetas, ref_mean, actions, logp, shaped, after = zip(*logged)
    theta = ActionGaussians(*map(np.array, zip(*thetas)))  # (T, R, 4) fields, (T, dim) states
    ref_at = ActionGaussians(theta.state, np.array(ref_mean), ref.log_std, ref.std, ref.var)
    W, b, *moments = map(np.array, zip(*[(p.W, p.b, p.log_std, p.std, p.var) for p in after]))
    # the updated policies at their steps' states, by action_mean's matmul per step
    mean_after = (theta.state[:, None, None, :] @ W)[:, :, 0, :] + b
    updated = ActionGaussians(theta.state, mean_after, *moments)
    kl = kl_ref_theta(ref_at, theta).tolist()
    # logged post-update: at the behavior policy the ratios are identically 1
    # and the surrogate reduces to the diversity bonus, which carries no
    # step-level information. The objective reads no boxes, so none are kept.
    rollout = GroupRollout(np.array(actions), None, np.array(logp))
    j = objective(rollout, np.array(shaped), updated, ref_at, beta).tolist()
    for k, *step_rows in zip(task, np.array(mean)[:, :, 0].tolist(), bonus, kl, j):
        for run_records, c, (apr, arr, r_aif), kl_r, j_r in zip(records, *step_rows):
            run_records.append(TrainRecord(len(run_records), k, c, apr, arr, r_aif, kl_r, j_r))


def run_batch(
    cfgs: Sequence[RunConfig], seed: int
) -> list[tuple[AccuracyMatrix, list[TrainRecord]] | NumericalAbort]:
    """Full continual runs of several configs on one master seed, in lockstep.

    The configs may differ only in their method weights (reward.alpha,
    reward.gamma, optim.beta): every run then sees the same draws, and the
    batch makes each draw once. Item i of the result is run cfgs[i]'s
    (matrix, records), or the NumericalAbort that ended it; the other runs
    still finish.

    A run is a list of stages, each a label and the tasks it trains: one
    stage per task in sequence order, or for the "joint" scenario a single
    stage that trains every task (steps_per_task per task, interleaved).
    Row 0 of the matrix is the untrained policy; row k evaluates on every
    task after stage k.
    """
    cfg = cfgs[0]
    if any(_shared(c) != _shared(cfg) for c in cfgs[1:]):
        raise ValueError(
            "a batch's configs may differ only in reward.alpha, reward.gamma, optim.beta"
        )
    master = int(seed)
    tasks = cfg.tasks
    if cfg.scenario == "joint":
        stages = [(JOINT_STAGE, tasks)]
    else:
        stages = [(t.name, [t]) for t in tasks]
    stage_labels = ["untrained"]
    for label, _ in stages:
        prev = stage_labels[-1]
        stage_labels.append(label if prev == "untrained" else f"{prev}->{label}")

    records: list[list[TrainRecord]] = [[] for _ in cfgs]
    aborts: dict[int, NumericalAbort] = {}
    overall, text, icon = (np.zeros((len(cfgs), len(stages) + 1, len(tasks))) for _ in range(3))
    policy = GroundingPolicy.zeros(tasks[0].state_dim, len(cfgs))

    def score(k: int) -> None:
        rng = child_rng(master, STREAM_EVAL, k)
        overall[:, k], text[:, k], icon[:, k] = evaluate(policy, tasks, cfg.eval_episodes, rng)

    score(0)
    for k, (_, stage_tasks) in enumerate(stages):
        policy = train_stage(policy, stage_tasks, cfgs, records, aborts, master, k)
        if len(aborts) == len(cfgs):
            break
        score(k + 1)

    task_names = [t.name for t in tasks]
    return [
        aborts[i] if i in aborts
        else (AccuracyMatrix(overall[i], text[i], icon[i], task_names, stage_labels), records[i])
        for i in range(len(cfgs))
    ]


def _shared(cfg: RunConfig) -> tuple:
    """What the runs of one batch must agree on."""
    return (
        cfg.scenario, cfg.tasks, cfg.steps_per_task, cfg.eval_episodes,
        cfg.optim.n_samples, cfg.optim.lr, cfg.reward.correctness_kind,
    )


def run_continual(cfg: RunConfig, seed: int) -> tuple[AccuracyMatrix, list[TrainRecord]]:
    """Full continual run for one master seed: the batch of one run.

    Raises the run's NumericalAbort when an update is not finite.
    """
    (result,) = run_batch([cfg], seed)
    if isinstance(result, NumericalAbort):
        raise result
    return result


def first_trained_stages(m: AccuracyMatrix) -> list[int]:
    """Per task, the matrix row (stage) after which it has first been trained.

    Read from the stage labels, the only schedule a persisted matrix keeps: a
    joint stage trains every task at once; otherwise stage s trains the s-th
    task of the sequence. A value above n_stages marks a task no stage trains.
    """
    if JOINT_STAGE in m.stage_labels:
        return [m.stage_labels.index(JOINT_STAGE)] * m.n_tasks
    return list(range(1, m.n_tasks + 1))


def forward_transfer(m: AccuracyMatrix) -> list[dict]:
    """Accuracy gained on not-yet-trained tasks, relative to the untrained row.

    One record per (stage, future task): after stage s (1-based row), a task
    first trained at a later stage has not been trained yet;
    delta = A[s][j] - A[0][j]. A joint run has no such records.
    """
    first = first_trained_stages(m)
    return [
        {
            "stage": s,
            "task": m.task_names[j],
            "delta": float(m.overall[s, j] - m.overall[0, j]),
        }
        for s in range(1, m.n_stages + 1)
        for j in range(m.n_tasks)
        if first[j] > s
    ]


def forgetting(m: AccuracyMatrix) -> list[dict]:
    """Per-task drop from its post-training peak to the final row.

    The drop is the max over the rows from the task's first training stage
    on, minus the final row (0 when the task was never trained). Rows are
    scored on different evaluation episodes, so an untrained run can still
    show a drop (0.015 on `desktop` at seed 0 with 200 episodes).
    """
    out = []
    last = m.n_stages
    for j, first in enumerate(first_trained_stages(m)):
        if first > last:
            drop = 0.0
        else:
            peak = float(m.overall[first : last + 1, j].max())
            drop = peak - float(m.overall[last, j])
        out.append({"task": m.task_names[j], "drop": drop})
    return out


def reward_trend(records: list[TrainRecord], task: int | None = None) -> float | None:
    """Pearson correlation between the weighted diversity bonus and the
    correctness reward over training steps (optionally one task's steps).

    Returns None (with a diagnostic) when fewer than 3 records exist or
    either series is constant.
    """
    rows = [r for r in records if task is None or r.task == task]
    if len(rows) < 3:
        log.warning("reward_trend undefined: only %d records", len(rows))
        return None
    x = np.array([r.r_aif for r in rows])
    y = np.array([r.correctness for r in rows])
    sx = x.std()
    sy = y.std()
    if sx < 1e-15 or sy < 1e-15:
        log.warning("reward_trend undefined: constant series (std %g, %g)", sx, sy)
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


@dataclass(frozen=True)
class AblationCell:
    """One (variant, kl, scales) cell of the ablation grid.

    `cfg` is the cell's effective config (scaled or zeroed reward weights,
    zeroed beta when KL is off): `run_continual(cfg, seed)` runs it on one
    seed. The four coordinates cannot be read back from `cfg`: under beta 0
    the kl0 and kl1 cells have equal configs, and a zeroed weight loses its
    scale.
    """

    variant: str
    use_kl: bool
    alpha_scale: float
    gamma_scale: float
    cfg: RunConfig

    @property
    def cell_id(self) -> str:
        kl = 1 if self.use_kl else 0
        return f"{self.variant}_kl{kl}_{scale_label(self.alpha_scale, self.gamma_scale)}"


def ablate(base: RunConfig) -> list[AblationCell]:
    """The ablation grid's cells, in grid order; runs nothing.

    Grid: 4 reward variants x KL on/off x the scale points, each cell run
    on every seed of `base.seeds`. Cells sharing a seed see identical
    instance streams, so differences are attributable to the weights alone.
    A variant switches a diversity term off by zeroing its weight, and KL
    off by zeroing beta.
    """
    return [
        AblationCell(
            variant, use_kl, a_scale, g_scale,
            _with_weights(
                base,
                alpha=base.reward.alpha * a_scale if use_apr else 0.0,
                gamma=base.reward.gamma * g_scale if use_arr else 0.0,
                beta=base.optim.beta if use_kl else 0.0,
            ),
        )
        for variant, use_apr, use_arr in ABLATION_VARIANTS
        for use_kl in (True, False)
        for a_scale, g_scale in base.scale_points
    ]


def _with_weights(base: RunConfig, alpha: float, gamma: float, beta: float) -> RunConfig:
    """`base` with new method weights, sharing base's tasks.

    RunConfig's own checks are not re-run: base passed them, and the weights
    are checked by RewardConfig and OptimConfig. The sweep becomes [1, 1]:
    the weights are already scaled, and a cell's manifest config must parse
    back to the same weights.
    """
    cfg = copy.copy(base)
    object.__setattr__(cfg, "reward", replace(base.reward, alpha=alpha, gamma=gamma))
    object.__setattr__(cfg, "optim", replace(base.optim, beta=beta))
    object.__setattr__(cfg, "scale_points", ((1.0, 1.0),))
    return cfg
