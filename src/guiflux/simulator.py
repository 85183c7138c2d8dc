"""Synthetic continual GUI-grounding environment.

Each task draws ground-truth boxes from its own element-size statistics and
text/icon mix, then exposes them through a task-specific affine transform of
the target's pre-squash representation (logit of the center, log of the
sides) plus observation noise. Distinct affines mean a linear policy fit to
one task is measurably wrong on the next, which is what makes a task
sequence a genuine continual-learning problem rather than a re-labelling.

All statistics here are fixtures of this artifact; they are dumped into the
run manifest and overridable from the run configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import BBox, check_boxes

SCENARIOS = ("domain_flux", "domain_flux_reversed", "resolution_flux", "joint")

SIZE_CLIP = (0.01, 0.5)

# Per-task fixture constants. The affine matrices share a common core with
# small per-task perturbations, and the offsets are distinct: a single
# linear policy can jointly serve all tasks (offsets are absorbable through
# the one-hot block), yet the per-task optimum remains distinct enough that
# greedy single-task fits measurably hurt the siblings.
DOMAIN_FIXTURES = (
    {
        "name": "mobile",
        "matrix": ((1.0, 0.0), (0.0, 1.0)),
        "offset": (0.0, 0.0),
        "size_mean": 0.12,
        "size_spread": 0.03,
        "text_fraction": 0.7,
        "noise_sigma": 0.02,
    },
    {
        "name": "desktop",
        "matrix": ((1.06, 0.05), (-0.04, 0.95)),
        "offset": (0.15, -0.12),
        "size_mean": 0.08,
        "size_spread": 0.02,
        "text_fraction": 0.5,
        "noise_sigma": 0.02,
    },
    {
        "name": "web",
        "matrix": ((0.94, -0.06), (0.05, 1.06)),
        "offset": (-0.12, 0.15),
        "size_mean": 0.06,
        "size_spread": 0.015,
        "text_fraction": 0.3,
        "noise_sigma": 0.02,
    },
)

# High resolution halves the element-size statistics and doubles the affine
# scale relative to normal.
RESOLUTION_FIXTURES = (
    {
        "name": "normal",
        "matrix": ((1.0, 0.1), (-0.1, 1.0)),
        "offset": (0.0, 0.0),
        "size_mean": 0.10,
        "size_spread": 0.025,
        "text_fraction": 0.5,
        "noise_sigma": 0.02,
    },
    {
        "name": "high",
        "matrix": ((2.0, 0.2), (-0.2, 2.0)),
        "offset": (0.0, 0.0),
        "size_mean": 0.05,
        "size_spread": 0.0125,
        "text_fraction": 0.5,
        "noise_sigma": 0.02,
    },
)

# Icons are drawn smaller than text elements by this factor.
ICON_SIZE_FACTOR = 0.7


@dataclass(frozen=True)
class TaskSpec:
    """One task in a continual sequence.

    `matrix`/`offset` parameterize the observation transform applied to the
    target's (logit-center, log-size) representation; `index`/`n_tasks`
    place the task inside its scenario (used for the one-hot state block).
    """

    name: str
    matrix: tuple[tuple[float, float], tuple[float, float]]
    offset: tuple[float, float]
    size_mean: float
    size_spread: float
    text_fraction: float
    noise_sigma: float
    index: int
    n_tasks: int

    def __post_init__(self):
        # written so that nan and +-inf fail every range check
        if not 0.0 <= self.text_fraction <= 1.0:
            raise ValueError(f"text_fraction {self.text_fraction} outside [0,1]")
        if not 0.0 < self.size_mean <= 0.5:
            raise ValueError(f"size_mean {self.size_mean} outside (0, 0.5]")
        if not (0.0 <= self.size_spread < math.inf and 0.0 <= self.noise_sigma < math.inf):
            raise ValueError("size_spread and noise_sigma must be non-negative and finite")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2) or not np.isfinite(m).all() or abs(np.linalg.det(m)) < 1e-6:
            raise ValueError(f"affine matrix must be finite and invertible 2x2, got {self.matrix}")
        if len(self.offset) != 2 or not all(math.isfinite(v) for v in self.offset):
            raise ValueError(f"offset must be 2 finite numbers, got {self.offset}")

    @property
    def state_dim(self) -> int:
        return 4 + self.n_tasks + 1


@dataclass(frozen=True, eq=False)
class EpisodeBatch:
    """`n` episodes as arrays: (n, state_dim) states, (n, 4) xyxy ground-truth
    boxes and an (n,) text mask (False for icons).

    The boxes are checked once, as a whole, against the `BBox` invariants.
    """

    states: np.ndarray
    boxes: np.ndarray
    is_text: np.ndarray

    def __post_init__(self):
        n = len(self.is_text)
        if self.states.ndim != 2 or self.states.shape[0] != n or self.boxes.shape != (n, 4):
            raise ValueError(
                f"batch shapes disagree: states {self.states.shape}, "
                f"boxes {self.boxes.shape}, is_text {self.is_text.shape}"
            )
        check_boxes(self.boxes)

    def __len__(self) -> int:
        return len(self.is_text)


def make_sequence(
    scenario: str,
    master_seed: int,
    overrides: dict[str, dict] | None = None,
) -> list[TaskSpec]:
    """Build the ordered task list for a scenario.

    `overrides` maps task name to fixture fields to replace (the hook the
    run configuration uses to re-parameterize the simulator). The tasks do
    not depend on `master_seed`: every random draw comes from the streams
    the caller passes to `sample_instances`.
    """
    if scenario == "domain_flux":
        fixtures = list(DOMAIN_FIXTURES)
    elif scenario == "domain_flux_reversed":
        fixtures = list(reversed(DOMAIN_FIXTURES))
    elif scenario == "resolution_flux":
        fixtures = list(RESOLUTION_FIXTURES)
    elif scenario == "joint":
        # Same tasks as domain_flux; the harness trains them simultaneously.
        fixtures = list(DOMAIN_FIXTURES)
    else:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
        )

    overrides = dict(overrides or {})
    known = {f["name"] for f in fixtures}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(
            f"simulator overrides for unknown tasks {sorted(unknown)}; "
            f"scenario {scenario!r} has {sorted(known)}"
        )

    tasks = []
    n = len(fixtures)
    for idx, fixture in enumerate(fixtures):
        merged = dict(fixture)
        extra = overrides.get(merged["name"], {})
        bad = set(extra) - (set(fixture) - {"name"})
        if bad:
            raise ConfigError(
                f"unknown simulator override fields {sorted(bad)} "
                f"for task {merged['name']!r}"
            )
        for key, value in extra.items():
            # float(True) is 1.0; a JSON boolean is never a fixture number
            if _holds_bool(value):
                raise ConfigError(
                    f"simulator.overrides.{merged['name']}.{key}: expected a number, got {value!r}"
                )
        merged.update(extra)
        try:
            if "matrix" in extra:
                merged["matrix"] = tuple(tuple(float(v) for v in row) for row in extra["matrix"])
            if "offset" in extra:
                merged["offset"] = tuple(float(v) for v in extra["offset"])
            tasks.append(TaskSpec(index=idx, n_tasks=n, **merged))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"simulator.overrides.{merged['name']}: {e}") from e
    return tasks


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


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


def sample_instances(
    task: TaskSpec, n: int, rng: np.random.Generator
) -> EpisodeBatch:
    """Draw `n` episodes from a task; deterministic given the rng state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    is_text = rng.random(n) < task.text_fraction
    w = rng.normal(task.size_mean, task.size_spread, n)
    h = rng.normal(task.size_mean, task.size_spread, n)
    factor = np.where(is_text, 1.0, ICON_SIZE_FACTOR)
    # minimum(maximum(.)) equals np.clip on finite inputs at half the cost
    w = np.minimum(np.maximum(w * factor, SIZE_CLIP[0]), SIZE_CLIP[1])
    h = np.minimum(np.maximum(h * factor, SIZE_CLIP[0]), SIZE_CLIP[1])
    half_w = w / 2.0
    half_h = h / 2.0
    cx = half_w + rng.random(n) * (1.0 - w)
    cy = half_h + rng.random(n) * (1.0 - h)
    noise = task.noise_sigma * rng.standard_normal((n, 4))

    matrix = np.asarray(task.matrix)
    # One np.log call gives the same elements as one call per column; C order
    # keeps the matmuls below on the same BLAS path at every n.
    latent = np.log(np.array([cx / (1.0 - cx), cy / (1.0 - cy), w, h]).T.copy())
    states = np.zeros((n, task.state_dim))
    states[:, :2] = latent[:, :2] @ matrix.T + task.offset
    states[:, 2:4] = latent[:, 2:] @ matrix.T
    states[:, :4] += noise
    states[:, 4 + task.index] = 1.0
    states[:, -1] = is_text

    # Sizes are clipped to keep the box inside [0,1]; tiny float drift at
    # the borders is snapped back so the BBox invariants always hold.
    boxes = np.array([cx - half_w, cy - half_h, cx + half_w, cy + half_h])
    np.minimum(np.maximum(boxes, 0.0, out=boxes), 1.0, out=boxes)
    return EpisodeBatch(states, boxes.T, is_text)
