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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import check_boxes

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

# Scenario name -> its tasks' fixtures, in sequence order.
SCENARIOS = {
    "domain_flux": DOMAIN_FIXTURES,
    "domain_flux_reversed": tuple(reversed(DOMAIN_FIXTURES)),
    "resolution_flux": RESOLUTION_FIXTURES,
    # Same tasks as domain_flux; the harness trains them simultaneously.
    "joint": DOMAIN_FIXTURES,
}

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
    matrix: Sequence[Sequence[float]]
    offset: Sequence[float]
    size_mean: float
    size_spread: float
    text_fraction: float
    noise_sigma: float
    index: int
    n_tasks: int

    def __post_init__(self):
        # Each message starts with its field. A value that is not a number
        # fails the isinstance test, and nan and +-inf fail every range.
        ranges = (
            ("text_fraction", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
            ("size_mean", lambda v: 0.0 < v <= 0.5, "outside (0, 0.5]"),
            ("size_spread", lambda v: 0.0 <= v < math.inf, "must be non-negative and finite"),
            ("noise_sigma", lambda v: 0.0 <= v < math.inf, "must be non-negative and finite"),
        )
        for field, ok, what in ranges:
            v = getattr(self, field)
            if not (isinstance(v, (int, float)) and ok(v)):
                raise ValueError(f"{field}: {what}, got {v!r}")
        m = _floats_or_none(self.matrix)
        if m is None or m.shape != (2, 2) or not np.isfinite(m).all() or abs(np.linalg.det(m)) < 1e-6:
            raise ValueError(f"matrix: must be a finite invertible 2x2 matrix, got {self.matrix!r}")
        v = _floats_or_none(self.offset)
        if v is None or v.shape != (2,) or not np.isfinite(v).all():
            raise ValueError(f"offset: must be 2 finite numbers, got {self.offset!r}")

    @property
    def state_dim(self) -> int:
        return 4 + self.n_tasks + 1


def _floats_or_none(v) -> np.ndarray | None:
    """`v` as a float array, or None when it is not a rectangular array of numbers."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        return None


def make_sequence(
    scenario: str,
    master_seed: int,
    overrides: dict[str, dict] | None = None,
) -> list[TaskSpec]:
    """Build the ordered task list for a scenario.

    `overrides` maps task name to fixture fields to replace (the hook the
    run configuration uses to re-parameterize the simulator); `parse_config`
    has typed its values as floats or lists of floats. The tasks do
    not depend on `master_seed`: every random draw comes from the streams
    the caller passes to `sample_instances`.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario: unknown scenario {scenario!r}; expected one of {tuple(SCENARIOS)}"
        )
    fixtures = SCENARIOS[scenario]

    overrides = overrides or {}
    known = sorted(f["name"] for f in fixtures)
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ConfigError(
            f"simulator.overrides.{unknown[0]}: unknown task; scenario {scenario!r} has {known}"
        )

    tasks = []
    for idx, fixture in enumerate(fixtures):
        name = fixture["name"]
        extra = overrides.get(name, {})
        fields = sorted(set(fixture) - {"name"})
        bad = sorted(set(extra) - set(fields))
        if bad:
            raise ConfigError(
                f"simulator.overrides.{name}.{bad[0]}: unknown field; expected one of {fields}"
            )
        try:
            tasks.append(TaskSpec(**{**fixture, **extra}, index=idx, n_tasks=len(fixtures)))
        except ValueError as e:
            # every TaskSpec message starts with its field
            raise ConfigError(f"simulator.overrides.{name}.{e}") from e
    return tasks


def sample_instances(
    task: TaskSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `n` episodes from a task; deterministic given the rng state.

    Returns (n, state_dim) states, (n, 4) xyxy ground-truth boxes and an
    (n,) text mask (False for icons). The boxes are checked once, as a
    whole, against the `BBox` invariants.
    """
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
    boxes = boxes.T
    check_boxes(boxes)
    return states, boxes, is_text
