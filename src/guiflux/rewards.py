"""Reward functions over groups of sampled boxes.

Two families live here: the diversity bonus shared by a whole prediction
group, the sequence of N boxes sampled for one instruction (spatial spread
of box centers plus pairwise separation of the boxes' Gaussian region
models), and the per-sample correctness rewards that score a prediction
against its ground-truth box (IoU, center-distance, and a dense Gaussian
point+coverage variant). A box is any (x1, y1, x2, y2) 4-sequence of
floats, a `BBox` or a plain tuple; `score_groups` scores a training step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .geometry import center, contains, iou

# Box -> Gaussian transform: variance (KAPPA * side)^2, floored at EPS_MIN.
KAPPA = 1.0
EPS_MIN = 1e-8
# Distance scale of the point correctness reward.
TAU = 0.1


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the reward stack and the correctness kind.

    alpha weights the center-spread term, gamma the region-separation term.
    """

    alpha: float = 15.0
    gamma: float = 0.5
    correctness_kind: str = "gaussian_dense"

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"alpha: must be non-negative, got {self.alpha!r}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma: must be non-negative, got {self.gamma!r}")
        if self.correctness_kind not in CORRECTNESS_KINDS:
            raise ValueError(
                f"correctness_kind: must be one of {tuple(CORRECTNESS_KINDS)}, "
                f"got {self.correctness_kind!r}"
            )


def center_spread(g: Sequence[Sequence[float]]) -> float:
    """Mean squared distance of the group's box centers from their centroid.

    Zero iff all centers coincide; a single-box group has zero spread by
    definition.
    """
    n = len(g)
    if n == 1:
        return 0.0
    # center(b), written out: this runs for every sampled group
    cs = [((x1 + x2) / 2.0, (y1 + y2) / 2.0) for x1, y1, x2, y2 in g]
    # explicit left-to-right sums: the builtin sum is compensated from
    # Python 3.12 on, which changes the last bit of the result
    sx = sy = 0.0
    for x, y in cs:
        sx += x
        sy += y
    mx = sx / n
    my = sy / n
    total = 0.0
    for x, y in cs:
        total += (x - mx) ** 2 + (y - my) ** 2
    return total / n


def to_gaussian(b: Sequence[float]) -> tuple[float, float, float, float]:
    """Model a box as a diagonal 2-D Gaussian centered on its midpoint,
    returned as (mean x, mean y, var x, var y).

    The standard deviation is proportional to the side length
    (var = (KAPPA*side)^2). Variances are floored at `EPS_MIN` so degenerate
    boxes stay usable.
    """
    x1, y1, x2, y2 = b
    vx = (KAPPA * (x2 - x1)) ** 2
    vy = (KAPPA * (y2 - y1)) ** 2
    # the mean is center(b), written out: this runs for every sampled box
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0, max(vx, EPS_MIN), max(vy, EPS_MIN)


def bhattacharyya(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Bhattacharyya distance between two diagonal 2-D Gaussians, each a
    (mean x, mean y, var x, var y) tuple.

    Closed form: a Mahalanobis term under the average covariance plus a
    log-determinant term penalising covariance mismatch. Symmetric,
    non-negative, zero iff the Gaussians coincide.
    """
    amx, amy, avx, avy = a
    bmx, bmy, bvx, bvy = b
    avg_x = (avx + bvx) / 2.0
    avg_y = (avy + bvy) / 2.0
    dx = amx - bmx
    dy = amy - bmy
    maha = (dx * dx / avg_x + dy * dy / avg_y) / 8.0
    # product grouped per-axis so the result is bit-exact under argument swap
    log_det = 0.5 * math.log((avg_x * avg_y) / math.sqrt((avx * bvx) * (avy * bvy)))
    return maha + log_det


def region_separation(gaussians: Sequence[tuple[float, ...]]) -> float:
    """Mean pairwise Bhattacharyya distance between the boxes' Gaussian models.

    Averages over all N(N-1)/2 unordered pairs; a single-box group has no
    pairs and returns zero.
    """
    n = len(gaussians)
    if n == 1:
        return 0.0
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            total += bhattacharyya(gaussians[i], gaussians[j])
    return 2.0 * total / (n * (n - 1))


def diversity_reward(g: Sequence, gaussians: Sequence | None, cfg: RewardConfig) -> tuple:
    """(spread, separation, weighted sum) of the diversity bonus for one group
    of boxes `g`; their Gaussian models are read only when gamma is not 0.

    A term whose weight is 0 is switched off: it is not computed and reads
    0.0, so setting alpha or gamma to 0 is the one way to ablate it.
    """
    spread = center_spread(g) if cfg.alpha != 0.0 else 0.0
    separation = region_separation(gaussians) if cfg.gamma != 0.0 else 0.0
    return spread, separation, cfg.alpha * spread + cfg.gamma * separation


def correctness_point(pred: Sequence[float], gt: Sequence[float]) -> float:
    """Center-distance correctness: exponential decay plus a hit bonus.

    exp(-dist/TAU) for the distance between the two centers, plus 1 when the
    predicted center lands inside the ground-truth box. Range (0, 2].
    """
    px, py = center(pred)
    gx, gy = center(gt)
    dist = math.hypot(px - gx, py - gy)
    hit = 1.0 if contains(gt, px, py) else 0.0
    return hit + math.exp(-dist / TAU)


def correctness_gaussian(pred: tuple[float, ...], gt: tuple[float, ...]) -> float:
    """Dense correctness of two boxes' Gaussian models: point plus coverage score.

    The point term evaluates the predicted center under the ground-truth
    box's Gaussian (normalized to 1 at the center); the coverage term is the
    Bhattacharyya coefficient between the two boxes' Gaussians. Range (0, 2],
    maximized when pred == gt.
    """
    gmx, gmy, gvx, gvy = gt
    dx = pred[0] - gmx  # the Gaussian's mean is the predicted center
    dy = pred[1] - gmy
    point = math.exp(-0.5 * (dx * dx / gvx + dy * dy / gvy))
    coverage = math.exp(-bhattacharyya(pred, gt))
    return point + coverage


# Correctness kind name -> its (pred, gt) reward, of Gaussian models or boxes.
CORRECTNESS_KINDS = {
    "iou": iou,
    "point_distance": correctness_point,
    "gaussian_dense": correctness_gaussian,
}


def correctness(g: Sequence, gt: Sequence, cfg: RewardConfig) -> list[float]:
    """Each prediction's reward of cfg.correctness_kind against `gt`."""
    reward = CORRECTNESS_KINDS[cfg.correctness_kind]
    return [reward(pred, gt) for pred in g]


def score_groups(groups: Sequence, gt: Sequence[float], cfgs: Sequence[RewardConfig]) -> tuple:
    """Per run of a batch sharing one correctness kind, its group's correctness
    against the ground-truth box `gt` and its diversity bonus. Each box gets
    its Gaussian model at most once, and only when a reward reads it."""
    on_gaussians = CORRECTNESS_KINDS[cfgs[0].correctness_kind] is correctness_gaussian
    target = to_gaussian(gt) if on_gaussians else gt
    scores, bonus = [], []
    for g, cfg in zip(groups, cfgs):
        gaussians = [to_gaussian(b) for b in g] if on_gaussians or cfg.gamma != 0.0 else None
        scores.append(correctness(gaussians if on_gaussians else g, target, cfg))
        bonus.append(diversity_reward(g, gaussians, cfg))
    return scores, bonus
