"""Reward functions over groups of sampled boxes.

Two families live here: the diversity bonus shared by a whole prediction
group, the sequence of N boxes sampled for one instruction (spatial spread
of box centers plus pairwise separation of the boxes' Gaussian region
models), and the per-sample correctness rewards that score a prediction
against its ground-truth box (IoU, center-distance, and a dense Gaussian
point+coverage variant).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .geometry import BBox, center, contains, iou, to_gaussian

CORRECTNESS_KINDS = ("iou", "point_distance", "gaussian_dense")
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
                f"correctness_kind: must be one of {CORRECTNESS_KINDS}, "
                f"got {self.correctness_kind!r}"
            )


def center_spread(g: Sequence[BBox]) -> float:
    """Mean squared distance of the group's box centers from their centroid.

    Zero iff all centers coincide; a single-box group has zero spread by
    definition.
    """
    n = len(g)
    if n == 1:
        return 0.0
    cs = [center(b) for b in g]
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


def region_separation(g: Sequence[BBox], kappa: float, eps_min: float) -> float:
    """Mean pairwise Bhattacharyya distance between the boxes' Gaussian models.

    Averages over all N(N-1)/2 unordered pairs; a single-box group has no
    pairs and returns zero.
    """
    n = len(g)
    if n == 1:
        return 0.0
    gaussians = [to_gaussian(b, kappa, eps_min) for b in g]
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            total += bhattacharyya(gaussians[i], gaussians[j])
    return 2.0 * total / (n * (n - 1))


def diversity_reward(g: Sequence[BBox], cfg: RewardConfig) -> tuple[float, float, float]:
    """(spread, separation, weighted sum) of the diversity bonus for one group.

    A term whose weight is 0 is switched off: it is not computed and reads
    0.0, so setting alpha or gamma to 0 is the one way to ablate it.
    """
    spread = center_spread(g) if cfg.alpha != 0.0 else 0.0
    separation = region_separation(g, KAPPA, EPS_MIN) if cfg.gamma != 0.0 else 0.0
    return spread, separation, cfg.alpha * spread + cfg.gamma * separation


def correctness_point(pred: BBox, gt: BBox, tau: float) -> float:
    """Center-distance correctness: exponential decay plus a hit bonus.

    exp(-dist/tau) for the distance between the two centers, plus 1 when the
    predicted center lands inside the ground-truth box. Range (0, 2].
    """
    px, py = center(pred)
    gx, gy = center(gt)
    dist = math.hypot(px - gx, py - gy)
    hit = 1.0 if contains(gt, px, py) else 0.0
    return hit + math.exp(-dist / tau)


def correctness_gaussian(pred: BBox, gt: BBox, kappa: float, eps_min: float) -> float:
    """Dense correctness: Gaussian point score plus region-coverage score.

    The point term evaluates the predicted center under the ground-truth
    box's Gaussian (normalized to 1 at the center); the coverage term is the
    Bhattacharyya coefficient between the two boxes' Gaussians. Range (0, 2],
    maximized when pred == gt.
    """
    gmx, gmy, gvx, gvy = ggt = to_gaussian(gt, kappa, eps_min)
    gp = to_gaussian(pred, kappa, eps_min)
    dx = gp[0] - gmx  # the Gaussian's mean is the predicted center
    dy = gp[1] - gmy
    point = math.exp(-0.5 * (dx * dx / gvx + dy * dy / gvy))
    coverage = math.exp(-bhattacharyya(gp, ggt))
    return point + coverage


def correctness(pred: BBox, gt: BBox, cfg: RewardConfig) -> float:
    """Dispatch on cfg.correctness_kind."""
    if cfg.correctness_kind == "iou":
        return iou(pred, gt)
    if cfg.correctness_kind == "point_distance":
        return correctness_point(pred, gt, TAU)
    return correctness_gaussian(pred, gt, KAPPA, EPS_MIN)
