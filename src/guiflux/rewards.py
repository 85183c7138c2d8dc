"""Reward functions over groups of sampled boxes.

Two families live here: the diversity bonus shared by a whole prediction
group, the sequence of N boxes sampled for one instruction (spatial spread
of box centers plus pairwise separation of the boxes' Gaussian region
models), and the per-sample correctness rewards that score a prediction
against its ground-truth box (IoU, center-distance, and a dense Gaussian
point+coverage variant). A box is any (x1, y1, x2, y2) 4-sequence of
floats, a `BBox` or a plain tuple. `score_groups` decodes and scores a
training step's actions: by the scalar functions here, which define the
rewards, or for a wide batch by array arithmetic that gives the same bits.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .geometry import center, contains, iou
from .policy import SIZE_MAX, SIZE_MIN, action_to_bbox

# Box -> Gaussian transform: variance (KAPPA * side)^2, floored at EPS_MIN.
KAPPA = 1.0
EPS_MIN = 1e-8
# Distance scale of the point correctness reward.
TAU = 0.1
# Boxes per step (runs x samples) from which `score_groups` takes its array
# form. Both forms give the same bits, so this tunes speed only: below it,
# numpy's cost per call exceeds the per-box Python calls it saves.
ARRAY_MIN_BOXES = 32


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


def score_groups(actions: np.ndarray, gt: Sequence[float], cfgs: Sequence[RewardConfig]) -> tuple:
    """Decode and score one step's (R, N, 4) raw actions, row r a group of
    run cfgs[r], every run of one correctness kind: the (R, N) correctness
    of each box against the ground-truth box `gt`, and the (R, 3) diversity
    bonus (spread, separation, r_div) of each group.

    This scalar form is the definition: `action_to_bbox` per box, then the
    functions above, with each box's Gaussian model taken at most once and
    only when a reward reads it. From ARRAY_MIN_BOXES boxes on,
    `_score_array` gives the same bits by array arithmetic.
    """
    runs, n, _ = actions.shape
    if runs * n >= ARRAY_MIN_BOXES:
        return _score_array(actions, gt, cfgs)
    on_gaussians = CORRECTNESS_KINDS[cfgs[0].correctness_kind] is correctness_gaussian
    target = to_gaussian(gt) if on_gaussians else gt
    scores, bonus = [], []
    # plain Python floats: scalar arithmetic on numpy float64 costs more per box
    for run, cfg in zip(actions.tolist(), cfgs):
        g = [action_to_bbox(u) for u in run]
        gaussians = [to_gaussian(b) for b in g] if on_gaussians or cfg.gamma != 0.0 else None
        scores.append(correctness(gaussians if on_gaussians else g, target, cfg))
        bonus.append(diversity_reward(g, gaussians, cfg))
    return np.array(scores), np.array(bonus)


# The array form repeats each scalar function's operations, in their order,
# on float64 arrays. Numpy's + - * / and sqrt round correctly, as Python's
# do, but its exp, log, hypot and power round unlike libm's on some inputs:
# those pass through Python's own functions, element by element. A
# left-to-right `total +=` loop is np.add.accumulate (np.sum adds pairwise),
# and Python's min(a, b) and max(a, b) are np.where, which keeps their
# handling of nan and of signed zeros.


def _each(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn of each element, or of each tuple of elements of same-shape arrays."""
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def _square(a: np.ndarray) -> np.ndarray:
    """Each element ** 2 by Python's float power, which calls libm's pow."""
    return np.fromiter(map(pow, a.ravel().tolist(), repeat(2)), float, a.size).reshape(a.shape)


def _min(a, b):
    """Python's min(a, b), elementwise: b only where b < a."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Python's max(a, b), elementwise: b only where b > a."""
    return np.where(b > a, b, a)


def _lsum(a: np.ndarray) -> np.ndarray:
    """`total = 0.0; total += x` over the last axis; `+ 0.0` is the loop's
    start, which turns a sum of negative zeros into 0.0."""
    return np.add.accumulate(a, axis=-1)[..., -1] + 0.0


# Below, boxes and Gaussians are (4, ...) arrays, one contiguous array per
# field: corners (x1, y1, x2, y2), or (mean x, mean y, var x, var y).


def _decode(actions: np.ndarray) -> np.ndarray:
    """`action_to_bbox` of each (R, N, 4) action, as (4, R, N) corners."""
    u = np.moveaxis(actions, -1, 0)
    pos = u[:2]
    # _sigmoid's exp(-x) for x >= 0 and exp(x) below it, and each side's
    # exp(min(u, 10.0)), in one pass
    e = _each(math.exp, np.concatenate([-np.abs(pos), _min(u[2:], 10.0)]))
    t = e[:2]
    c = np.where(pos >= 0, 1.0, t) / (1.0 + t)
    half = _min(_max(e[2:], SIZE_MIN), SIZE_MAX) / 2.0
    return _min(_max(np.concatenate([c - half, c + half]), 0.0), 1.0)


def _gaussians(boxes: np.ndarray) -> np.ndarray:
    """`to_gaussian` of each box, as Gaussians."""
    lo = boxes[:2]
    hi = boxes[2:]
    return np.concatenate([(lo + hi) / 2.0, _max(_square(KAPPA * (hi - lo)), EPS_MIN)])


def _bhattacharyya(a, b) -> np.ndarray:
    """`bhattacharyya` of each pair of Gaussians, a and b broadcasting."""
    amx, amy, avx, avy = a
    bmx, bmy, bvx, bvy = b
    avg_x = (avx + bvx) / 2.0
    avg_y = (avy + bvy) / 2.0
    dx = amx - bmx
    dy = amy - bmy
    maha = (dx * dx / avg_x + dy * dy / avg_y) / 8.0
    log_det = 0.5 * _each(math.log, (avg_x * avg_y) / np.sqrt((avx * bvx) * (avy * bvy)))
    return maha + log_det


def _spread(boxes: np.ndarray) -> np.ndarray:
    """`center_spread` of each run's group of N > 1 boxes, (4, R, N)."""
    n = boxes.shape[-1]
    centers = (boxes[:2] + boxes[2:]) / 2.0
    dx, dy = _square(centers - (_lsum(centers) / n)[..., None])
    return _lsum(dx + dy) / n


@functools.cache
def _pairs(n: int) -> tuple:
    """The (i, j) indices of the pairs i < j of n items, in the loop's order.
    Cached, as np.triu_indices costs about a quarter of the separation term
    it indexes; read-only, as every caller shares them."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _separation(gaussians: np.ndarray) -> np.ndarray:
    """`region_separation` of each run's group of N > 1 Gaussians, (4, R, N)."""
    n = gaussians.shape[-1]
    i, j = _pairs(n)
    return 2.0 * _lsum(_bhattacharyya(gaussians[..., i], gaussians[..., j])) / (n * (n - 1))


def _iou(a: np.ndarray, b: Sequence[float]) -> np.ndarray:
    """`iou` of each predicted box with the box `b`."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = _min(ax2, bx2) - _max(ax1, bx1)
    iy = _min(ay2, by2) - _max(ay1, by1)
    inter = _max(ix, 0.0) * _max(iy, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    empty = union <= 0.0
    return np.where(empty, 0.0, inter / np.where(empty, 1.0, union))


def _point(a: np.ndarray, b: Sequence[float]) -> np.ndarray:
    """`correctness_point` of each predicted box against the box `b`."""
    x1, y1, x2, y2 = a
    px = (x1 + x2) / 2.0
    py = (y1 + y2) / 2.0
    gx, gy = center(b)
    bx1, by1, bx2, by2 = b
    dist = _each(math.hypot, px - gx, py - gy)
    hit = np.where((bx1 <= px) & (px <= bx2) & (by1 <= py) & (py <= by2), 1.0, 0.0)
    return hit + _each(math.exp, -dist / TAU)


def _gaussian_dense(p: np.ndarray, t: tuple) -> np.ndarray:
    """`correctness_gaussian` of each predicted Gaussian against `t`."""
    dx = p[0] - t[0]
    dy = p[1] - t[1]
    point, coverage = _each(
        math.exp, np.stack([-0.5 * (dx * dx / t[2] + dy * dy / t[3]), -_bhattacharyya(p, t)])
    )
    return point + coverage


# Each correctness reward's array form.
_ARRAY_FORMS = {iou: _iou, correctness_point: _point, correctness_gaussian: _gaussian_dense}


def _score_array(actions: np.ndarray, gt: Sequence[float], cfgs: Sequence[RewardConfig]) -> tuple:
    """`score_groups` by array arithmetic, bit for bit. Like the scalar form
    it models only the boxes a reward reads, and it takes the pairs of the
    separation term only for the runs whose gamma is not 0."""
    runs, n, _ = actions.shape
    reward = CORRECTNESS_KINDS[cfgs[0].correctness_kind]
    on_gaussians = reward is correctness_gaussian
    alpha = np.array([c.alpha for c in cfgs])
    gamma = np.array([c.gamma for c in cfgs])
    boxes = _decode(actions)
    models = _gaussians(boxes) if on_gaussians else None
    target = to_gaussian(gt) if on_gaussians else gt
    scores = _ARRAY_FORMS[reward](models if on_gaussians else boxes, target)
    bonus = np.zeros((runs, 3))
    separated = np.flatnonzero(gamma != 0.0)
    if n > 1:
        bonus[:, 0] = np.where(alpha != 0.0, _spread(boxes), 0.0)
        if len(separated):
            rows = models[:, separated] if on_gaussians else _gaussians(boxes[:, separated])
            bonus[separated, 1] = _separation(rows)
    bonus[:, 2] = alpha * bonus[:, 0] + gamma * bonus[:, 1]
    return scores, bonus
