"""Axis-aligned box primitives in normalized screen coordinates.

Everything downstream (rewards, the simulator, evaluation) works on
normalized [0,1] coordinates; pixel inputs must be divided by the screen
size before they reach this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box [x1, y1, x2, y2], corners in [0,1], x1<=x2, y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite box {coords}")
        if not all(0.0 <= c <= 1.0 for c in coords):
            raise ValueError(f"box {coords} outside [0,1]")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"inverted box {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


def check_boxes(boxes: np.ndarray) -> None:
    """The `BBox` invariants for every row of an (n, 4) xyxy array at once:
    0<=x1<=x2<=1 and 0<=y1<=y2<=1, which also rules out nan and inf.
    Raises ValueError naming the first offending row."""
    lo = boxes[:, :2]
    hi = boxes[:, 2:]
    ok = (0.0 <= lo) & (lo <= hi) & (hi <= 1.0)
    if ok.all():
        return
    i = int(np.flatnonzero(~ok.all(axis=1))[0])
    raise ValueError(f"box {i} {tuple(float(c) for c in boxes[i])} violates the BBox invariants")


@dataclass(frozen=True)
class DiagGaussian2:
    """2-D Gaussian with diagonal covariance."""

    mean: Point
    var_x: float
    var_y: float

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_y > 0.0):
            raise ValueError(f"non-positive variance ({self.var_x}, {self.var_y})")
        if not (math.isfinite(self.var_x) and math.isfinite(self.var_y)):
            raise ValueError("non-finite variance")


def center(b: BBox) -> Point:
    """Midpoint of a box."""
    return Point((b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0)


def to_gaussian(b: BBox, kappa: float, eps_min: float) -> DiagGaussian2:
    """Model a box as a diagonal Gaussian centered on its midpoint.

    The standard deviation is proportional to the side length
    (var = (kappa*side)^2). Variances are floored at `eps_min` so degenerate
    boxes stay usable.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if eps_min <= 0.0:
        raise ValueError(f"eps_min must be positive, got {eps_min}")
    vx = (kappa * b.width) ** 2
    vy = (kappa * b.height) ** 2
    return DiagGaussian2(center(b), max(vx, eps_min), max(vy, eps_min))


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def contains(b: BBox, p: Point) -> bool:
    """True iff `p` lies inside `b`, boundaries inclusive."""
    return b.x1 <= p.x <= b.x2 and b.y1 <= p.y <= b.y2
