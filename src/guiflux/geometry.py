"""Axis-aligned box primitives in normalized screen coordinates.

Everything downstream (rewards, the simulator, evaluation) works on
normalized [0,1] coordinates; pixel inputs must be divided by the screen
size before they reach this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box [x1, y1, x2, y2], corners in [0,1], x1<=x2, y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # the check_boxes predicate; nan and +-inf fail it
        if not (0.0 <= self.x1 <= self.x2 <= 1.0 and 0.0 <= self.y1 <= self.y2 <= 1.0):
            coords = (self.x1, self.y1, self.x2, self.y2)
            raise ValueError(f"box {coords} violates the BBox invariants")

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


def center(b: BBox) -> tuple[float, float]:
    """Midpoint (x, y) of a box."""
    return (b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0


def to_gaussian(b: BBox, kappa: float, eps_min: float) -> tuple[float, float, float, float]:
    """Model a box as a diagonal 2-D Gaussian centered on its midpoint,
    returned as (mean x, mean y, var x, var y).

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
    # the mean is center(b), written out: this runs for every sampled box
    return (b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0, max(vx, eps_min), max(vy, eps_min)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def contains(b: BBox, x: float, y: float) -> bool:
    """True iff the point (x, y) lies inside `b`, boundaries inclusive."""
    return b.x1 <= x <= b.x2 and b.y1 <= y <= b.y2
