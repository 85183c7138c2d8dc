"""Axis-aligned box primitives in normalized screen coordinates.

Everything downstream (rewards, the simulator, evaluation) works on
normalized [0,1] coordinates; pixel inputs must be divided by the screen
size before they reach this module. The box functions take any
(x1, y1, x2, y2) 4-sequence of floats: the training step passes plain
tuples it has already bounded, and `BBox`, the validated type of the API
boundary, iterates as its four corners.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def __iter__(self):
        return iter((self.x1, self.y1, self.x2, self.y2))


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


def center(b: Sequence[float]) -> tuple[float, float]:
    """Midpoint (x, y) of a box."""
    x1, y1, x2, y2 = b
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def contains(b: Sequence[float], x: float, y: float) -> bool:
    """True iff the point (x, y) lies inside `b`, boundaries inclusive."""
    x1, y1, x2, y2 = b
    return x1 <= x <= x2 and y1 <= y <= y2
