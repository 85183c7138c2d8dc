"""SVG plot emission from persisted run outputs.

Pure file transformations: curves of the per-step reward components, the
diversity-vs-correctness trend scatter with a least-squares line, and
forward-transfer bars. Hand-rolled SVG keeps runs free of any plotting
runtime and byte-deterministic.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .harness import AccuracyMatrix, forward_transfer
from .persistence import write_atomic

WIDTH, HEIGHT = 800, 420
MARGIN = 50
COLORS = {"correctness": "#1f77b4", "apr": "#d62728", "arr": "#2ca02c"}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(elements: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888"/>\n'
    )
    return head + "\n".join(elements) + "\n</svg>\n"


def _x_scale(n: int):
    span = WIDTH - 2 * MARGIN
    return lambda i: MARGIN + (span * i / max(n - 1, 1))


def _y_scale(lo: float, hi: float):
    span = HEIGHT - 2 * MARGIN
    rng = hi - lo if hi > lo else 1.0
    return lambda v: HEIGHT - MARGIN - span * (v - lo) / rng


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'


def _text(x: float, y: float, s: str, color: str = "#000", size: int = 12) -> str:
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{color}">{s}</text>'


def rewards_svg(trainlog: np.ndarray) -> str:
    """Per-step curves of the correctness reward and both diversity terms.

    Each series is min-max normalized to share the frame; the legend carries
    the raw ranges. Vertical dashes mark task boundaries.
    """
    if len(trainlog) == 0:
        raise ValueError("empty train log")
    xs = _x_scale(len(trainlog))
    elems = []
    for si, (name, color) in enumerate(COLORS.items()):
        vals = trainlog[name].tolist()
        lo, hi = min(vals), max(vals)
        ys = _y_scale(lo, hi)
        elems.append(_polyline(map(xs, range(len(vals))), map(ys, vals), color))
        elems.append(_text(MARGIN + 5 + 240 * si, 20, f"{name} [{lo:.4g}, {hi:.4g}]", color))
    for i in np.flatnonzero(np.diff(trainlog["task"])).tolist():
        x = _fmt(xs(i + 1))
        elems.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{HEIGHT - MARGIN}" '
            f'stroke="#aaa" stroke-dasharray="4,4"/>'
        )
    elems.append(_text(WIDTH / 2 - 20, HEIGHT - 15, "step"))
    return _svg(elems)


def trend_svg(trainlog: np.ndarray) -> str:
    """Scatter of the weighted diversity bonus against the correctness reward,
    one point per step, with the least-squares fit line."""
    if len(trainlog) == 0:
        raise ValueError("empty train log")
    x = trainlog["correctness"]
    y = trainlog["r_aif"]
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(y.min()), float(y.max())
    to_x = lambda v: MARGIN + (WIDTH - 2 * MARGIN) * (v - xlo) / ((xhi - xlo) or 1.0)
    to_y = _y_scale(ylo, yhi)
    elems = [
        f'<circle cx="{_fmt(to_x(a))}" cy="{_fmt(to_y(b))}" r="2" '
        f'fill="#1f77b4" fill-opacity="0.5"/>'
        for a, b in zip(x, y)
    ]
    if x.std() > 0:
        slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        icept = float(y.mean() - slope * x.mean())
        y0, y1 = icept + slope * xlo, icept + slope * xhi
        elems.append(
            f'<line x1="{_fmt(to_x(xlo))}" y1="{_fmt(to_y(y0))}" '
            f'x2="{_fmt(to_x(xhi))}" y2="{_fmt(to_y(y1))}" stroke="#d62728" stroke-width="1.5"/>'
        )
    elems.append(_text(WIDTH / 2 - 60, HEIGHT - 15, "correctness reward"))
    elems.append(_text(10, 30, f"diversity bonus [{ylo:.4g}, {yhi:.4g}]"))
    return _svg(elems)


def transfer_svg(matrix: AccuracyMatrix) -> str:
    """Forward-transfer bars: accuracy delta vs the untrained row for every
    (stage, not-yet-trained task) pair; no bars when there is none (joint)."""
    deltas = forward_transfer(matrix)
    vals = [0.0] + [d["delta"] for d in deltas]
    to_y = _y_scale(min(vals), max(vals))
    zero_y = to_y(0.0)
    slot = (WIDTH - 2 * MARGIN) / max(len(deltas), 1)
    bar_w = slot * 0.6
    elems = [
        f'<line x1="{MARGIN}" y1="{_fmt(zero_y)}" x2="{WIDTH - MARGIN}" '
        f'y2="{_fmt(zero_y)}" stroke="#444"/>'
    ]
    for i, d in enumerate(deltas):
        x = MARGIN + slot * i + (slot - bar_w) / 2
        y = to_y(max(d["delta"], 0.0))
        h = abs(to_y(d["delta"]) - zero_y)
        color = "#2ca02c" if d["delta"] >= 0 else "#d62728"
        elems.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>'
        )
        elems.append(
            _text(x, HEIGHT - MARGIN + 16, f"s{d['stage']}:{d['task']}", size=10)
        )
        elems.append(_text(x, y - 4, f"{d['delta']:+.3f}", size=10))
    elems.append(_text(10, 30, "zero-shot accuracy delta vs untrained"))
    return _svg(elems)


def write_plots(run_dir: str | Path, trainlog: np.ndarray, matrix: AccuracyMatrix) -> list[Path]:
    run_dir = Path(run_dir)
    out = []
    for name, content in [
        ("rewards.svg", rewards_svg(trainlog)),
        ("trend.svg", trend_svg(trainlog)),
        ("transfer.svg", transfer_svg(matrix)),
    ]:
        path = run_dir / name
        write_atomic(path, content)
        out.append(path)
    return out
