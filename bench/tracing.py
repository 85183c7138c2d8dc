"""Span tracer that wraps guiflux's public functions from outside.

`Tracer.installed()` replaces each traced function in every loaded guiflux
module namespace that holds it (modules import functions by name, so the
defining module alone is not enough) and restores the originals on exit.
Untraced operations therefore run the unmodified program.

A span is (name, start, end, parent index, episodes). Spans stay in memory
and are written out once, by `write_spans`, when the benchmark ends. A
layer's self time is its span duration minus the durations of its direct
children; summed over all spans it equals the root span's duration.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

# (module, function, span name). Functions without a span name are only
# counted: they are too small and too frequent for a span each.
SPANNED = (
    ("guiflux.cli", "main", "cli.main"),
    ("guiflux.config", "load_config", "config.load_config"),
    ("guiflux.simulator", "make_sequence", "simulator.make_sequence"),
    ("guiflux.simulator", "sample_instances", "simulator.sample_instances"),
    ("guiflux.harness", "run_continual", "harness.run_continual"),
    ("guiflux.harness", "ablate", "harness.ablate"),
    ("guiflux.harness", "evaluate", "harness.evaluate"),
    ("guiflux.policy", "sample_group", "policy.sample_group"),
    ("guiflux.policy", "grpo_advantage", "policy.grpo_advantage"),
    ("guiflux.policy", "kl_ref_theta", "policy.kl_ref_theta"),
    ("guiflux.policy", "grad_objective", "policy.grad_objective"),
    ("guiflux.policy", "step", "policy.step"),
    ("guiflux.policy", "objective", "policy.objective"),
    ("guiflux.rewards", "correctness", "rewards.correctness"),
    ("guiflux.rewards", "center_spread", "rewards.center_spread"),
    ("guiflux.rewards", "region_separation", "rewards.region_separation"),
    ("guiflux.persistence", "write_run", "persistence.write_run"),
    ("guiflux.persistence", "write_summary", "persistence.write_summary"),
)
COUNTED = (("guiflux.policy", "action_to_bbox", "policy.action_to_bbox"),)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.counts: Counter = Counter()
        self.ops = 0

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            label = name
            episodes = 0
            if name == "simulator.sample_instances":
                # Evaluation draws come from harness.evaluate; every other
                # caller draws single training episodes.
                label += ".eval" if parent_name == "harness.evaluate" else ".train"
                episodes = args[1] if len(args) > 1 else kwargs["n"]
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, episodes)
            if on_result is not None:
                on_result(self.counts, name, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every listed function for the duration of the block."""
        from guiflux.geometry import BBox

        patches = []
        for module, attr, name in SPANNED:
            orig = getattr(sys.modules[module], attr)
            patches += _replace_everywhere(orig, self._spanned(name, orig))
        for module, attr, name in COUNTED:
            orig = getattr(sys.modules[module], attr)
            patches += _replace_everywhere(orig, self._counted(name, orig))
        post_init = BBox.__post_init__
        counts = self.counts

        def counted_post_init(box):
            counts["geometry.bbox_constructed"] += 1
            post_init(box)

        BBox.__post_init__ = counted_post_init
        try:
            yield self
        finally:
            BBox.__post_init__ = post_init
            for mod, attr, orig in reversed(patches):
                setattr(mod, attr, orig)
            self.ops += 1

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: total self seconds, call count, episode count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        episodes: Counter = Counter()
        for i, (name, t0, t1, _, n) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
            episodes[name] += n
        return self_s, calls, episodes

    def root_wall(self) -> float:
        return sum(t1 - t0 for name, t0, t1, parent, _ in self.spans if parent < 0)

    def write_spans(self, path: Path) -> None:
        """Write one JSON line per span: index, name, start, end, parent, episodes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i, (name, t0, t1, parent, n) in enumerate(self.spans):
                f.write(json.dumps([i, name, t0, t1, parent, n]) + "\n")


def _replace_everywhere(orig, wrapper) -> list:
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "guiflux" and not modname.startswith("guiflux."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    return patches


def _count_zero_advantage(counts, name, args, result):
    counts[name + ".groups"] += 1
    if not result.any():
        counts[name + ".zero_groups"] += 1


def _count_bytes(counts, name, args, result):
    # write_run fills its directory with files; write_summary adds the only
    # regular file beside the per-cell run directories.
    files = Path(args[0]).iterdir()
    counts[name + ".bytes"] += sum(p.stat().st_size for p in files if p.is_file())


_RESULT_HOOKS = {
    "policy.grpo_advantage": _count_zero_advantage,
    "persistence.write_run": _count_bytes,
    "persistence.write_summary": _count_bytes,
}


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics, per traced operation, as {name: (value, unit)}."""
    ops = max(tracer.ops, 1)
    self_s, calls, episodes = tracer.self_times()
    counts = tracer.counts
    out = {}

    def per_op(name, value, unit):
        out[name] = (value / ops, unit)

    for name in (
        "config.load_config", "simulator.make_sequence", "harness.evaluate",
        "harness.run_continual", "harness.ablate", "policy.grpo_advantage",
        "policy.kl_ref_theta", "policy.grad_objective", "policy.step",
        "policy.objective", ROOT,
    ):
        per_op(f"{name}.self_s", self_s[name], "s")

    train = "simulator.sample_instances.train"
    per_op(f"{train}.calls", calls[train], "count")
    per_op(f"{train}.self_s", self_s[train], "s")
    out[f"{train}.us_per_call"] = (_per(self_s[train], calls[train]) * 1e6, "us")

    ev = "simulator.sample_instances.eval"
    per_op(f"{ev}.episodes", episodes[ev], "count")
    per_op(f"{ev}.self_s", self_s[ev], "s")
    out[f"{ev}.us_per_episode"] = (_per(self_s[ev], episodes[ev]) * 1e6, "us")

    sg = "policy.sample_group"
    per_op(f"{sg}.calls", calls[sg], "count")
    per_op(f"{sg}.self_s", self_s[sg], "s")
    out[f"{sg}.us_per_call"] = (_per(self_s[sg], calls[sg]) * 1e6, "us")
    per_op("policy.action_to_bbox.calls", counts["policy.action_to_bbox.calls"], "count")

    out["policy.grpo_advantage.zero_frac"] = (
        _per(counts["policy.grpo_advantage.zero_groups"], counts["policy.grpo_advantage.groups"]),
        "ratio",
    )
    per_op("policy.step.aborts", counts["policy.step.raised.NumericalAbort"], "count")

    for name in ("rewards.correctness", "rewards.center_spread", "rewards.region_separation"):
        per_op(f"{name}.calls", calls[name], "count")
        per_op(f"{name}.self_s", self_s[name], "s")
    rs = "rewards.region_separation"
    out[f"{rs}.us_per_call"] = (_per(self_s[rs], calls[rs]) * 1e6, "us")

    per_op("geometry.bbox_constructed", counts["geometry.bbox_constructed"], "count")

    for name in ("persistence.write_run", "persistence.write_summary"):
        per_op(f"{name}.calls", calls[name], "count")
        per_op(f"{name}.self_s", self_s[name], "s")
        per_op(f"{name}.bytes", counts[name + ".bytes"], "bytes")

    per_op("trace.op_wall_s", tracer.root_wall(), "s")
    out["trace.overhead_frac"] = (median(traced_walls) / median(untraced_walls) - 1.0, "ratio")
    return out


def _per(total, n) -> float:
    return total / n if n else 0.0

