"""Run-configuration file parsing.

The config is a single JSON document. Every field has a default; unknown
keys anywhere in the document are errors (silent typos in experiment
configs are the classic reproducibility failure). `render_config` emits the
fully-defaulted dict that goes into the run manifest, and parsing that dict
back reproduces the same RunConfig. Every default lives in its dataclass;
the `optim` and `reward` sections take their keys, defaults and types from
the fields of OptimConfig and RewardConfig.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import ConfigError
from .harness import RunConfig
from .policy import OptimConfig
from .rewards import RewardConfig

def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: line {e.lineno}: {e.msg}") from e
    except RecursionError as e:
        raise ConfigError(f"config {path} is nested too deeply to parse") from e
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document.

    This checks the document's shape; RunConfig checks the values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    unknown = _unknown_keys(doc, render_config(RunConfig()), "")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    optim = _dataclass_section(doc, "optim", OptimConfig)
    reward = _dataclass_section(doc, "reward", RewardConfig)
    sweep_doc = doc.get("sweep", {})
    sim_doc = doc.get("simulator", {})

    seeds = doc.get("seeds", list(RunConfig.seeds))
    if not isinstance(seeds, list):
        raise ConfigError("seeds: must be a non-empty list of non-negative integers")

    points = sweep_doc.get("scale_points", RunConfig.scale_points)
    if not isinstance(points, (list, tuple)):
        raise ConfigError("sweep.scale_points: expected a list of [alpha, gamma] pairs")
    scale_points = tuple(_scale_point(p, f"sweep.scale_points[{i}]") for i, p in enumerate(points))

    overrides = sim_doc.get("overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(v, dict) for v in overrides.values()):
        raise ConfigError("simulator.overrides: must map task name to a field/value object")
    # a matrix, two levels of lists, is the deepest fixture value
    overrides = {
        task: {key: _floats(v, f"simulator.overrides.{task}.{key}", 2) for key, v in values.items()}
        for task, values in overrides.items()
    }

    scenario = _value(doc.get("scenario", RunConfig.scenario), "scenario", str)
    steps_per_task, eval_episodes = (
        _value(doc.get(key, getattr(RunConfig, key)), key, int)
        for key in ("steps_per_task", "eval_episodes")
    )
    try:
        return RunConfig(
            scenario=scenario,
            steps_per_task=steps_per_task,
            eval_episodes=eval_episodes,
            optim=optim,
            reward=reward,
            seeds=tuple(seeds),
            scale_points=scale_points,
            sim_overrides=overrides,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def render_config(cfg: RunConfig) -> dict:
    """Fully-defaulted JSON-ready echo of a RunConfig (manifest payload)."""
    return {
        "scenario": cfg.scenario,
        "steps_per_task": cfg.steps_per_task,
        "eval_episodes": cfg.eval_episodes,
        "seeds": list(cfg.seeds),
        "optim": asdict(cfg.optim),
        "reward": asdict(cfg.reward),
        "sweep": {"scale_points": [list(p) for p in cfg.scale_points]},
        "simulator": {"overrides": cfg.sim_overrides},
    }


def _dataclass_section(doc: dict, name: str, cls: type):
    """Parse section `name` into `cls`; its fields give the defaults and types."""
    sub = doc.get(name, {})
    values = {
        f.name: _value(sub.get(f.name, f.default), f"{name}.{f.name}", _KINDS[f.type])
        for f in fields(cls)
    }
    try:
        return cls(**values)
    except ValueError as e:
        # every OptimConfig/RewardConfig message starts with its field name
        raise ConfigError(f"{name}.{e}") from e


def _unknown_keys(doc: dict, layout: dict, prefix: str) -> list[str]:
    """Paths of the keys of `doc` that the defaulted `layout` lacks. A section
    that the layout fills with keys must be an object and is walked too."""
    unknown = []
    for key, value in doc.items():
        if key not in layout:
            unknown.append(prefix + key)
        elif isinstance(layout[key], dict) and layout[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key}: must be an object")
            unknown += _unknown_keys(value, layout[key], f"{prefix}{key}.")
    return unknown


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string"}
# Field annotations are strings (both config modules postpone annotation
# evaluation); typing.get_type_hints would resolve them at ~30 us a field.
_KINDS = {kind.__name__: kind for kind in _EXPECTED}


def _scale_point(point, path: str) -> tuple[float, float]:
    """One [alpha, gamma] entry of sweep.scale_points, as two floats."""
    if not isinstance(point, (list, tuple)) or len(point) != 2:
        raise ConfigError(f"{path}: expected an [alpha, gamma] pair, got {point!r}")
    return tuple(_floats(point, path, 1))


def _floats(v, path: str, depth: int):
    """`v`, the value at `path`, as floats: a number, or lists of numbers
    nested at most `depth` deep. An error names the offending leaf, e.g.
    `{path}[0][1]`."""
    if depth and isinstance(v, (list, tuple)):
        return [_floats(x, f"{path}[{i}]", depth - 1) for i, x in enumerate(v)]
    return _value(v, path, float)


def _value(v, path: str, kind: type):
    """`v`, the value at `path`, which must be a `kind`; an int is accepted
    where a float is expected, a bool never is."""
    if kind is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    # isfinite rejects the nan and +-inf that JSON NaN/Infinity parse to
    if type(v) is not kind or (kind is float and not math.isfinite(v)):
        raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {v!r}")
    return v
