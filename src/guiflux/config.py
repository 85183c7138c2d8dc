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
from .harness import RunConfig, scale_label
from .policy import OptimConfig
from .rewards import RewardConfig
from .simulator import SCENARIOS, make_sequence

_SWEEP_KEYS = {"scale_points"}
_SIM_KEYS = {"overrides"}
_TOP_KEYS = {
    "scenario", "steps_per_task", "eval_episodes", "seeds",
    "optim", "reward", "sweep", "simulator",
}


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: line {e.lineno}: {e.msg}") from e
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, _TOP_KEYS, "")

    optim = _dataclass_section(doc, "optim", OptimConfig)
    reward = _dataclass_section(doc, "reward", RewardConfig)
    sweep_doc = _section(doc, "sweep", _SWEEP_KEYS)
    sim_doc = _section(doc, "simulator", _SIM_KEYS)

    scenario = doc.get("scenario", RunConfig.scenario)
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}; expected one of {SCENARIOS}")

    seeds = doc.get("seeds", list(RunConfig.seeds))
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds
    ):
        raise ConfigError("seeds: must be a non-empty list of non-negative integers")

    scale_points = sweep_doc.get("scale_points", RunConfig.scale_points)
    try:
        scale_points = tuple(
            (float(a), float(g)) for a, g in (tuple(p) for p in scale_points)
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"sweep.scale_points: expected a list of [alpha, gamma] pairs: {e}") from e
    if not scale_points:
        raise ConfigError("sweep.scale_points: must hold at least one [alpha, gamma] pair")
    labels: dict[str, int] = {}
    for i, (a, g) in enumerate(scale_points):
        if not (0.0 < a < math.inf and 0.0 < g < math.inf):
            raise ConfigError(
                f"sweep.scale_points[{i}]: scales must be positive and finite, got [{a:g}, {g:g}]"
            )
        label = scale_label(a, g)
        if label in labels:
            raise ConfigError(
                f"sweep.scale_points[{i}]: [{a!r}, {g!r}] names the same grid cells "
                f"({label}) as sweep.scale_points[{labels[label]}]"
            )
        labels[label] = i

    overrides = sim_doc.get("overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(v, dict) for v in overrides.values()):
        raise ConfigError("simulator.overrides: must map task name to a field/value object")
    # Builds every task once, so invalid fixture overrides fail here, not mid-run.
    make_sequence(scenario, seeds[0], overrides)

    steps_per_task = _value(doc, "steps_per_task", RunConfig.steps_per_task, int)
    eval_episodes = _value(doc, "eval_episodes", RunConfig.eval_episodes, int)
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
    """Parse section `name` into `cls`; its fields give the keys, defaults and types."""
    sub = _section(doc, name, {f.name for f in fields(cls)})
    values = {
        f.name: _value(sub, f"{name}.{f.name}", f.default, _KINDS[f.type])
        for f in fields(cls)
    }
    try:
        return cls(**values)
    except ValueError as e:
        # every OptimConfig/RewardConfig message starts with its field name
        raise ConfigError(f"{name}.{e}") from e


def _section(doc: dict, name: str, allowed: set) -> dict:
    sub = doc.get(name, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{name}: must be an object")
    _reject_unknown(sub, allowed, name + ".")
    return sub


def _reject_unknown(doc: dict, allowed: set, prefix: str):
    unknown = set(doc) - allowed
    if unknown:
        keys = ", ".join(prefix + k for k in sorted(unknown))
        raise ConfigError(f"unknown config keys: {keys}")


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string"}
# Field annotations are strings (both config modules postpone annotation
# evaluation); typing.get_type_hints would resolve them at ~30 us a field.
_KINDS = {kind.__name__: kind for kind in _EXPECTED}


def _value(doc: dict, path: str, default, kind: type):
    """The value under the last key of `path` (or `default`), which must be a
    `kind`; an int is accepted where a float is expected, a bool never is."""
    v = doc.get(path.split(".")[-1], default)
    if kind is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    # isfinite rejects the nan and +-inf that JSON NaN/Infinity parse to
    if type(v) is not kind or (kind is float and not math.isfinite(v)):
        raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {v!r}")
    return v
