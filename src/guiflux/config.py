"""Run-configuration file parsing.

The config is a single JSON document. Every field has a default; unknown
keys anywhere in the document are errors (silent typos in experiment
configs are the classic reproducibility failure). `render_config` emits the
fully-defaulted dict that goes into the run manifest, and parsing that dict
back reproduces the same RunConfig.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigError
from .harness import DEFAULT_SCALE_POINTS, RunConfig
from .policy import OptimConfig
from .rewards import RewardConfig
from .simulator import SCENARIOS, make_sequence

_OPTIM_KEYS = {
    "beta", "lr", "n_samples", "inner_epochs", "ref_refresh", "init_log_std",
    "init_log_std_size", "init_size",
}
_REWARD_KEYS = {
    "alpha", "gamma", "kappa", "eps_min", "correctness_kind", "tau", "literal_variance",
}
_ABLATION_KEYS = {"use_apr", "use_arr", "use_kl"}
_SWEEP_KEYS = {"alpha_scale", "gamma_scale", "scale_points"}
_SIM_KEYS = {"overrides"}
_TOP_KEYS = {
    "scenario", "steps_per_task", "eval_episodes", "seeds",
    "optim", "reward", "ablation", "sweep", "simulator",
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

    optim_doc = _section(doc, "optim", _OPTIM_KEYS)
    reward_doc = _section(doc, "reward", _REWARD_KEYS)
    ablation_doc = _section(doc, "ablation", _ABLATION_KEYS)
    sweep_doc = _section(doc, "sweep", _SWEEP_KEYS)
    sim_doc = _section(doc, "simulator", _SIM_KEYS)

    scenario = doc.get("scenario", "domain_flux")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}; expected one of {SCENARIOS}")

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds
    ):
        raise ConfigError("seeds: must be a non-empty list of non-negative integers")

    scale_points = sweep_doc.get("scale_points", [list(p) for p in DEFAULT_SCALE_POINTS])
    try:
        scale_points = tuple(
            (float(a), float(g)) for a, g in (tuple(p) for p in scale_points)
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"sweep.scale_points: expected a list of [alpha, gamma] pairs: {e}") from e
    for i, (a, g) in enumerate(scale_points):
        if not (a > 0.0 and g > 0.0):
            raise ConfigError(f"sweep.scale_points[{i}]: scales must be positive, got [{a:g}, {g:g}]")

    overrides = sim_doc.get("overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(v, dict) for v in overrides.values()):
        raise ConfigError("simulator.overrides: must map task name to a field/value object")
    # Builds every task once, so invalid fixture overrides fail here, not mid-run.
    make_sequence(scenario, seeds[0], overrides)

    try:
        optim = OptimConfig(
            beta=_num(optim_doc, "optim.beta", 0.04),
            lr=_num(optim_doc, "optim.lr", OptimConfig.lr),
            n_samples=_int(optim_doc, "optim.n_samples", 4),
            inner_epochs=_int(optim_doc, "optim.inner_epochs", 1),
            ref_refresh=str(optim_doc.get("ref_refresh", "per_task")),
            init_log_std=_num(optim_doc, "optim.init_log_std", OptimConfig.init_log_std),
            init_log_std_size=_num(optim_doc, "optim.init_log_std_size", OptimConfig.init_log_std_size),
            init_size=_num(optim_doc, "optim.init_size", OptimConfig.init_size),
        )
        reward = RewardConfig(
            alpha=_num(reward_doc, "reward.alpha", 15.0),
            gamma=_num(reward_doc, "reward.gamma", 0.5),
            kappa=_num(reward_doc, "reward.kappa", 1.0),
            eps_min=_num(reward_doc, "reward.eps_min", 1e-8),
            correctness_kind=str(reward_doc.get("correctness_kind", "gaussian_dense")),
            tau=_num(reward_doc, "reward.tau", 0.1),
            literal_variance=_bool(reward_doc, "reward.literal_variance", False),
        )
        return RunConfig(
            scenario=scenario,
            steps_per_task=_int(doc, "steps_per_task", 500),
            eval_episodes=_int(doc, "eval_episodes", 2000),
            optim=optim,
            reward=reward,
            use_apr=_bool(ablation_doc, "ablation.use_apr", True),
            use_arr=_bool(ablation_doc, "ablation.use_arr", True),
            use_kl=_bool(ablation_doc, "ablation.use_kl", True),
            alpha_scale=_num(sweep_doc, "sweep.alpha_scale", 1.0),
            gamma_scale=_num(sweep_doc, "sweep.gamma_scale", 1.0),
            seeds=tuple(seeds),
            scale_points=scale_points,
            sim_overrides=overrides,
        )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
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
        "ablation": {
            "use_apr": cfg.use_apr,
            "use_arr": cfg.use_arr,
            "use_kl": cfg.use_kl,
        },
        "sweep": {
            "alpha_scale": cfg.alpha_scale,
            "gamma_scale": cfg.gamma_scale,
            "scale_points": [list(p) for p in cfg.scale_points],
        },
        "simulator": {"overrides": cfg.sim_overrides},
    }


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


def _num(doc: dict, path: str, default: float) -> float:
    v = doc.get(path.split(".")[-1], default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _int(doc: dict, path: str, default: int) -> int:
    v = doc.get(path.split(".")[-1], default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _bool(doc: dict, path: str, default: bool) -> bool:
    v = doc.get(path.split(".")[-1], default)
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {v!r}")
    return v
