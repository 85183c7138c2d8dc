"""Workloads, the program loader, and the golden-output digests.

Each workload is one guiflux CLI command with a fixed config. The workload
seed picks the config's master seed from a pool of SEED_POOL seeds, so every
operation's outputs can be checked against a recorded SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
SEED_POOL = 16
MATRIX = "matrix.csv"
TRAINLOG = "trainlog.csv"

# Console output stays constant: the program logs errors only.
LOG_LEVEL = "error"
# The policy's arrays are 9x4; multithreaded BLAS only adds scheduling noise.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    command: str  # "run" or "ablate"
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        # Default method (gaussian_dense, N=4, KL on) with token evaluation.
        Workload(
            "train", "run",
            {"scenario": "domain_flux", "steps_per_task": 200, "eval_episodes": 20},
        ),
        # Token training; 4 rows x 3 tasks x 2000 evaluated episodes.
        Workload(
            "eval", "run",
            {"scenario": "domain_flux", "steps_per_task": 2, "eval_episodes": 2000},
        ),
        # One-seed ablation grid: 4 variants x KL on/off x 2 scale points.
        Workload(
            "grid", "ablate",
            {
                "scenario": "resolution_flux",
                "steps_per_task": 10,
                "eval_episodes": 50,
                "optim": {"n_samples": 8},
                "reward": {"correctness_kind": "iou"},
                "sweep": {"scale_points": [[1, 1], [2, 1]]},
            },
        ),
    )
}


class ProgramMissing(RuntimeError):
    """The checkout holds no guiflux sources to benchmark."""


def load_program(root: Path):
    """Import guiflux from `root/src` with the benchmark's fixed environment.

    Must run before anything imports numpy, so the BLAS pin takes effect.
    """
    src = (root / "src").resolve()
    if not (src / "guiflux" / "__init__.py").is_file():
        raise ProgramMissing(f"no guiflux sources under {src}")
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["LOG_LEVEL"] = LOG_LEVEL
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import guiflux.cli

    if not Path(guiflux.cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"guiflux imported from {guiflux.cli.__file__}, not {src}")
    return guiflux.cli


def master_seed(seed: int) -> int:
    return seed % SEED_POOL


def write_config(path: Path, config: dict, master: int) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**config, "seeds": [master]}))
    return path


def run_dirs(out_dir: Path, command: str) -> list[Path]:
    if command == "run":
        return [out_dir]
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


def output_digests(out_dir: Path, command: str) -> dict:
    """SHA-256 of matrix.csv and trainlog.csv.

    For `ablate` each digest covers every cell: it hashes the sorted
    "<run dir> <file digest>" lines, so a missing or extra cell also shows.
    """
    dirs = run_dirs(out_dir, command)
    out = {}
    for name in (MATRIX, TRAINLOG):
        per_dir = [(d.name, _sha256((d / name).read_bytes())) for d in dirs]
        if command == "run":
            out[name] = per_dir[0][1]
        else:
            out[name] = _sha256("".join(f"{n} {h}\n" for n, h in per_dir).encode())
    return out


def count_work(out_dir: Path, command: str, eval_episodes: int) -> dict:
    """Cells, optimization steps and evaluated episodes found in the outputs."""
    dirs = run_dirs(out_dir, command)
    steps = episodes = 0
    for d in dirs:
        steps += len((d / TRAINLOG).read_text().splitlines()) - 1
        rows = (d / MATRIX).read_text().splitlines()
        n_tasks = (len(rows[0].split(",")) - 1) // 3
        episodes += (len(rows) - 1) * n_tasks * eval_episodes
    return {"cells": len(dirs), "steps": steps, "eval_episodes": episodes}


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
