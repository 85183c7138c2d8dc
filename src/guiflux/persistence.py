"""Result persistence: manifest, matrices, train logs, metrics, summaries.

CSV for tabular data, JSON for nested metadata. Floats are written with
repr so re-parsing reproduces the in-memory values exactly; every file is
written to a temp path and renamed so readers never observe partial files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, fields
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .config import render_config
from .harness import (
    AblationCell,
    AccuracyMatrix,
    RunConfig,
    TrainRecord,
    forgetting,
    forward_transfer,
    reward_trend,
)

MANIFEST_NAME = "manifest.json"
MATRIX_NAME = "matrix.csv"
TRAINLOG_NAME = "trainlog.csv"
METRICS_NAME = "metrics.json"
SUMMARY_NAME = "summary.csv"

# trainlog.csv has one column per TrainRecord field, in field order; each
# value is written as the repr of its field's type, which for the harness's
# Python ints and floats is what one "%d"/"%r" format per row writes. The
# annotations are strings because harness postpones their evaluation.
TRAINLOG_HEADER = [f.name for f in fields(TrainRecord)]
_TRAINLOG_KINDS = [int if f.type == "int" else float for f in fields(TrainRecord)]
_TRAINLOG_ROW = ",".join("%d" if kind is int else "%r" for kind in _TRAINLOG_KINDS) + "\n"
_trainlog_values = attrgetter(*TRAINLOG_HEADER)


def write_atomic(path: Path, data: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir: Path, cfg: RunConfig, master_seed: int) -> None:
    """Write manifest.json: config echo, seed, and every fixture constant used."""
    write_json(out_dir / MANIFEST_NAME, {
        "artifact": {"name": "guiflux", "version": __version__},
        "master_seed": int(master_seed),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": render_config(cfg),
        "fixtures": [asdict(t) for t in cfg.tasks],
    })


def write_matrix(out_dir: Path, m: AccuracyMatrix) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    names = m.task_names
    w.writerow(["stage"] + names + [f"text_{n}" for n in names] + [f"icon_{n}" for n in names])
    for i, label in enumerate(m.stage_labels):
        row = [label]
        row += [repr(float(v)) for v in m.overall[i]]
        row += [repr(float(v)) for v in m.text[i]]
        row += [repr(float(v)) for v in m.icon[i]]
        w.writerow(row)
    write_atomic(out_dir / MATRIX_NAME, buf.getvalue())


def read_matrix(path: Path) -> AccuracyMatrix:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    n_tasks = (len(header) - 1) // 3
    names = header[1 : 1 + n_tasks]
    labels = [r[0] for r in rows[1:]]
    data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return AccuracyMatrix(
        overall=data[:, :n_tasks],
        text=data[:, n_tasks : 2 * n_tasks],
        icon=data[:, 2 * n_tasks :],
        task_names=names,
        stage_labels=labels,
    )


def write_trainlog(out_dir: Path, records: list[TrainRecord]) -> None:
    rows = [_TRAINLOG_ROW % _trainlog_values(r) for r in records]
    write_atomic(out_dir / TRAINLOG_NAME, ",".join(TRAINLOG_HEADER) + "\n" + "".join(rows))


def read_trainlog(path: Path) -> list[TrainRecord]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != TRAINLOG_HEADER:
        raise ValueError(f"{path} is not a train log (bad header)")
    out = []
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != len(TRAINLOG_HEADER):
            raise ValueError(
                f"{path} line {line}: expected {len(TRAINLOG_HEADER)} columns, got {len(r)}"
            )
        out.append(TrainRecord(*(kind(v) for kind, v in zip(_TRAINLOG_KINDS, r))))
    return out


def compute_metrics(m: AccuracyMatrix, records: list[TrainRecord]) -> dict:
    """All derived metrics; matrix-derived ones are pure functions of the matrix."""
    per_task_trend = {}
    for task in sorted({r.task for r in records}):
        per_task_trend[str(task)] = reward_trend(records, task=task)
    return {
        "final_average": m.final_average(),
        "stage_averages": [m.stage_average(i) for i in range(m.n_stages + 1)],
        "forward_transfer": forward_transfer(m),
        "forgetting": forgetting(m),
        "reward_trend_r": reward_trend(records),
        "reward_trend_r_by_task": per_task_trend,
    }


def write_metrics(out_dir: Path, m: AccuracyMatrix, records: list[TrainRecord]) -> None:
    write_json(out_dir / METRICS_NAME, compute_metrics(m, records))


def write_run(out_dir: str | Path, cfg: RunConfig, master_seed: int,
              m: AccuracyMatrix, records: list[TrainRecord]) -> None:
    """Persist one complete run: manifest, matrix, train log, metrics."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, cfg, master_seed)
    write_matrix(out, m)
    write_trainlog(out, records)
    write_metrics(out, m, records)


def write_summary(out_dir: Path, cells: list[tuple[AblationCell, list[float]]]) -> None:
    """Write summary.csv: one row per grid cell with the seed mean and spread
    of its runs' final average accuracy, given as (cell, finals) pairs."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["cell", "variant", "use_kl", "alpha_scale", "gamma_scale",
         "n_seeds", "final_avg_mean", "final_avg_std"]
    )
    for cell, finals in cells:
        finals = np.array(finals)
        w.writerow(
            [
                cell.cell_id, cell.variant, int(cell.use_kl),
                repr(cell.alpha_scale), repr(cell.gamma_scale),
                len(finals), repr(float(finals.mean())), repr(float(finals.std())),
            ]
        )
    write_atomic(Path(out_dir) / SUMMARY_NAME, buf.getvalue())
