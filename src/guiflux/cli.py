"""Command-line entry points.

    guiflux run <config.json> <out_dir> [--seed S]
    guiflux ablate <config.json> <out_dir> [--seed S]
    guiflux plot <run_dir>
    guiflux verify

Exit codes: 0 success, 1 verification failure, 2 input/config error or an
unreadable or unwritable path, 3 numerical abort. LOG_LEVEL
(error|info|debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, persistence, plots, verify
from .config import load_config
from .errors import ConfigError
from .policy import NumericalAbort

log = logging.getLogger("guiflux")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _setup_logging():
    level = os.environ.get("LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        print(f"warning: unknown LOG_LEVEL {level!r}, using info", file=sys.stderr)
    logging.basicConfig(
        level=levels.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def non_negative_int(text: str) -> int:
    """argparse type of --seed: a master seed is a non-negative int."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    # fails before any training when the output path cannot be a directory
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    matrix, trainlog = harness.run_continual(cfg, seed)
    persistence.write_run(args.out_dir, cfg, seed, matrix, trainlog)
    log.info(
        "run complete: scenario=%s seed=%d final_average=%.4f -> %s",
        cfg.scenario, seed, matrix.final_average(), args.out_dir,
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = harness.ablate(cfg)
    # A zeroed weight loses its scale, so several cells can hold the same
    # run: train each distinct (alpha, gamma, beta) once and give its result
    # to every cell that shares it.
    runs: dict[tuple[float, float, float], harness.RunConfig] = {}
    for cell in cells:
        runs.setdefault(_weights(cell.cfg), cell.cfg)
    finals: list[list[float]] = [[] for _ in cells]
    aborts = []
    # one batch per seed; its runs are written as it returns, so an abort
    # keeps every finished run and every later seed still runs
    for seed in cfg.seeds:
        results = dict(zip(runs, harness.run_batch(list(runs.values()), seed)))
        for cell, cell_finals in zip(cells, finals):
            result = results[_weights(cell.cfg)]
            run_id = f"{cell.cell_id}_s{seed}"
            if isinstance(result, NumericalAbort):
                log.error("ablation run %s aborted: %s", run_id, result)
                aborts.append(result)
                continue
            matrix, trainlog = result
            persistence.write_run(out / run_id, cell.cfg, seed, matrix, trainlog)
            log.info("ablation run %s done", run_id)
            cell_finals.append(matrix.final_average())
    if aborts:
        raise aborts[0]
    persistence.write_summary(out, list(zip(cells, finals)))
    log.info("ablation grid complete: %d cells -> %s", len(cells), args.out_dir)
    return EXIT_OK


def _weights(cfg: harness.RunConfig) -> tuple[float, float, float]:
    """The method weights, all that the configs of one ablation batch vary."""
    return cfg.reward.alpha, cfg.reward.gamma, cfg.optim.beta


def _read_run_file(read, path: Path):
    """`read(path)`; a missing or damaged file is an input error naming it."""
    try:
        return read(path)
    except (OSError, ValueError, IndexError, OverflowError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    path = run_dir / persistence.TRAINLOG_NAME
    trainlog = _read_run_file(persistence.read_trainlog, path)
    if len(trainlog) == 0:
        raise ConfigError(f"{path} holds no training steps")
    matrix = _read_run_file(persistence.read_matrix, run_dir / persistence.MATRIX_NAME)
    written = plots.write_plots(run_dir, trainlog, matrix)
    log.info("wrote %s", ", ".join(p.name for p in written))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.verify_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:24s} {r.detail}")
    if failed:
        print(f"verification failed: {failed[0].name}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="guiflux", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one continual run and persist its outputs")
    run.add_argument("config")
    run.add_argument("out_dir")
    run.add_argument("--seed", type=non_negative_int, default=None, help="override the config's first seed")
    run.set_defaults(fn=cmd_run)

    ablate = sub.add_parser("ablate", help="execute the ablation grid")
    ablate.add_argument("config")
    ablate.add_argument("out_dir")
    ablate.add_argument("--seed", type=non_negative_int, default=None, help="replace the config's seed list")
    ablate.set_defaults(fn=cmd_ablate)

    plot = sub.add_parser("plot", help="emit SVG plots from a persisted run directory")
    plot.add_argument("run_dir")
    plot.set_defaults(fn=cmd_plot)

    ver = sub.add_parser("verify", help="run the independent numerical oracles")
    ver.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        log.error("%s", e)
        return EXIT_INPUT_ERROR
    except NumericalAbort as e:
        log.error("numerical abort: %s", e)
        return EXIT_NUMERICAL
    except OSError as e:
        # the message names the path, e.g. an out_dir that is a file
        log.error("%s", e)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
