"""guiflux benchmark: one closed-loop caller driving the public CLI.

    python3 bench/run.py --workload {train,eval,grid} --seed N --seconds S --trace {0,1}

Run it from the repository root. One caller runs one operation (a
`guiflux run` or `guiflux ablate` invocation through `cli.main`) at a time
and starts the next only after the previous one returned and its outputs
matched the recorded golden digests. The last stdout line is the result
JSON; the lines before it print every metric with its unit and the
context (tail latency, failures, host-speed probe). See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from tracing import Tracer, layer_metrics

SETUP_REPS = 9
# Fresh-process set-up: import the CLI, parse the config, build the tasks.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import guiflux.cli
from guiflux.config import load_config
from guiflux.simulator import make_sequence
cfg = load_config(sys.argv[1])
make_sequence(cfg.scenario, cfg.seeds[0], cfg.sim_overrides)
print(repr(time.perf_counter() - t0))
"""
PROBE_ITERS = 20000
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "op_s_min": "s",
    "steps_per_s": "1/s",
    "eval_episodes_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: context for the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i
    return time.perf_counter() - t0


class Runner:
    """Runs operations one at a time and checks each one's outputs."""

    def __init__(self, cli, workload, cfg_path: Path, expected: dict, work: Path):
        self.cli = cli
        self.workload = workload
        self.cfg_path = cfg_path
        self.expected = expected
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[float] = []
        self.work_per_op: dict | None = None

    def op(self, tracer: Tracer | None = None) -> tuple[float, dict | None]:
        out = self.work / f"op{self.attempted}"
        argv = [self.workload.command, str(self.cfg_path), str(out)]
        # Each operation starts from a collected heap, as a fresh CLI process would.
        gc.collect()
        self.probes.append(host_probe())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                with tracer.installed():
                    rc = self.cli.main(argv)
        except Exception as e:  # a program failure is counted, not fatal
            rc = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        self.attempted += 1
        digests = None
        if rc == 0:
            try:
                digests = workloads.output_digests(out, self.workload.command)
                if self.work_per_op is None:
                    self.work_per_op = workloads.count_work(
                        out, self.workload.command, self.workload.config["eval_episodes"]
                    )
            except OSError as e:
                rc = f"unreadable outputs: {e}"
        if rc != 0:
            self.failures.append(f"op {self.attempted - 1}: exit {rc}")
        elif digests != self.expected:
            self.failures.append(f"op {self.attempted - 1}: outputs {digests} != golden {self.expected}")
        self.failed += digests != self.expected
        shutil.rmtree(out, ignore_errors=True)
        return wall, digests


def measure_setup(root: Path, cfg_path: Path) -> float:
    """Seconds one fresh process spends importing and setting up."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(cfg_path)],
        cwd=root, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND operations above it."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return {"percentile": 100 * k // n, "value_s": sorted(walls)[k - 1], "n": n}


def timed_run(runner: Runner, root: Path, seconds: float) -> tuple[dict, dict]:
    runner.op()  # warm-up: first-call costs, work counts
    walls, setup = [], []
    start = time.perf_counter()
    while True:
        walls.append(runner.op()[0])
        now = time.perf_counter()
        # Set-up samples are spread over the run, between operations, so a
        # few slow seconds on the host do not decide their median.
        if len(setup) < SETUP_REPS and now >= start + seconds * len(setup) / SETUP_REPS:
            setup.append(measure_setup(root, runner.cfg_path))
        if now >= start + seconds:
            break
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(root, runner.cfg_path))
    # Other tenants of a shared host only ever add time, and their load
    # drifts over minutes; the fastest operation of a run is the steadiest
    # estimate of the program's own cost. The median and tail are context.
    fastest = min(walls)
    work = runner.work_per_op or {"cells": 0, "steps": 0, "eval_episodes": 0}
    metrics = {
        "setup_s": median(setup),
        "op_s_min": fastest,
        "steps_per_s": work["steps"] / fastest,
        "eval_episodes_per_s": work["eval_episodes"] / fastest,
        "cells_per_s": work["cells"] / fastest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    context = {
        "setup_s": setup, "op_s": walls, "op_s_p50": median(walls),
        "op_s_tail": tail(walls), "work_per_op": work,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, context


def traced_run(runner: Runner, root: Path, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced operations on the same input."""
    runner.op()  # warm-up
    tracer = Tracer()
    untraced, traced, mismatched = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        wall_u, digests_u = runner.op()
        wall_t, digests_t = runner.op(tracer)
        untraced.append(wall_u)
        traced.append(wall_t)
        if digests_t != digests_u:
            mismatched += 1
            runner.failures.append(f"traced outputs {digests_t} != untraced {digests_u}")
        if time.perf_counter() >= deadline:
            break
    tracer.write_spans(spans_path)
    context = {
        "op_s_untraced": untraced,
        "op_s_traced": traced,
        "traced_untraced_mismatches": mismatched,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(root)),
    }
    return layer_metrics(tracer, traced, untraced), context


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    try:
        cli = workloads.load_program(root)
        expected = workloads.load_goldens()["workloads"][args.workload][
            str(workloads.master_seed(args.seed))
        ]
    except (workloads.ProgramMissing, OSError, KeyError) as e:
        print(f"bench: cannot run: {e!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    master = workloads.master_seed(args.seed)
    work = root / workloads.WORK_DIR
    out = root / workloads.OUT_DIR
    shutil.rmtree(work, ignore_errors=True)
    cfg_path = workloads.write_config(work / "config.json", workload.config, master)
    runner = Runner(cli, workload, cfg_path, expected, work)
    try:
        if args.trace:
            spans_path = out / f"{args.workload}.spans.jsonl.gz"
            metrics, context = traced_run(runner, root, args.seconds, spans_path)
        else:
            metrics, context = timed_run(runner, root, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    mismatched = context.get("traced_untraced_mismatches", 0)
    probes = sorted(runner.probes)
    context.update(
        workload=args.workload, seed=args.seed, master_seed=master, trace=args.trace,
        failed_frac=failed / runner.attempted, failures=runner.failures[:20],
        host_probe_s={"p50": median(probes), "min": probes[0], "max": probes[-1]},
    )
    out.mkdir(exist_ok=True)
    report = out / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metrics": metrics, "context": context}, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if "op_s_p50" in context:
        print(f"context op_s_p50 = {context['op_s_p50']:.6g} s (n={len(context['op_s'])})")
    if context.get("op_s_tail"):
        t = context["op_s_tail"]
        print(f"context op_s_tail p{t['percentile']} = {t['value_s']:.6g} s (n={t['n']})")
    elif not args.trace:
        print(f"context op_s_tail not reported: {len(context['op_s'])} operations, need > {TAIL_BEYOND}")
    print(f"context failed_frac = {failed}/{runner.attempted}")
    hp = context["host_probe_s"]
    print(f"context host_probe_s p50={hp['p50']:.6g} min={hp['min']:.6g} max={hp['max']:.6g}")
    for line in runner.failures[:5]:
        print(f"failure {line}")
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
