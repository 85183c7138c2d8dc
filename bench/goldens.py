"""Golden output digests: check them (untimed) or record them.

    python3 bench/goldens.py check     # exit 0 iff every recorded digest matches
    python3 bench/goldens.py record    # rewrite bench/goldens.json from this tree

Run from the repository root. The goldens cover every workload's seed pool
and seeds 0-2 of every scenario at a short length. They are byte-identity
gates: a change that claims the same results must leave every digest as
recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads

# Seeds 0-2 of every scenario at a short length.
SCENARIO_SEEDS = (0, 1, 2)
SCENARIO_CONFIG = {"steps_per_task": 30, "eval_episodes": 200}


def _jobs():
    """(section, name, command, config, master seed) for every golden."""
    from guiflux.simulator import SCENARIOS

    for w in workloads.WORKLOADS.values():
        for master in range(workloads.SEED_POOL):
            yield "workloads", w.name, w.command, w.config, master
    for scenario in SCENARIOS:
        for master in SCENARIO_SEEDS:
            config = {**SCENARIO_CONFIG, "scenario": scenario}
            yield "scenarios", scenario, "run", config, master


def compute(cli, work: Path) -> dict:
    goldens: dict = {"workloads": {}, "scenarios": {}}
    for section, name, command, config, master in _jobs():
        cfg = workloads.write_config(work / "config.json", config, master)
        out = work / "out"
        rc = cli.main([command, str(cfg), str(out)])
        if rc != 0:
            raise SystemExit(f"{section} {name} seed {master}: exit {rc}")
        digests = workloads.output_digests(out, command)
        goldens[section].setdefault(name, {})[str(master)] = digests
        shutil.rmtree(out)
    return goldens


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("action", choices=("check", "record"))
    args = p.parse_args(argv)
    root = Path.cwd()
    try:
        cli = workloads.load_program(root)
    except workloads.ProgramMissing as e:
        print(f"goldens: {e}", file=sys.stderr)
        return 2
    work = root / workloads.WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    try:
        actual = compute(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.action == "record":
        workloads.GOLDENS_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"recorded {workloads.GOLDENS_PATH}")
        return 0

    expected = workloads.load_goldens()
    bad = 0
    for section, entries in expected.items():
        for name, seeds in entries.items():
            for seed, digests in seeds.items():
                got = actual.get(section, {}).get(name, {}).get(seed)
                for file, digest in digests.items():
                    ok = got is not None and got.get(file) == digest
                    bad += not ok
                    print(f"{'PASS' if ok else 'FAIL'}  {section}/{name}/seed{seed}/{file}")
    print(f"{bad} golden digest(s) differ" if bad else "all golden digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
