#!/usr/bin/env python3
"""Per-stage times of ``repro run``, cold and read-back.

Each round runs every campaign twice through ``repro run --json`` on the
serial transport: *cold* (fresh artifact cache, fresh store, in-memory
session caches cleared) and *read-back* (the same command again, which
resumes from the store without grading). The per-layer spans of
``perfbench/tracing.py`` time every stage; the script prints, as JSON,
each stage's median self time in milliseconds per (circuit, phase), plus
the median wall time. ``cli.main`` is the time no layer span covers.

Run from the repository root::

    PYTHONPATH=src python scripts/stage_times.py --rounds 5
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the traced stages, in pipeline order
STAGES = (
    "circuits.build",
    "faults.population",
    "sim.cache.compiled",
    "sim.cache.golden",
    "sim.backends.grade",
    "sim.parallel.grade",
    "sim.parallel.decode",
    "sim.parallel.digest",
    "faults.classify",
    "run.worker.window",
    "run.runner.grade",
    "emu.campaign.accounting",
    "run.store.append",
    "cli.main",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--campaign",
        action="append",
        metavar="CIRCUIT:SEED",
        help="campaign to time (repeatable; default b14 seeds 7000 and "
        "7001, hardened:tmr:b14 seed 7002)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    campaigns = [
        tuple(entry.rsplit(":", 1))
        for entry in args.campaign
        or ("b14:7000", "b14:7001", "hardened:tmr:b14:7002")
    ]

    from perfbench.tracing import Tracer
    from repro.run import worker
    from repro.run.cli import main as repro_main
    from repro.sim.backends._native import native_kernel
    from repro.sim.cache import clear_caches

    native_kernel()  # set-up, not a stage
    tracer = Tracer()
    tracer.install()
    samples: Dict[str, Dict[str, List[float]]] = {}
    work = tempfile.mkdtemp(prefix="stage-times-")
    try:
        for _ in range(args.rounds):
            for circuit, seed in campaigns:
                clear_caches()
                worker.clear_scenarios()
                os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(dir=work)
                argv = ["run", "--circuit", circuit, "--seed", seed,
                        "--transport", "serial", "--store",
                        tempfile.mkdtemp(dir=work), "--json", "--quiet"]
                for phase in ("cold", "read-back"):
                    tracer.spans = []
                    tracer.enabled = True
                    started = time.perf_counter()
                    with tracer.span("cli.main", circuit), \
                            contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        if repro_main(argv):
                            raise SystemExit(f"repro {' '.join(argv)} failed")
                    wall = time.perf_counter() - started
                    tracer.enabled = False
                    row = samples.setdefault(f"{circuit} {phase}", {})
                    for stage in STAGES:
                        row.setdefault(stage, []).append(tracer.self_time(stage))
                    row.setdefault("wall", []).append(wall)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        key: {stage: round(1000 * statistics.median(values), 1)
              for stage, values in row.items()}
        for key, row in samples.items()
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
