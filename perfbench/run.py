"""End-to-end campaign benchmark.

    python3 perfbench/run.py --workload seu_campaigns --seed 1 --seconds 45 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) from the
root of a checkout, checks every campaign and query against
``references.json``, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the run is traced (``tracing.py``) and the metrics are the per-layer ones
of ``layers.json``. The line before it is an ``info`` object: the machine
fingerprint, sample counts, the failed ratio, the first failures, and for
``seu_campaigns`` the paper-accuracy figures. Each result is also appended
to ``.perfbench_work/results.jsonl``.

End-to-end times and rates are in reference-host seconds: each operation
is timed by ``common.HostClock``, which scales it by the host's speed
measured just before and just after it. The ``info`` line gives the run's
median host-speed factor.

Everything a run writes stays under ``.perfbench_work/`` in the checkout:
every run gets fresh artifact and native-kernel caches, stores and service
database, which are removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, reference, workloads  # noqa: E402

#: set-up launches per run; ``setup_s`` is their median
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "faults_per_s": "faults/s",
    "turnaround_s.p50": "s",
    "turnaround_s.p90": "s",
    "query_s.p50": "s",
    "query_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: what a fresh ``repro run`` process does before its first campaign
_CLI_SETUP = (
    "import repro.run.cli\n"
    "from repro.sim.backends._native import native_kernel\n"
    "native_kernel()\n"
    "print('ready', flush=True)\n"
)


def cli_setup_seconds(directory: str) -> float:
    """Launch a fresh Python with empty caches; seconds until it has
    imported the CLI and built the native kernel."""
    env = common.child_env(
        REPRO_CACHE_DIR=common.fresh_dir(os.path.join(directory, "artifacts")),
        XDG_CACHE_HOME=common.fresh_dir(os.path.join(directory, "xdg")),
    )
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _CLI_SETUP], env=env, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if child.returncode or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with {child.returncode}")
    return elapsed


def service_setup_seconds(directory: str) -> float:
    from perfbench.service_load import Daemon

    daemon = Daemon(directory)
    try:
        return daemon.start()
    finally:
        daemon.stop()


def measure_setup(workload: str, run_dir: str, repeats: int, clock) -> List[float]:
    measure = (
        service_setup_seconds if workload in workloads.SERVICE_WORKLOADS else cli_setup_seconds
    )
    samples = []
    for n in range(repeats):
        directory = os.path.join(run_dir, f"setup-{n}")
        samples.append(clock.scale(lambda: (None, measure(directory)))[1])
    return samples


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny campaigns and one set-up launch (the harness self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_sources()
        references = reference.load_references()
    except (common.SetupError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    run_dir = common.fresh_dir(
        os.path.join(common.WORK_DIR, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    )
    try:
        return _run(args, run_dir, references)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: str, references: Dict) -> int:
    common.isolate_caches(os.path.join(run_dir, "caches"))
    if args.workload in workloads.SERVICE_WORKLOADS:
        os.environ["REPRO_FUSED_THREADS"] = "1"
    checker = reference.Checker(references)
    clock = common.HostClock()
    tracer = None
    setup = []
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        setup = measure_setup(args.workload, run_dir, 1 if args.smoke else SETUP_REPEATS, clock)

    slot = workloads.slot_of(args.seed)
    started = time.perf_counter()
    if args.workload in workloads.SERVICE_WORKLOADS:
        from perfbench import service_load

        campaigns = workloads.SMOKE if args.smoke else workloads.service_campaigns(slot)
        minimum = len(campaigns) if args.smoke else service_load.MIN_CAMPAIGNS
        outcome = service_load.workload(
            campaigns, args.seconds, run_dir, checker, clock, tracer, minimum
        )
    else:
        from perfbench import cli_load

        campaigns = workloads.SMOKE if args.smoke else workloads.cli_round(args.workload, slot)
        paper = args.workload == "seu_campaigns" and not args.smoke
        outcome = cli_load.workload(
            campaigns, args.seconds, run_dir, checker, clock, tracer, paper
        )
    wall = time.perf_counter() - started

    if tracer is not None:
        from perfbench.tracing import layer_units

        tracer.uninstall()
        trace_dir = os.path.join(common.WORK_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"))
        values = tracer.layer_metrics(outcome["layers"])
        units = layer_units()
    else:
        values = dict(outcome["metrics"], setup_s=median(setup))
        units = END_TO_END_UNITS
        outcome["info"].update(host_speed_factor=clock.factor(), host_probes=len(clock.probes))
    info = dict(
        outcome["info"],
        workload=args.workload,
        seed=args.seed,
        slot=slot,
        held_out_slot=slot == workloads.HELD_OUT_SLOT,
        trace=args.trace,
        wall_s=wall,
        setup_samples=setup,
        failed_ratio=checker.failed / max(1, checker.attempted),
        problems=checker.problems,
        machine=common.fingerprint(),
    )
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(common.WORK_DIR, exist_ok=True)
    with open(os.path.join(common.WORK_DIR, "results.jsonl"), "a", encoding="utf-8") as log:
        log.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
