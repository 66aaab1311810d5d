"""The CLI workloads (``seu_campaigns``, ``fault_models``).

A run repeats a *round* of campaigns until ``--seconds`` have passed. Each
round starts a cold session: a fresh artifact cache directory and results
store, and the program's in-memory session caches cleared
(``repro.sim.cache.clear_caches`` and ``repro.run.worker.clear_scenarios``),
as a new ``repro run`` process would see them. The native kernel stays
loaded; building it is set-up.

In the round, every campaign runs through ``repro.run.cli.main(["run", ...,
"--json", "--quiet"])`` on the serial transport with a JSONL store; each
call gives one ``turnaround_s`` sample. Then every campaign of the round is
run again ``READBACKS`` times: it resumes from the store without grading,
and each read-back gives one ``query_s`` sample. Every output is checked
against the references. Untraced runs time each call with
``common.HostClock``, so the samples are in reference-host seconds.

``faults_per_s`` and the percentiles of ``turnaround_s`` and ``query_s``
describe one pass over the round with every campaign at its median over
the run. The campaigns of a round differ in size, so a percentile of the
pooled samples jumps from one campaign's samples to another's from run to
run; a percentile of the campaigns' medians moves smoothly.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

from perfbench import common, reference
from perfbench.workloads import PAPER_CAMPAIGN_SEED, Campaign

#: read-backs of each campaign per round: a read-back is short, and more
#: of them steady each campaign's median
READBACKS = 2


def _reset_session(round_dir: str) -> str:
    from repro.run import worker
    from repro.sim.cache import clear_caches

    clear_caches()
    worker.clear_scenarios()
    os.environ["REPRO_CACHE_DIR"] = common.fresh_dir(os.path.join(round_dir, "artifacts"))
    return common.fresh_dir(os.path.join(round_dir, "store"))


def _run_campaign(campaign: Campaign, store: str, checker, tracer) -> Optional[Dict]:
    """One ``repro run`` call; returns its checked JSON document."""
    argv = ["run", *campaign.cli_args(), "--transport", "serial",
            "--store", store, "--json", "--quiet"]
    try:
        if tracer is not None and tracer.enabled:
            with tracer.span("cli.main", campaign.key):
                text = common.call_cli(argv)
        else:
            text = common.call_cli(argv)
        payload = reference.trailing_json(text)
    except Exception as error:  # any failure is a failed operation, not a crash
        checker.error(campaign.key, error)
        return None
    return payload if checker.check(campaign.key, payload) else None


def _wall(operation):
    started = time.perf_counter()
    return operation(), time.perf_counter() - started


def run(campaigns: List[Campaign], seconds: float, work_dir: str, checker,
        tracer=None, clock: Optional[common.HostClock] = None) -> Dict:
    """Repeat the round for ``seconds``; with a tracer, each round runs
    twice, untraced then traced, and only the traced copy records spans.
    With a clock, every call is timed by it; otherwise by wall clock.
    ``turnaround`` and ``readback`` hold each campaign's median time."""
    timed = clock.measure if clock is not None else _wall
    walls = defaultdict(list)  # campaign key -> untraced times
    readbacks = defaultdict(list)
    faults = {}
    round_walls = {False: [], True: []}
    store_bytes = 0
    started = time.perf_counter()
    rounds = 0
    while True:
        for traced in ((False, True) if tracer is not None else (False,)):
            round_dir = os.path.join(work_dir, f"round-{rounds}-{int(traced)}")
            store = _reset_session(round_dir)
            if tracer is not None:
                tracer.enabled = traced
            round_start = time.perf_counter()
            for campaign in campaigns:
                payload, elapsed = timed(lambda: _run_campaign(campaign, store, checker, tracer))
                if payload is not None and not traced:
                    walls[campaign.key].append(elapsed)
                    faults[campaign.key] = sum(payload["classification"].values())
            round_walls[traced].append(time.perf_counter() - round_start)
            for campaign in campaigns * READBACKS:
                payload, elapsed = timed(lambda: _run_campaign(campaign, store, checker, tracer))
                if payload is not None and not traced:
                    readbacks[campaign.key].append(elapsed)
            if traced:
                store_bytes += common.store_bytes(store)
                tracer.enabled = False
            shutil.rmtree(round_dir, ignore_errors=True)
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
    median_walls = {key: statistics.median(samples) for key, samples in walls.items()}
    result = {
        "rounds": rounds,
        "faults_per_s": sum(faults.values()) / sum(median_walls.values()) if walls else 0.0,
        "median_walls": median_walls,
        "turnaround": list(median_walls.values()),
        "readback": [statistics.median(samples) for samples in readbacks.values()],
        "samples": {
            "turnaround": sum(map(len, walls.values())),
            "query": sum(map(len, readbacks.values())),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["store_bytes"] = store_bytes
        result["overhead_ratio"] = statistics.median(
            traced / untraced for traced, untraced in zip(round_walls[True], round_walls[False])
        ) - 1.0
    return result


def paper_accuracy(checker) -> Dict:
    """The paper's b14 campaign under every technique, checked exactly
    against the references and compared with the paper's Table 2 and
    classification. Information only: the b14 netlist is a
    reconstruction, so the errors are properties of the model, and a
    simulator-speed change must leave them identical."""
    from repro.emu.instrument import TECHNIQUES
    from repro.eval.paper import PAPER_CLASSIFICATION, PAPER_TABLE2
    from repro.run.runner import CampaignRunner
    from repro.run.spec import CampaignSpec

    spec = CampaignSpec(circuit="b14", technique="time_multiplexed", seed=PAPER_CAMPAIGN_SEED)
    with CampaignRunner() as runner:
        oracle = runner.grade(spec)
        results = {
            technique: runner.run(spec.with_technique(technique), oracle=oracle)
            for technique in TECHNIQUES
        }
    emulation_error, classification = {}, None
    for technique, result in results.items():
        observed = {
            "oracle_digest": oracle.outcome_digest(),
            "classification": {
                verdict.value: count for verdict, count in result.dictionary.counts().items()
            },
            "total_cycles": result.total_cycles,
            "emulation_ms": result.timing.milliseconds,
        }
        checker.check(
            f"paper:{technique}", observed, expected=checker.references["paper"].get(technique)
        )
        paper_ms = PAPER_TABLE2[technique]["emulation_ms"]
        emulation_error[technique] = (observed["emulation_ms"] - paper_ms) / paper_ms
        classification = observed["classification"]
    total = sum(classification.values())
    return {
        "circuit": "b14 (a reconstruction of the ITC'99 netlist, not the original)",
        "emulation_ms_relative_error": emulation_error,
        "classification_error_points": {
            name: 100.0 * classification[name] / total - percent
            for name, percent in PAPER_CLASSIFICATION.items()
        },
    }


def workload(campaigns: List[Campaign], seconds: float, run_dir: str, checker,
             clock: common.HostClock, tracer=None, paper: bool = False) -> Dict:
    """One CLI workload run: end-to-end ``metrics`` (untraced) or per-layer
    ``layers`` extras (traced), plus ``info`` for the run's record."""
    from repro.sim.backends._native import native_kernel

    from perfbench import service_load

    native_kernel()  # set-up, measured separately by setup_s
    loaded = run(
        campaigns, seconds, os.path.join(run_dir, "rounds"), checker, tracer,
        None if tracer is not None else clock,
    )
    info = {
        "rounds": loaded["rounds"],
        "turnaround_samples": loaded["samples"]["turnaround"],
        "query_samples": loaded["samples"]["query"],
        "median_walls": loaded["median_walls"],
    }
    if paper:
        info["paper_accuracy"] = paper_accuracy(checker)
    if tracer is not None:
        layers = {
            "run.store.bytes": loaded["store_bytes"],
            "trace.overhead_ratio": loaded["overhead_ratio"],
        }
        layers.update(service_load.epilogue(campaigns[0], run_dir, checker, tracer))
        return {"layers": layers, "info": info}
    metrics = {
        "faults_per_s": loaded["faults_per_s"],
        **common.percentiles("turnaround_s", loaded["turnaround"]),
        **common.percentiles("query_s", loaded["readback"]),
        "peak_rss_mb": loaded["peak_rss_mb"],
    }
    return {"metrics": metrics, "info": info}
