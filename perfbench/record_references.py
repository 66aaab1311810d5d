"""Re-record ``references.json`` with the independent ``bigint`` engine.

    python3 perfbench/record_references.py

Grades every campaign any benchmark run can issue (all slots of all
workloads, the self-test campaigns, and the paper's b14 campaign under
each technique) through ``repro run --engine bigint`` and writes the
checked outputs: about 16 minutes on one core of a 2-vCPU x86_64 Xeon.
Only needed when the campaign lists in ``workloads.py`` change; a program
change that alters these outputs is a correctness regression, not a reason
to re-record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, reference, workloads  # noqa: E402

ENGINE = "bigint"


def record(campaign_args) -> dict:
    text = common.call_cli(
        ["run", *campaign_args, "--engine", ENGINE, "--no-store", "--json", "--quiet"]
    )
    return reference.outcome(reference.trailing_json(text))


def main() -> int:
    common.use_checkout_sources()
    scratch = common.fresh_dir(os.path.join(common.WORK_DIR, "record"))
    common.isolate_caches(scratch)
    from repro.emu.instrument import TECHNIQUES
    from repro.run import worker
    from repro.sim.cache import clear_caches

    campaigns = workloads.all_campaigns()
    recorded = {}
    started = time.perf_counter()
    for index, campaign in enumerate(campaigns):
        recorded[campaign.key] = record(campaign.cli_args())
        if index % 50 == 49:
            clear_caches()
            worker.clear_scenarios()
            print(
                f"{index + 1}/{len(campaigns)} campaigns "
                f"({time.perf_counter() - started:.0f}s)",
                file=sys.stderr,
                flush=True,
            )
    paper = {
        technique: record(
            ["--circuit", "b14", "--seed", str(workloads.PAPER_CAMPAIGN_SEED),
             "--technique", technique]
        )
        for technique in TECHNIQUES
    }
    # one campaign per line keeps diffs of a re-recording readable
    entries = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}"
        for key in sorted(recorded)
    )
    header = f'{{\n"engine": "{ENGINE}",\n"paper": {json.dumps(paper, sort_keys=True)},\n'
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        handle.write(f'{header}"campaigns": {{\n{entries}\n}}\n}}\n')
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {len(recorded)} campaigns to {reference.REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
