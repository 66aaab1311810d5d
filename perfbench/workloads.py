"""Campaign lists of the three benchmark workloads.

Every campaign a run can issue is drawn from a fixed, finite pool so that
its outputs are checkable against ``references.json``. The workload seed
picks one of ``NUM_SLOTS`` slots (``seed % NUM_SLOTS``); each slot has its
own stimulus and sample seeds, so two seeds in different slots grade
different campaigns. Slot ``HELD_OUT_SLOT`` is the held-out slot: it is
recorded like the others but was not used while the benchmark was tuned.

* ``seu_campaigns`` repeats a *round* of two exhaustive ``b14`` SEU
  campaigns and one exhaustive ``hardened:tmr:b14`` campaign, each on its
  own stimulus seed.
* ``fault_models`` repeats a round of ``b14`` under ``mbu:2``,
  ``stuck_at_0`` (both exhaustive) and ``intermittent:4:2`` (sampled to
  ``INTERMITTENT_SAMPLE`` faults so a round fits the run length).
* ``service_mix`` submits up to ``SERVICE_POOL`` small sampled campaigns
  per slot, rotating over ``b04``, ``corpus:s1488``, ``b14`` and
  ``hardened:tmr:b14``; every one has a distinct campaign id. It runs by
  hand and in the self-test but is not in ``BENCHMARK.json``: on a shared
  2-vCPU host its ``query_s.p90`` (queries that meet a campaign's database
  writes) spread by a quarter of its median from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

NUM_SLOTS = 8
HELD_OUT_SLOT = 7

INTERMITTENT_SAMPLE = 8600
SERVICE_POOL = 160
SERVICE_ROTATION = (
    ("b04", 200),
    ("corpus:s1488", 200),
    ("b14", 300),
    ("hardened:tmr:b14", 300),
)
#: the paper's b14 setup (160 program vectors, stimulus seed 0)
PAPER_CAMPAIGN_SEED = 0

CLI_WORKLOADS = ("seu_campaigns", "fault_models")
SERVICE_WORKLOADS = ("service_mix",)
WORKLOADS = CLI_WORKLOADS + SERVICE_WORKLOADS


@dataclass(frozen=True)
class Campaign:
    """One campaign: the spec fields the benchmark varies."""

    circuit: str
    seed: int
    fault_model: str = "seu"
    sample: Optional[int] = None

    @property
    def key(self) -> str:
        """Reference-table key, independent of the program's campaign ids."""
        sample = "all" if self.sample is None else str(self.sample)
        return f"{self.circuit}|{self.fault_model}|{sample}|{self.seed}"

    def cli_args(self) -> List[str]:
        """``repro run`` flags selecting this campaign."""
        args = [
            "--circuit", self.circuit,
            "--fault-model", self.fault_model,
            "--seed", str(self.seed),
        ]
        if self.sample is not None:
            args += ["--sample", str(self.sample)]
        return args

    def spec(self) -> Dict:
        """The JSON ``CampaignSpec`` body POSTed to ``repro serve``."""
        spec = {
            "circuit": self.circuit,
            "technique": "time_multiplexed",
            "seed": self.seed,
            "fault_model": self.fault_model,
        }
        if self.sample is not None:
            spec["sample"] = self.sample
        return spec


def slot_of(seed: int) -> int:
    return seed % NUM_SLOTS


def _seed(slot: int, index: int) -> int:
    return slot * 1000 + index


def seu_round(slot: int) -> List[Campaign]:
    return [
        Campaign("b14", _seed(slot, 0)),
        Campaign("b14", _seed(slot, 1)),
        Campaign("hardened:tmr:b14", _seed(slot, 2)),
    ]


def fault_model_round(slot: int) -> List[Campaign]:
    return [
        Campaign("b14", _seed(slot, 0), fault_model="mbu:2"),
        Campaign("b14", _seed(slot, 0), fault_model="stuck_at_0"),
        Campaign(
            "b14", _seed(slot, 0), fault_model="intermittent:4:2", sample=INTERMITTENT_SAMPLE
        ),
    ]


def service_campaigns(slot: int) -> List[Campaign]:
    campaigns = []
    for index in range(SERVICE_POOL):
        circuit, sample = SERVICE_ROTATION[index % len(SERVICE_ROTATION)]
        campaigns.append(Campaign(circuit, _seed(slot, index), sample=sample))
    return campaigns


def cli_round(workload: str, slot: int) -> List[Campaign]:
    if workload == "seu_campaigns":
        return seu_round(slot)
    if workload == "fault_models":
        return fault_model_round(slot)
    raise ValueError(f"{workload!r} is not a CLI workload")


#: tiny campaigns the harness self-test runs instead of a workload's list
SMOKE = [
    Campaign("b04", 1, sample=64),
    Campaign("corpus:s1488", 2, sample=64),
]


def all_campaigns() -> List[Campaign]:
    """Every campaign any run can issue, in recording order."""
    campaigns: Dict[str, Campaign] = {}
    for slot in range(NUM_SLOTS):
        for campaign in seu_round(slot) + fault_model_round(slot) + service_campaigns(slot):
            campaigns.setdefault(campaign.key, campaign)
    for campaign in SMOKE:
        campaigns.setdefault(campaign.key, campaign)
    return list(campaigns.values())
