"""In-memory span tracer for the traced run (``--trace 1``).

The tracer wraps the public entry points of each layer of the program from
the outside: it replaces methods on their classes and module functions in
every module that imported them by name. Each call becomes a span (name,
start, end, parent span, campaign id); spans live in memory and are written
out when the run ends. A layer's self time is its spans' durations minus
the time their child spans cover. Calls made while ``enabled`` is false go
straight to the original function, so one process can time the same work
with and without tracing.

``layers.json`` names every per-layer metric, the call it times and the
end-to-end metric it should move.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")

#: spans that stand for a whole unit of work; their self time is work no
#: layer span covers (argument parsing, printing, HTTP and JSON handling)
TOP_LEVEL = ("cli.main", "service.executor", "service.http")


def layer_units() -> Dict[str, str]:
    with open(LAYERS_FILE, encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)["metrics"]}


class Span:
    __slots__ = ("name", "start", "end", "parent", "campaign", "child_time")

    def __init__(self, name: str, parent: Optional["Span"], campaign: Optional[str]):
        self.name = name
        self.parent = parent
        self.campaign = campaign
        self.child_time = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Spans and counters of one run, plus the patches that produce them."""

    def __init__(self) -> None:
        self._enabled_at: Optional[float] = None
        #: seconds spent with tracing enabled
        self.enabled_time = 0.0
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List = []
        self._spec_class: tuple = ()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled_at is not None

    @enabled.setter
    def enabled(self, value: bool) -> None:
        now = time.perf_counter()
        if value and self._enabled_at is None:
            self._enabled_at = now
        elif not value and self._enabled_at is not None:
            self.enabled_time += now - self._enabled_at
            self._enabled_at = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, campaign: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if campaign is None and parent is not None:
            campaign = parent.campaign
        span = Span(name, parent, campaign)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.end - span.start
            with self._lock:
                self.spans.append(span)

    def count(self, **values: float) -> None:
        with self._lock:
            self.counters.update(values)

    def self_time(self, *names: str) -> float:
        return sum(span.self_time for span in self.spans if span.name in names)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": index.get(id(span.parent)),
                            "campaign": span.campaign,
                        }
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrap(self, function: Callable, name: str, after: Optional[Callable] = None):
        tracer = self
        campaign_of = self._campaign_of

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            with tracer.span(name, campaign_of(args)):
                result = function(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, function: Callable, name: str):
        """Trace a shard transport's ``grade_windows``: one span per record
        pulled from it, so time the consumer spends between records (store
        appends, progress) is not counted as transport time."""
        tracer = self

        @functools.wraps(function)
        def traced(transport, spec, spec_dict, windows):
            records = function(transport, spec, spec_dict, windows)
            if not tracer.enabled:
                yield from records
                return
            while True:
                with tracer.span(name, spec.campaign_id):
                    try:
                        record = next(records)
                    except StopIteration:
                        return
                tracer.count(
                    transport_records=1,
                    transport_elapsed=record.elapsed_s,
                    transport_retried=int(record.attempts > 1),
                    remote_elapsed=0.0 if record.worker == "inline" else record.elapsed_s,
                )
                yield record

        return traced

    def _campaign_of(self, args) -> Optional[str]:
        for value in args[:3]:
            if isinstance(value, self._spec_class):
                return value.campaign_id
        return None

    def patch_method(self, cls, attr: str, name: str, after=None, generator=False) -> None:
        original = cls.__dict__[attr]
        wrapped = (
            self._wrap_generator(original, name)
            if generator
            else self._wrap(original, name, after)
        )
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Patch ``module.attr`` and every ``from module import attr`` copy."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(loaded, attr, wrapped)
                self._undo.append((loaded, attr, original))

    def install(self) -> None:
        """Patch every layer boundary listed in ``layers.json``."""
        from repro.emu import campaign as emu_campaign
        from repro.faults.dictionary import FaultDictionary
        from repro.run import worker
        from repro.run.runner import CampaignRunner
        from repro.run.spec import CampaignSpec
        from repro.run.store import ResultsStore
        from repro.run.transport import local, tcp  # noqa: F401 - registers subclasses
        from repro.run.transport.base import ShardTransport
        from repro.service import app
        from repro.service.db import ResultsDB
        from repro.service.executor import CampaignExecutor
        from repro.sim import cache, parallel
        from repro.sim.backends import available_engines, get_engine

        self._spec_class = CampaignSpec
        self.patch_method(CampaignSpec, "build_netlist", "circuits.build")
        self.patch_method(CampaignSpec, "build_faults", "faults.population")
        self.patch_function(cache, "compiled_for", "sim.cache.compiled")
        self.patch_function(cache, "golden_for", "sim.cache.golden")
        for engine_class in {type(get_engine(name)) for name in available_engines()}:
            self.patch_method(engine_class, "grade", "sim.backends.grade", after=self._engine_stats)
        self.patch_function(parallel, "grade_faults", "sim.parallel.grade")
        result_class = parallel.FaultGradingResult
        self.patch_method(result_class, "to_dictionary", "sim.parallel.decode")
        self.patch_method(result_class, "outcome_digest", "sim.parallel.digest")
        self.patch_method(FaultDictionary, "counts", "faults.classify")
        self.patch_function(worker, "grade_scenario_window", "run.worker.window")
        self.patch_method(CampaignRunner, "grade", "run.runner.grade")
        self.patch_function(emu_campaign, "run_campaign", "emu.campaign.accounting")
        self.patch_method(ResultsStore, "append", "run.store.append")
        pending = list(ShardTransport.__subclasses__())
        while pending:
            transport_class = pending.pop()
            pending.extend(transport_class.__subclasses__())
            if "grade_windows" in transport_class.__dict__:
                self.patch_method(transport_class, "grade_windows", "run.transport", generator=True)
        self.patch_method(ResultsDB, "record_outcomes", "service.db.record_outcomes")
        self.patch_method(ResultsDB, "record_shards", "service.db.record_shards")
        self.patch_method(ResultsDB, "flop_failure_rates", "service.db.query")
        self.patch_method(ResultsDB, "class_breakdown", "service.db.query")
        self.patch_method(CampaignExecutor, "_execute", "service.executor")
        handler = app._Handler
        for method in ("do_GET", "do_POST", "do_DELETE"):
            self.patch_method(handler, method, "service.http")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _engine_stats(self, args, result) -> None:
        engine, faults = args[0], args[3]
        stats = engine.last_stats or {}
        self.count(
            engine_calls=1,
            engine_faults=len(faults),
            engine_native=int(bool(stats.get("native"))),
            engine_cycles_executed=stats.get("cycles_executed", 0),
            engine_num_cycles=stats.get("num_cycles", 0),
        )

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------
    def layer_metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every ``layers.json`` metric; ``extra`` supplies the ones measured
        outside the tracer (byte counts, queue waits, wall, overhead)."""
        counters = self.counters

        def share(numerator: str, denominator: str) -> float:
            base = counters[denominator]
            return counters[numerator] / base if base else 0.0

        metrics = {
            "circuits.build_s": self.self_time("circuits.build"),
            "faults.population_s": self.self_time("faults.population"),
            "sim.cache.compiled_s": self.self_time("sim.cache.compiled"),
            "sim.cache.golden_s": self.self_time("sim.cache.golden"),
            "sim.cache.golden_calls": self.calls("sim.cache.golden"),
            "sim.backends.grade_s": self.self_time("sim.backends.grade"),
            "sim.backends.faults": counters["engine_faults"],
            "sim.backends.native_share": share("engine_native", "engine_calls"),
            "sim.backends.cycle_ratio": share("engine_cycles_executed", "engine_num_cycles"),
            "sim.parallel.grade_s": self.self_time("sim.parallel.grade"),
            "sim.parallel.decode_s": self.self_time("sim.parallel.decode"),
            "sim.parallel.digest_s": self.self_time("sim.parallel.digest"),
            "faults.classify_s": self.self_time("faults.classify"),
            "run.worker.window_s": self.self_time("run.worker.window") + counters["remote_elapsed"],
            "run.worker.shards": counters["transport_records"],
            "run.runner.merge_s": self.self_time("run.runner.grade"),
            "emu.campaign.accounting_s": self.self_time("emu.campaign.accounting"),
            "run.store.append_s": self.self_time("run.store.append"),
            "run.transport.overhead_s": sum(
                span.end - span.start for span in self.spans if span.name == "run.transport"
            ) - counters["transport_elapsed"],
            "run.transport.retry_ratio": share("transport_retried", "transport_records"),
            "service.db.record_outcomes_s": self.self_time("service.db.record_outcomes"),
            "service.db.record_shards_s": self.self_time("service.db.record_shards"),
            "service.db.query_s": self.self_time("service.db.query"),
            "unattributed_s": self.self_time(*TOP_LEVEL),
            "trace.wall_s": self.enabled_time,
        }
        metrics.update(extra)
        return metrics
