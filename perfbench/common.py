"""Paths, process isolation and the in-process CLI call shared by the
benchmark's modules."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

#: root of the checkout the benchmark runs in (the parent of ``perfbench/``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run writes lives under here (listed in ``.gitignore``)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no ``src/repro``)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(
            f"no repro package under {SRC}; run the benchmark from the root "
            "of a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def store_bytes(store_root: str) -> int:
    """Total size of the ``shards.jsonl`` files under a results-store root."""
    total = 0
    for directory, _, files in os.walk(store_root):
        if "shards.jsonl" in files:
            total += os.path.getsize(os.path.join(directory, "shards.jsonl"))
    return total


def isolate_caches(directory: str) -> None:
    """Point this process's artifact and native-kernel caches, and the
    temporary directory (the native-kernel build and SQLite use it), at
    empty directories under ``directory``; child processes inherit them."""
    os.environ["REPRO_CACHE_DIR"] = fresh_dir(os.path.join(directory, "artifacts"))
    os.environ["XDG_CACHE_HOME"] = fresh_dir(os.path.join(directory, "xdg"))
    os.environ["TMPDIR"] = fresh_dir(os.path.join(directory, "tmp"))
    tempfile.tempdir = None  # re-read TMPDIR on next use


def child_env(**overrides: str) -> Dict[str, str]:
    """Environment for a child Python that imports the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(overrides)
    return env


def call_cli(argv: List[str]) -> str:
    """Run ``python -m repro <argv>`` in this process; returns its stdout.

    Raises ``RuntimeError`` on a non-zero exit status.
    """
    from repro.run.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    if status:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {status}")
    return buffer.getvalue()


def percentiles(name: str, values: List[float]) -> Dict[str, float]:
    """``<name>.p50`` and ``<name>.p90`` of ``values`` (linear
    interpolation between order statistics)."""
    if len(values) < 2:
        raise ValueError(f"{name}: need at least two samples, got {len(values)}")
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {f"{name}.p50": statistics.median(values), f"{name}.p90": deciles[-1]}


#: median seconds of one ``host_probe()`` on the reference host (x86_64
#: Intel Xeon, 2 vCPUs, Python 3.11), a typical value; it sets only the scale
PROBE_REFERENCE_S = 0.025


def host_probe() -> float:
    """Seconds for a fixed interpreter loop that touches none of the program
    under test. Of the probes tried (this loop, numpy on cache-sized and
    memory-sized arrays, object graphs, sorting), its slow-downs tracked
    those of the campaigns most closely."""
    started = time.perf_counter()
    total = 0
    for index in range(250_000):
        total += index * index % 7
    return time.perf_counter() - started


def reference_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` seconds scaled by the reference probe time over the mean of
    the probes just before and just after them."""
    return wall * 2.0 * PROBE_REFERENCE_S / (before + after)


class HostClock:
    """Times operations in reference-host seconds.

    A shared host changes speed by a quarter or more within a minute, and
    that moves every timing of a run together. The clock runs
    ``host_probe`` between operations, never during one, and scales each
    operation's wall clock by ``PROBE_REFERENCE_S`` over the mean of the
    probes just before and just after it. The program under test cannot
    move the probes.
    """

    #: a probe older than this is not "just before" the next operation
    STALE_S = 1.0

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._probed_at = float("-inf")

    def probe(self) -> float:
        self.probes.append(host_probe())
        self._probed_at = time.perf_counter()
        return self.probes[-1]

    def measure(self, operation: Callable) -> Tuple[object, float]:
        """``(result, reference seconds)`` of ``operation()``."""

        def timed():
            started = time.perf_counter()
            result = operation()
            return result, time.perf_counter() - started

        return self.scale(timed)

    def scale(self, operation: Callable) -> Tuple[object, float]:
        """``operation()`` returns ``(result, wall seconds)``; this returns
        ``(result, reference seconds)``."""
        fresh = time.perf_counter() - self._probed_at < self.STALE_S
        before = self.probes[-1] if fresh else self.probe()
        result, wall = operation()
        return result, reference_seconds(wall, before, self.probe())

    def factor(self) -> float:
        """Median probe time over the reference: above 1 on a slower host."""
        return statistics.median(self.probes) / PROBE_REFERENCE_S


def fingerprint() -> Dict:
    """Machine identity recorded with every result."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "arch": platform.machine(),
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
