"""The ``service_mix`` workload: closed-loop clients against ``repro serve``.

``CLIENTS`` client threads each repeat: POST a campaign, poll
``GET /campaigns/<id>`` until it is done, fetch and check
``GET /campaigns/<id>/results``, then time one ``GET /query`` of each kind
(``flop_failures`` and ``classes``, in alternating order). Clients stop taking new
campaigns once ``--seconds`` have passed and at least ``MIN_CAMPAIGNS``
campaigns and ``MIN_QUERIES`` queries are done, so the 90th percentiles
always have ten samples beyond them. A final ``classes`` query, issued when
no campaign is running, must add up to the reference counts of every
completed campaign.

The untraced run talks to a ``python -m repro serve`` subprocess. Its times
are in reference-host seconds (``common.HostClock``): every
``PROBE_EVERY`` campaigns per client, both clients wait for each other and
the host probe runs while no campaign is in flight; each operation is
scaled by the probes just before and just after it. The traced run hosts
:class:`repro.service.app.CampaignService` in this process so the tracer's
patches apply; its pool workers are not traced.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench.workloads import Campaign

CLIENTS = 2
WORKERS = 2
MIN_CAMPAIGNS = 100
MIN_QUERIES = 100
#: each client queries both kinds after every campaign: the query tail
#: (queries that meet a campaign's database writes) needs many samples
QUERY_KINDS = ("flop_failures", "classes")
POLL_S = 0.01
#: campaigns each client runs between two host-speed probes (untraced runs)
PROBE_EVERY = 4
#: a run stops taking campaigns after this long whatever the counts
HARD_LIMIT_S = 140.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Client:
    """A keep-alive JSON-over-HTTP connection to the service."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: Optional[Dict] = None) -> Tuple[int, Dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload

    def close(self) -> None:
        self.connection.close()


def _healthy(port: int) -> bool:
    client = Client(port)
    try:
        status, payload = client.request("GET", "/healthz")
        return status == 200 and payload.get("ok") is True
    except (OSError, http.client.HTTPException, ValueError):
        return False
    finally:
        client.close()


class Daemon:
    """A ``repro serve`` subprocess with its own store and caches."""

    def __init__(self, directory: str):
        self.directory = common.fresh_dir(directory)
        self.log_path = os.path.join(self.directory, "serve.log")
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns seconds from launch."""
        env = common.child_env(
            REPRO_CACHE_DIR=common.fresh_dir(os.path.join(self.directory, "artifacts")),
            XDG_CACHE_HOME=common.fresh_dir(os.path.join(self.directory, "xdg")),
            REPRO_FUSED_THREADS="1",
        )
        command = [
            sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
            "--workers", str(WORKERS), "--store", os.path.join(self.directory, "store"),
            "--quiet",
        ]
        started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        while time.perf_counter() - started < START_TIMEOUT_S:
            if self.process.poll() is not None:
                break
            if not self.port:
                self.port = self._listening_port()
            if self.port and _healthy(self.port):
                return time.perf_counter() - started
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not become healthy; see {self.log_path}")

    def _listening_port(self) -> int:
        with open(self.log_path, encoding="utf-8") as log:
            for line in log:
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        return 0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the daemon shuts its pool down), then kill what is left."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process = None


class InProcessService:
    """``CampaignService`` hosted in this process (for the traced run)."""

    def __init__(self, directory: str, workers: int = WORKERS):
        from repro.run.runner import CampaignRunner
        from repro.service.app import CampaignService

        directory = common.fresh_dir(directory)
        self.store = os.path.join(directory, "store")
        self.db_path = os.path.join(directory, "service.db")
        self.runner = CampaignRunner(
            workers=workers,
            store_root=self.store,
            transport="local" if workers >= 2 else "serial",
        )
        self.service = CampaignService(self.db_path, self.runner, port=0)
        self.port = self.service.port
        self.service.start()

    def stop(self) -> None:
        self.service.shutdown()
        self.runner.close()


class Session:
    """One closed-loop client session against a running service."""

    def __init__(self, port: int, campaigns: List[Campaign], checker, seconds: float,
                 min_campaigns: int = MIN_CAMPAIGNS, min_queries: int = MIN_QUERIES,
                 on_phase=None, clock: Optional[common.HostClock] = None):
        self.port = port
        self.campaigns = campaigns
        self.checker = checker
        self.seconds = seconds
        self.min_campaigns = min_campaigns
        self.min_queries = min_queries
        self.on_phase = on_phase
        self.next_index = 0
        self.done: List[Tuple[Campaign, float, int]] = []  # campaign, finish time, faults
        self.turnaround: List[float] = []
        self.queue_wait: List[float] = []
        self.query: List[float] = []
        self.clock = clock
        self.probes: List[Tuple[float, float]] = []  # end time, probe seconds
        self._spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._barrier = threading.Barrier(CLIENTS, action=self._probe)
        self._lock = threading.Lock()

    def _take(self) -> Optional[Campaign]:
        with self._lock:
            elapsed = time.perf_counter() - self.started
            enough = (
                elapsed >= self.seconds
                and len(self.done) >= self.min_campaigns
                and len(self.query) >= self.min_queries
            )
            if enough or elapsed >= HARD_LIMIT_S or self.next_index >= len(self.campaigns):
                return None
            campaign = self.campaigns[self.next_index]
            self.next_index += 1
            return campaign

    def run(self) -> Dict:
        """The session's samples; with a clock, its times are in
        reference-host seconds and ``measured_wall`` is the wall clock."""
        if self.clock is not None:
            self._probe()
        self.started = time.perf_counter()
        threads = [threading.Thread(target=self._client, args=(n,)) for n in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - self.started
        result = {
            "wall": wall,
            "faults": sum(faults for _, _, faults in self.done),
            "campaigns": len(self.done),
            "turnaround": self.turnaround,
            "queue_wait": self.queue_wait,
            "query": self.query,
        }
        if self.clock is not None:
            self._probe()
            gaps = [  # between probes, each scaled by the probes at its ends
                (end, next_end - seconds)
                for (end, _), (next_end, seconds) in zip(self.probes, self.probes[1:])
            ]
            result.update(
                measured_wall=wall,
                wall=sum(self._scaled(gaps)),
                turnaround=self._scaled(self._spans["turnaround"]),
                query=self._scaled(self._spans["query"]),
            )
        self._final_check()
        return result

    def _probe(self) -> None:
        seconds = self.clock.probe()
        self.probes.append((time.perf_counter(), seconds))

    def _scaled(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Each ``(begin, end)`` span in reference-host seconds, scaled by
        the probes just before and just after its midpoint."""
        ends = [end for end, _ in self.probes]
        scaled = []
        for begin, end in spans:
            after = bisect.bisect_right(ends, (begin + end) / 2)
            scaled.append(common.reference_seconds(
                end - begin, self.probes[after - 1][1], self.probes[after][1]
            ))
        return scaled

    def _client(self, number: int) -> None:
        client = Client(self.port)
        try:
            count = 0
            while True:
                if self.clock is not None and count and count % PROBE_EVERY == 0:
                    try:
                        self._barrier.wait()
                    except threading.BrokenBarrierError:
                        pass  # the other client has stopped
                campaign = self._take()
                if campaign is None:
                    return
                if self.on_phase is not None:
                    self.on_phase(time.perf_counter() - self.started)
                try:
                    self._campaign(client, campaign)
                except Exception as error:  # one failed operation, keep going
                    self.checker.error(campaign.key, error)
                    client.close()
                    client = Client(self.port)
                kinds = QUERY_KINDS if (count + number) % 2 == 0 else QUERY_KINDS[::-1]
                count += 1
                for kind in kinds:
                    try:
                        self._query(client, kind)
                    except Exception as error:
                        self.checker.error(f"query {kind}", error)
                        client.close()
                        client = Client(self.port)
        finally:
            self._barrier.abort()
            client.close()

    def _campaign(self, client: Client, campaign: Campaign) -> None:
        begin = time.perf_counter()
        status, row = client.request("POST", "/campaigns", campaign.spec())
        if status != 201:
            self.checker.ok(campaign.key, False, f"POST /campaigns answered {status}: {row}")
            return
        campaign_id = row["campaign_id"]
        while row.get("status") not in ("done", "failed", "cancelled"):
            time.sleep(POLL_S)
            status, row = client.request("GET", f"/campaigns/{campaign_id}")
            if status != 200:
                self.checker.ok(campaign.key, False, f"GET /campaigns/<id> answered {status}")
                return
        finished = time.perf_counter()
        if row["status"] != "done":
            self.checker.ok(campaign.key, False, f"campaign {row['status']}: {row.get('error')}")
            return
        status, results = client.request("GET", f"/campaigns/{campaign_id}/results")
        if status != 200:
            self.checker.ok(campaign.key, False, f"GET results answered {status}")
            return
        if self.checker.check(campaign.key, results):
            with self._lock:
                self.done.append((campaign, finished, results["num_faults"]))
                self.turnaround.append(finished - begin)
                self._spans["turnaround"].append((begin, finished))
                self.queue_wait.append(row["started_at"] - row["submitted_at"])

    def _query(self, client: Client, kind: str) -> None:
        begin = time.perf_counter()
        status, body = client.request("GET", f"/query?kind={kind}")
        elapsed = time.perf_counter() - begin
        rows = body.get("rows")
        passed = status == 200 and isinstance(rows, list) and body.get("count") == len(rows)
        if self.checker.ok(f"query {kind}", passed, f"answered {status}"):
            with self._lock:
                self.query.append(elapsed)
                self._spans["query"].append((begin, begin + elapsed))

    def _final_check(self) -> None:
        """Class totals per circuit must equal the references' sums."""
        expected = defaultdict(lambda: defaultdict(int))
        for campaign, _, _ in self.done:
            counts = self.checker.references["campaigns"][campaign.key]["classification"]
            for verdict, count in counts.items():
                expected[campaign.circuit][verdict] += count
        wanted = {circuit: dict(counts) for circuit, counts in expected.items()}
        client = Client(self.port)
        try:
            status, body = client.request("GET", "/query?kind=classes&group=effective_circuit")
            observed = {
                row["grp"]: {
                    "failure": row["failures"], "latent": row["latent"], "silent": row["silent"]
                }
                for row in body["rows"]
            }
        except Exception as error:  # a malformed answer is a failed operation
            self.checker.error("final classes query", error)
            return
        finally:
            client.close()
        self.checker.ok(
            "final classes query", status == 200 and observed == wanted,
            f"expected {wanted}, got {observed}",
        )


def db_bytes(db_path: str) -> int:
    return sum(
        os.path.getsize(db_path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(db_path + suffix)
    )


def _info(session: Dict) -> Dict:
    return {
        "campaigns": session["campaigns"],
        "turnaround_samples": len(session["turnaround"]),
        "query_samples": len(session["query"]),
        "session_wall_s": session["wall"],
    }


def workload(campaigns: List[Campaign], seconds: float, run_dir: str, checker,
             clock: common.HostClock, tracer=None, minimum: int = MIN_CAMPAIGNS) -> Dict:
    """One ``service_mix`` run: end-to-end ``metrics`` against a daemon
    subprocess (untraced), or per-layer ``layers`` extras against an
    in-process service whose first half of the run is untraced and second
    half traced, the throughput ratio of the halves being the tracing
    overhead."""
    if tracer is None:
        daemon = Daemon(os.path.join(run_dir, "daemon"))
        daemon.start()
        try:
            session = Session(
                daemon.port, campaigns, checker, seconds, minimum, minimum, clock=clock
            ).run()
            peak_rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        metrics = {
            "faults_per_s": session["faults"] / session["wall"],
            **common.percentiles("turnaround_s", session["turnaround"]),
            **common.percentiles("query_s", session["query"]),
            "peak_rss_mb": peak_rss,
        }
        info = dict(_info(session), session_measured_wall_s=session["measured_wall"])
        return {"metrics": metrics, "info": info}

    service = InProcessService(os.path.join(run_dir, "service"))
    switched: List[float] = []
    switch_lock = threading.Lock()

    def on_phase(elapsed: float) -> None:
        with switch_lock:
            if not switched and elapsed >= seconds / 2:
                switched.append(elapsed)
                tracer.enabled = True

    runner = Session(service.port, campaigns, checker, seconds, minimum, minimum, on_phase)
    try:
        session = runner.run()
    finally:
        tracer.enabled = False
        service.stop()
    at = switched[0] if switched else session["wall"]
    before = sum(f for _, finished, f in runner.done if finished - runner.started < at)
    after = session["faults"] - before
    traced_wall = session["wall"] - at
    overhead = (before / at) / (after / traced_wall) - 1.0 if before and after else 0.0
    layers = {
        "run.store.bytes": common.store_bytes(service.store),
        "service.executor.queue_wait_s": sum(session["queue_wait"]),
        "service.db.bytes": db_bytes(service.db_path),
        "trace.overhead_ratio": overhead,
    }
    return {"layers": layers, "info": _info(session)}


def epilogue(campaign: Campaign, run_dir: str, checker, tracer) -> Dict:
    """Traced CLI runs finish by grading one of their campaigns through an
    in-process service (serial transport) and querying it, so the service
    layers report this workload's data too."""
    service = InProcessService(os.path.join(run_dir, "epilogue"), workers=1)
    tracer.enabled = True
    try:
        session = Session(
            service.port, [campaign], checker, seconds=0.0, min_campaigns=1, min_queries=1
        ).run()
    finally:
        tracer.enabled = False
        service.stop()
    return {
        "service.executor.queue_wait_s": sum(session["queue_wait"]),
        "service.db.bytes": db_bytes(service.db_path),
    }
