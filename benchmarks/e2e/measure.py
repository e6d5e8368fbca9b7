"""Measure one run of one workload, in a fresh interpreter.

``run.py`` spawns this once per (workload, seed) with ``src`` on
``PYTHONPATH`` and a work directory of its own::

    python3 benchmarks/e2e/measure.py --workload sim-msa --seed 2015 \\
        --seconds 20 --trace 0 --work .e2e_work/x [--quick] [--spans S.json]

A run measures set-up first (fresh-interpreter spawns, untraced runs
only), then repeats rounds -- one cold pass and the workload's warm
passes -- while the next round still fits in ``--seconds``, then checks
every output against a local simulation and a codec/cache round trip.
It prints one JSON line: ``correct``, ``attempted``, ``failed``, the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``)
and the raw timing samples.

A pass is a fixed list of steps (a point, a request, or one whole
sweep); a pass time is the sum over its steps of each step's median
over the run's rounds.  Host speed on a shared machine drifts by 10-20 %
in episodes of a few seconds, and per-step medians drop the steps an
episode slowed, where the median of a few whole passes would not.

Host speed also drifts by tens of percent over minutes, which moves
whole runs.  So untraced runs time the fixed loop of ``reference.py``
before and during every timed step, and report every time scaled to the
host speed ``REFERENCE_S`` stands for.  Each sample of a step is scaled
by the step's own slowdown (the loop's time during it), and only in the
share of that sample spent on a CPU -- CPU seconds of this process, its
reaped children and the server, over wall seconds, at most 1 -- so time
spent waiting, such as a service's status poll, is left as measured.
Set-up counts as all CPU; a set-up probe times the loop in its own
interpreter, so its time is scaled by the slowdown it saw.  The time
spent on the loop is taken out of every timed step.  The raw times,
slowdowns and CPU seconds go out with the samples.

Every operation whose output is checked counts as attempted; an
exception or a wrong output counts as failed and is reported on
stderr, never dropped.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.client import Client, discover
from repro.common.errors import ServiceError
from repro.harness.configs import build_machine
from repro.harness.jobs import Engine, JobSpec, ResultCache, resolve_factory
from repro.harness.runner import RunResult, run_workload
from repro.resilience.store import JobStore, default_store_path

from reference import Yardstick
from trace import LAYERS, Sampler, Spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
TRACED_REFERENCE_UNITS = 500
"""Reference units a traced run times after sampling, for
``host.reference_us``."""

SETUP_SPAWNS = 9
"""Set-up is the median of this many spawns, after one unmeasured spawn
that warms the file cache and the bytecode cache."""

TIMEOUT_S = 60.0
"""Longest wait for a server to come up, a probe to exit, or a sweep."""

POOLED, SERIAL = "sweep, 2 workers", "sweep, serial"
"""The engine workload's two cold steps."""

RESILIENCE = ("leases_granted", "retries", "heartbeats", "stale_completions")
COUNTS = (
    "noc.messages_sent", "mem.l1_misses", "mem.dir_invalidations",
    "msa.ops_hw", "msa.entries_allocated", "msa.omu_steered_sw",
    "runtime.sync_issued", "runtime.futex_waits",
)


Sample = Tuple[float, float, float]
"""One timed step: wall seconds, host slowdown, and CPU seconds of this
process, its reaped children and the server."""


def median(values, scale: float = 1.0) -> float:
    """Median times ``scale``; 0 where the workload has no such step."""
    return statistics.median(values) * scale if values else 0.0


def p90(values, scale: float = 1.0) -> float:
    if len(values) < 2:
        return median(values, scale)
    return statistics.quantiles(values, n=10)[8] * scale


def seconds(span: Dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def rotate(items: list, n: int) -> list:
    n %= len(items)
    return items[n:] + items[:n]


def clean_heap() -> None:
    """Collect garbage before a simulating step, outside its timer, so
    that neither its time nor the process's peak memory depends on when
    the cyclic collector last freed an earlier step's machine."""
    gc.collect()


def stop_process(
    proc: subprocess.Popen, terminate: bool = True, wait_s: float = 30.0
) -> None:
    """Reap a child: SIGTERM first if ``terminate``, SIGKILL if it is
    still alive after ``wait_s``."""
    if terminate and proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=wait_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, all of its threads, read
    from its Linux CPU-time clock (``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)``, the id ``clock_getcpuclockid`` would return)."""
    return time.clock_gettime(((~pid) << 3) | 2)


def vm_hwm_kb(pid: int) -> int:
    """A live process's peak resident set (Linux ``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Run:
    """State of one measured run (see the module docstring)."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, traced: bool,
        quick: bool, work: Path,
    ):
        self.workload = workload.quick() if quick else workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.setup_spawns = 1 if quick else SETUP_SPAWNS
        self.warmup_spawns = 0 if quick else 1
        self.work = work
        self.spans = Spans(enabled=traced)
        self.attempted = 0
        self.failed = 0
        self.specs: Dict[str, JobSpec] = {}
        self.results: Dict[str, str] = {}
        """Canonical JSON of each point's first result, by cache key."""
        self.events: Dict[str, int] = {}
        self.first_pass: set = set()
        """Keys of the first cold pass: the points layer counts cover."""
        self.rounds: List[List[str]] = []
        """Keys each round's cold pass produced."""
        self.setup: Dict[str, List[Sample]] = defaultdict(list)
        self.cold: Dict[str, List[Sample]] = defaultdict(list)
        self.warm: Dict[str, List[Sample]] = defaultdict(list)
        """Every timed step of set-up and of the cold and warm passes,
        by step name."""
        self.yardstick = Yardstick(work, enabled=not traced)
        """Traced runs leave it off: the sampler would charge it to
        ``other``."""
        self.server: Optional[subprocess.Popen] = None
        self.engine_overhead_s: List[float] = []
        """One-point ``Engine.run`` minus direct simulation, per point."""
        self.counts: Counter = Counter()
        self.coverage: List[float] = []
        self.hits = 0
        self.resilience: Dict[str, int] = {}
        self.peak_rss_kb = 0
        self.samplers: List[Dict] = []

    # -- bookkeeping ----------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"e2e: FAILED {self.workload.name}: {what}",
                  file=sys.stderr, flush=True)
        return ok

    def fail(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def spec(self, point, seed: int) -> Tuple[JobSpec, str]:
        spec = JobSpec(point.config, point.workload, cores=point.cores,
                       scale=point.scale, seed=seed)
        key = spec.key()
        self.specs[key] = spec
        return spec, key

    def matches(self, key: str, result: RunResult) -> bool:
        """Whether ``result`` is byte-identical to the first result seen
        for its point (the first one seen is kept as the reference)."""
        text = result.to_json()
        return self.results.setdefault(key, text) == text

    def collect(self, key: str, result: RunResult, machine) -> None:
        """Event count of a simulated point, and layer counters when the
        point belongs to the first pass."""
        events = machine.sim.events_processed
        self.events[key] = events
        if key not in self.first_pass:
            return
        totals: Counter = Counter()
        for prefix, stats, _labels in machine.stat_sets():
            for name, value in stats.counters.items():
                totals[prefix + name] += value
        self.counts.update({
            "sim.events": events,
            "sim.cycles": result.cycles,
            "noc.messages_sent": totals["noc.messages_sent"],
            "noc.link_stall_cycles": totals["noc.link_stall_cycles"],
            "mem.l1_misses": totals["l1.misses"],
            "mem.dir_invalidations": totals["dir.invalidations_sent"],
            "msa.ops_hw": totals["msa.ops_hw"],
            "msa.entries_allocated": totals["msa.entries_allocated"],
            "msa.omu_steered_sw": totals["msa.omu_steered_sw"],
            "runtime.sync_issued": sum(
                v for k, v in totals.items() if k.startswith("sync.issued.")
            ),
            "runtime.futex_waits": totals["futex.waits"],
        })
        self.coverage.append(result.msa_coverage or 0.0)

    def simulate(self, spec: JobSpec):
        """One point in this process: the calls ``execute_spec`` makes."""
        with self.spans.span("machine.build"):
            machine = build_machine(spec.config, n_cores=spec.cores,
                                    seed=spec.seed)
        with self.spans.span("workloads.instantiate"):
            workload = resolve_factory(spec.workload)(spec.cores,
                                                      scale=spec.scale)
        with self.spans.span("sim.run") as tags:
            result = run_workload(machine, workload, check=True,
                                  config=spec.config)
            tags["events"] = machine.sim.events_processed
        return result, machine

    def cpu_s(self) -> float:
        """CPU seconds used so far by this process, its reaped children
        (engine workers, set-up probes) and the running server, less the
        reference loop's."""
        times = os.times()
        total = (time.process_time() + times.children_user
                 + times.children_system - self.yardstick.cpu_s)
        if self.server is not None:
            total += process_cpu_s(self.server.pid)
        return total

    @contextmanager
    def timing(self, kind: str, step: str, collect: bool = False):
        """Time one step of set-up or of a ``cold`` or ``warm`` pass,
        after (with ``collect``) a garbage collection, with the host's
        slowdown measured right before and during it.  A step that
        raises is not recorded."""
        if collect:
            clean_heap()
        stick = self.yardstick
        with stick.measuring() as slowdown:
            spent0, cpu0 = stick.wall_s, self.cpu_s()
            t0 = time.perf_counter()
            yield
            wall = time.perf_counter() - t0 - (stick.wall_s - spent0)
            cpu = self.cpu_s() - cpu0
            getattr(self, kind)[step].append((wall, slowdown(), cpu))

    def loop(self, one_round) -> None:
        """Run rounds while the next one (at the median round length so
        far) still ends within ``seconds``; always at least one."""
        start = time.perf_counter()
        lengths: List[float] = []
        while not lengths or (
            time.perf_counter() - start + statistics.median(lengths)
            <= self.seconds
        ):
            t0 = time.perf_counter()
            with self.spans.span("round", index=len(lengths)):
                one_round(len(lengths))
            lengths.append(time.perf_counter() - t0)

    # -- direct: build_machine -> run_workload -> ResultCache ------------
    def direct_setup(self) -> None:
        self.items = [self.spec(p, self.seed) for p in self.workload.points]
        self.first_pass = {key for _, key in self.items}
        self.cache = ResultCache(self.work / "cache")

    def direct_round(self, index: int) -> None:
        produced = []
        with self.spans.span("pass.cold"):
            for spec, key in rotate(self.items, index):
                try:
                    with self.timing("cold", key, collect=True):
                        result, machine = self.simulate(spec)
                        with self.spans.span("harness.cache_put"):
                            self.cache.put(key, spec, result)
                except Exception as exc:
                    self.fail(f"cold {spec.describe()}", exc)
                    continue
                produced.append(key)
                before = self.events.get(key)
                self.collect(key, result, machine)
                self.check(
                    self.matches(key, result)
                    and before in (None, self.events[key]),
                    f"cold {spec.describe()}: result or event count differs "
                    "from the first pass",
                )
                del result, machine
        self.rounds.append(produced)
        for _ in range(self.workload.warm_passes):
            got = []
            with self.spans.span("pass.warm"):
                for _, key in self.items:
                    with self.timing("warm", key), \
                            self.spans.span("harness.cache_get"):
                        got.append(self.cache.get(key))
            for (spec, key), result in zip(self.items, got):
                self.hits += self.check(
                    result is not None and self.matches(key, result),
                    f"warm {spec.describe()}: cache miss or differs from "
                    "cold",
                )

    # -- engine: Engine.run cold (2 workers), warm, and serial ---------
    def engine_setup(self) -> None:
        self.grid = [
            self.spec(p, self.seed + s)
            for s in range(self.workload.seeds_per_point)
            for p in self.workload.points
        ]
        self.first_pass = {key for _, key in self.grid}

    def engine_check(self, jobs, what: str, cached: bool) -> None:
        self.check(len(jobs) == len(self.grid),
                   f"{what}: {len(jobs)} results for {len(self.grid)} points")
        for (spec, key), job in zip(self.grid, jobs):
            self.check(
                job.ok and job.cached == cached
                and self.matches(key, job.result),
                f"{what} {spec.describe()} seed {spec.seed}: "
                f"{job.error or f'cached={job.cached}, or result differs'}",
            )

    def engine_round(self, index: int) -> None:
        """Cold on two workers over an empty cache directory, the warm
        reruns, then cold again serially without a cache: the grid
        through the engine's three ways of running it."""
        specs = [spec for spec, _ in self.grid]
        keys = [key for _, key in self.grid]
        cache_dir = tempfile.mkdtemp(prefix="engine-", dir=self.work)
        try:
            with self.spans.span("harness.store_open"):
                engine = Engine(workers=2, cache_dir=cache_dir)
            with self.timing("cold", POOLED, collect=True), \
                    self.spans.span("harness.engine_run", mode="cold"):
                jobs = engine.run(specs)
            self.engine_check(jobs, "cold", cached=False)
            if index == 0:
                self.resilience = engine.resilience_counters()
            for _ in range(self.workload.warm_passes):
                with self.timing("warm", "sweep"), \
                        self.spans.span("harness.engine_run", mode="warm"):
                    jobs = engine.run(specs)
                self.hits += engine.stats.cache_hits
                self.engine_check(jobs, "warm", cached=True)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        del jobs
        with self.timing("cold", SERIAL, collect=True), \
                self.spans.span("harness.engine_run", mode="serial"):
            jobs = Engine(workers=1, cache_dir="").run(specs)
        self.engine_check(jobs, "serial", cached=False)
        self.rounds.append(keys + keys)

    def engine_paired(self) -> None:
        """Traced runs, after the sampled rounds: each point once through
        a one-point ``Engine.run`` without a cache and once simulated
        directly, back to back and in alternating order, so that
        host-speed drift cancels out of the difference."""
        serial = Engine(workers=1, cache_dir="")
        for index, (spec, key) in enumerate(self.grid):
            what = f"paired {spec.describe()} seed {spec.seed}"
            elapsed = {}
            for via_engine in (index % 2 == 0, index % 2 == 1):
                t0 = time.perf_counter()
                try:
                    if via_engine:
                        (job,) = serial.run([spec])
                        result = job.result
                    else:
                        result, _ = self.simulate(spec)
                except Exception as exc:
                    self.fail(what, exc)
                    break
                elapsed[via_engine] = time.perf_counter() - t0
                if not self.check(
                    result is not None and self.matches(key, result),
                    f"{what}: failed or differs (engine: {via_engine})",
                ):
                    break
            else:
                self.engine_overhead_s.append(elapsed[True] - elapsed[False])

    # -- serve: one closed-loop client against `repro serve` -----------
    def start_server(self, trace_out: Optional[Path] = None):
        """Spawn a server on a fresh cache directory and wait for the
        first healthy ``/v1/healthz``.  Returns (process, cache dir,
        client)."""
        cache_dir = tempfile.mkdtemp(prefix="serve-", dir=self.work)
        if trace_out is not None:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), cache_dir,
                   str(trace_out)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--cache-dir",
                   cache_dir, "--port", "0", "--workers", "1"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        while True:
            url = discover(cache_dir)
            if url is not None:
                client = Client(url, timeout_s=TIMEOUT_S)
                try:
                    client.healthz()
                    return proc, cache_dir, client
                except ServiceError:
                    pass
            if proc.poll() is not None or time.perf_counter() - t0 > TIMEOUT_S:
                stop_process(proc)
                raise ServiceError(
                    f"server did not come up (exit {proc.returncode})"
                )
            time.sleep(0.002)

    def serve_setup(self) -> None:
        """Untraced: time the server start-ups (set-up) and keep the
        last server for the rounds.  Traced: one server under the
        sampler."""
        self.next_request = 0
        if self.traced:
            self.server_trace = self.work / "server-trace.json"
            self.server, self.server_dir, self.client = self.start_server(
                self.server_trace
            )
            return
        spawns = self.warmup_spawns + self.setup_spawns
        for spawn in range(spawns):
            with self.timing("setup", self.setup_step(spawn)):
                proc, cache_dir, client = self.start_server()
            self.check(True, "server start")
            if spawn < spawns - 1:
                stop_process(proc)
        self.server, self.server_dir, self.client = proc, cache_dir, client

    def roundtrip(self, step: str, spec: JobSpec, key: str,
                  fresh: bool) -> bool:
        """Submit, wait for and fetch one single-point sweep, timed as
        ``step`` of the cold (fresh) or warm pass; check that the
        service created a job only for a fresh point and returned the
        point's result."""
        client = self.client
        what = f"{'fresh' if fresh else 'cached'} {spec.describe()} " \
               f"seed {spec.seed}"
        try:
            with self.timing("cold" if fresh else "warm", step), \
                    self.spans.span("serve.roundtrip", fresh=fresh):
                with self.spans.span("serve.submit", fresh=fresh):
                    sid = client.submit(
                        configs=spec.config, workloads=spec.workload,
                        cores=spec.cores, scale=spec.scale, seed=spec.seed,
                    )
                with self.spans.span("serve.wait", key=key, fresh=fresh):
                    client.wait(sid, timeout_s=TIMEOUT_S)
                with self.spans.span("serve.fetch", fresh=fresh):
                    points = client.fetch(sid)
        except ServiceError as exc:
            self.fail(what, exc)
            return False
        created = client.submissions[sid]["created_jobs"]
        return self.check(
            len(points) == 1 and created == int(fresh)
            and self.matches(key, points[0].result),
            f"{what}: {len(points)} points, {created} jobs created, or "
            "the result differs from the fresh one",
        )

    def serve_round(self, index: int) -> None:
        batch = []
        for point in self.workload.points:
            seed = 1000 * self.seed + self.next_request
            batch.append(self.spec(point, seed))
            self.next_request += 1
        if index == 0:
            self.first_pass = {key for _, key in batch}
        for fresh in (True,) + (False,) * self.workload.warm_passes:
            produced = []
            with self.spans.span("pass.cold" if fresh else "pass.warm"):
                for step, (spec, key) in enumerate(batch):
                    if self.roundtrip(f"request {step}", spec, key, fresh):
                        produced.append(key)
            if fresh:
                self.rounds.append(produced)
            else:
                self.hits += len(produced)

    def serve_teardown(self) -> None:
        try:
            self.peak_rss_kb = vm_hwm_kb(self.server.pid)
        finally:
            stop_process(self.server)
        store = JobStore(default_store_path(self.server_dir))
        try:
            self.resilience = store.counters()
        finally:
            store.close()
        if self.traced:
            self.samplers.append(json.loads(self.server_trace.read_text()))

    # -- set-up probes (direct and engine) -----------------------------
    def setup_step(self, spawn: int) -> str:
        """Set-up steps: the first ``warmup_spawns`` are not reported."""
        return "warm-up" if spawn < self.warmup_spawns else "spawn"

    def probe_setup(self) -> None:
        """Time fresh-interpreter probes, each scaled by the slowdown
        its own yardstick measured (this process's yardstick is not
        running yet)."""
        for spawn in range(self.warmup_spawns + self.setup_spawns):
            probe_dir = tempfile.mkdtemp(prefix="probe-", dir=self.work)
            cmd = [sys.executable, str(HERE / "probe.py"),
                   self.workload.name, str(self.seed), probe_dir]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.close()
            stop_process(proc, terminate=False, wait_s=TIMEOUT_S)
            words = line.split()
            if self.check(len(words) == 3 and words[0] == "ready"
                          and proc.returncode == 0,
                          f"set-up probe exited {proc.returncode}"):
                slowdown, spent = float(words[1]), float(words[2])
                self.setup[self.setup_step(spawn)].append(
                    (wall - spent, slowdown, wall - spent))

    # -- after the timed rounds ------------------------------------------
    def verify(self) -> None:
        """Simulate every point the engine or service produced locally
        (byte-identical results, and the event counts), then round-trip
        every distinct result through the codec and a cache."""
        if self.workload.kind != "direct":
            for key, text in list(self.results.items()):
                spec = self.specs[key]
                try:
                    with self.spans.span("sim.reference", key=key):
                        result, machine = self.simulate(spec)
                except Exception as exc:
                    self.fail(f"reference {spec.describe()}", exc)
                    continue
                self.collect(key, result, machine)
                self.check(result.to_json() == text,
                           f"{spec.describe()} seed {spec.seed}: differs "
                           "from a local run")
        cache = ResultCache(self.work / "verify")
        for key, text in self.results.items():
            spec = self.specs[key]
            with self.spans.span("harness.result_decode"):
                result = RunResult.from_json(text)
            with self.spans.span("harness.result_encode"):
                again = result.to_json()
            with self.spans.span("harness.cache_put"):
                cache.put(key, spec, result)
            with self.spans.span("harness.cache_get"):
                back = cache.get(key)
            self.check(
                again == text and back is not None and back.to_json() == text,
                f"{spec.describe()}: codec or cache round trip changed it",
            )

    def measure(self) -> None:
        kind = self.workload.kind
        if not self.traced and kind != "serve":
            self.probe_setup()  # serve_setup times the server start-ups
        self.yardstick.start()
        try:
            getattr(self, f"{kind}_setup")()
            sampler = Sampler().start() if self.traced else None
            try:
                self.loop(getattr(self, f"{kind}_round"))
            finally:
                if sampler is not None:
                    sampler.stop()
                    self.samplers.append(sampler.to_dict())
                if kind == "serve":
                    self.serve_teardown()
        finally:
            self.yardstick.stop()
        if self.traced:
            self.yardstick.enabled = True
            for _ in range(TRACED_REFERENCE_UNITS):
                self.yardstick.sample()
        if self.traced and kind == "engine":
            self.engine_paired()
        if kind != "serve":
            self.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
        self.verify()

    # -- metrics -----------------------------------------------------------
    def pass_s(self, kind: str) -> float:
        """A pass's time at reference host speed: the sum over its steps
        of each step's median over rounds, every sample with its
        CPU-bound share divided by its slowdown.  The share is the
        sample's own (set-up counts as all CPU), so a sample that waited
        is scaled less, and the median drops it either way."""
        steps = getattr(self, kind)
        if kind == "setup":
            steps = {"spawn": steps["spawn"]}

        def scaled(s: float, slowdown: float, cpu: float) -> float:
            share = 1.0 if kind == "setup" or s <= 0 else min(1.0, cpu / s)
            return s * (1.0 - share + share / slowdown)

        return sum(median([scaled(*sample) for sample in samples])
                   for samples in steps.values())

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        cold = self.pass_s("cold")
        events = statistics.fmean(
            sum(self.events.get(k, 0) for k in keys) for keys in self.rounds
        )
        return {
            "setup_s": (self.pass_s("setup"), "s"),
            "cold_s": (cold, "s"),
            "warm_s": (self.pass_s("warm"), "s"),
            "events_per_s": (events / cold if cold else 0.0, "1/s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        spans = self.spans
        weights: Counter = Counter()
        samples = sampler_ns = process_ns = 0
        for doc in self.samplers:
            weights.update(doc["weights_ns"])
            samples += doc["samples"]
            sampler_ns += doc["sampler_cpu_ns"]
            process_ns += doc["process_cpu_ns"]
        total = sum(weights.values()) or 1
        out = {
            f"layer.{layer}.self_pct": (100.0 * weights[layer] / total, "%")
            for layer in LAYERS
        }

        counts = self.counts
        runs = spans.find("sim.run")
        events = sum(r["events"] for r in runs)
        out["sim.events"] = (counts["sim.events"], "count")
        out["sim.cycles"] = (counts["sim.cycles"], "cycles")
        out["sim.events_per_cycle"] = (
            counts["sim.events"] / counts["sim.cycles"]
            if counts["sim.cycles"] else 0.0,
            "events/cycle",
        )
        out["sim.host_ns_per_event"] = (
            sum(seconds(r) for r in runs) * 1e9 / events if events else 0.0,
            "ns",
        )
        for name in COUNTS:
            out[name] = (counts[name], "count")
        out["noc.link_stall_cycles"] = (counts["noc.link_stall_cycles"],
                                        "cycles")
        out["msa.coverage"] = (
            statistics.fmean(self.coverage) if self.coverage else 0.0,
            "ratio",
        )
        out["machine.build_ms"] = (
            median(spans.durations_s("machine.build"), 1e3), "ms")
        out["workloads.instantiate_ms"] = (
            median(spans.durations_s("workloads.instantiate"), 1e3), "ms")

        for name in ("result_encode", "result_decode", "cache_put",
                     "cache_get"):
            out[f"harness.{name}_us"] = (
                median(spans.durations_s(f"harness.{name}"), 1e6), "us")
        out["harness.cache_hits"] = (self.hits, "count")
        out["harness.engine_overhead_ms_per_point"] = (
            median(self.engine_overhead_s, 1e3), "ms")
        out["harness.store_open_ms"] = (
            median(spans.durations_s("harness.store_open"), 1e3), "ms")
        out["harness.sweep_serial_s"] = (
            median([s for s, *_ in self.cold.get(SERIAL, ())]), "s")
        for name in RESILIENCE:
            out[f"resilience.{name}"] = (self.resilience.get(name, 0),
                                         "count")

        def fresh(name: str, is_fresh: bool = True) -> List[Dict]:
            return [r for r in spans.find(name) if r["fresh"] == is_fresh]

        for name in ("submit", "wait", "fetch"):
            out[f"serve.{name}_ms"] = (
                median([seconds(r) for r in fresh(f"serve.{name}")], 1e3),
                "ms",
            )
        local_s = {r["key"]: seconds(r) for r in spans.find("sim.reference")}
        queue_wait = [seconds(r) - local_s[r["key"]]
                      for r in fresh("serve.wait") if r["key"] in local_s]
        out["serve.queue_wait_ms"] = (median(queue_wait, 1e3), "ms")
        for label, is_fresh in (("fresh", True), ("cached", False)):
            rtt = [seconds(r) for r in fresh("serve.roundtrip", is_fresh)]
            out[f"serve.rtt_{label}_p50_ms"] = (median(rtt, 1e3), "ms")
            out[f"serve.rtt_{label}_p90_ms"] = (p90(rtt, 1e3), "ms")

        out["trace.samples"] = (samples, "count")
        out["trace.overhead_pct"] = (
            100.0 * sampler_ns / process_ns if process_ns else 0.0, "%")
        out["host.reference_us"] = (
            median(self.yardstick.units_s, 1e6), "us")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), args.quick, args.work)
    run.measure()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.spans is not None and args.trace:
        args.spans.write_text(json.dumps({
            "samplers": run.samplers,
            "spans": run.spans.records,
        }))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "samples": {
            "setup": dict(run.setup),
            "cold": dict(run.cold),
            "warm": dict(run.warm),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
