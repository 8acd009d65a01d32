"""The benchmark's four closed-loop workloads.

Each workload is driven from this one process by one client that issues
its next request only after the previous one returned:

* ``codesign`` — full ``CoDesignFlow(...).run()`` requests, a fresh flow
  per request;
* ``sweep_cold`` — ``SweepRunner.run()`` at ``workers=2`` over an empty
  cache directory;
* ``sweep_warm`` — the same grid against a cache directory filled by an
  untimed run beforehand (a fresh checkpoint, so not a resume);
* ``service_jobs`` — small ``SweepSpec`` jobs submitted to an in-process
  ``ServiceCoordinator`` served by one ``ShardWorker`` subprocess.

Every workload drives its requests through :func:`drive` and does its
accounting once, in :func:`outcome_of`.  With tracing off the outcome
carries the end-to-end metrics, timed over ``seconds``; the peak RSS is
read as soon as the requests end, before any untimed check.  With
tracing on, every request is run twice, once untraced and once traced
(alternating which goes first), and the outcome carries the per-layer
metrics of the traced halves plus ``telemetry.overhead_ratio``; the
traced halves collect ``repro.telemetry`` counters and the benchmark's
own spans.

Inputs come only from ``seed``.  Checks raise :class:`checks.CheckFailed`.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import checks
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------- inputs
CODESIGN_DEVICES = ("pynq-z1", "ultra96")
STRATEGIES = ("scd", "evolutionary", "random", "annealing")
PAPER_FPS = (10.0, 15.0, 20.0)
#: One rotation of codesign inputs.  FPS target and strategy change on
#: every request (both move a request's cost by up to 1.5x), so any prefix
#: of the rotation is balanced across them; the device changes every 12.
CODESIGN_SLOTS = tuple(
    (CODESIGN_DEVICES[(j // 12) % 2], STRATEGIES[j % 4], PAPER_FPS[j % 3])
    for j in range(24)
)

SWEEP_TARGETS = "fpga:pynq-z1,fpga:ultra96,gpu:jetson-tx2"
SWEEP_WORKERS = 2
SWEEP_CELL_SEED = 2019

JOB_DEVICES = ("fpga:pynq-z1", "fpga:ultra96", "gpu:jetson-tx2")
#: Interval of the client's status polls: small next to a job (~0.7 s).
POLL_S = 0.02
TERMINAL = ("done", "failed", "cancelled")


def request_seed(seed: int, index: int) -> int:
    """Per-request rng seed: distinct per request, fixed by the run seed."""
    return seed * 100_003 + index


def sweep_tasks(seed: int):
    """Skewed 36-cell grid: two heavy cells after each light one.

    The cells' search seed is fixed, so every run seed does the same
    simulated work: with a per-seed search seed the grid's evaluation count
    spreads by 9% between seeds, which would swamp the run-to-run spread
    the bounds are set against.  The run seed shuffles the order in which
    cells reach the scheduler.
    """
    from repro.sweep import build_grid

    heavy = build_grid(SWEEP_TARGETS, STRATEGIES, [15.0, 20.0], tolerance_ms=8.0,
                       iterations=120, num_candidates=2, top_bundles=3,
                       seed=SWEEP_CELL_SEED)
    light = build_grid(SWEEP_TARGETS, STRATEGIES, [30.0], tolerance_ms=10.0,
                       iterations=10, num_candidates=1, top_bundles=3,
                       seed=SWEEP_CELL_SEED)
    order = random.Random(seed)
    order.shuffle(heavy)
    order.shuffle(light)
    pairs = iter(heavy)
    return [cell for cheap in light for cell in (cheap, next(pairs), next(pairs))]


def job_spec(seed: int, index: int):
    """Job ``index``: one target, two strategies, two FPS targets (4 cells)."""
    from repro.sweep import SweepSpec

    return SweepSpec(devices=JOB_DEVICES[index % len(JOB_DEVICES)],
                     strategies="scd,random", fps=(15.0, 20.0), tolerance_ms=10.0,
                     iterations=25, num_candidates=1, top_bundles=2,
                     seed=request_seed(seed, index))


# ---------------------------------------------------------------- outcome
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Metrics of the JSON result (end-to-end or per-layer by mode).
    metrics: dict = field(default_factory=dict)
    #: Extra lines for the human report: (name, value, unit).
    report: list = field(default_factory=list)
    digest: str = ""
    digest_of: str = ""
    #: Spans of the traced halves, written out by ``run.py`` at the end.
    tracer: Optional[Tracer] = None


@dataclass
class Request:
    """What one request did, for the accounting every workload shares."""

    seconds: float
    #: Units the request adds to ``attempted``/``failed``: flows, cells or jobs.
    attempted: int
    failed: int
    #: Search evaluations (journal records, cache hit or not).
    evaluations: int
    #: Latency targets (codesign) or cells (sweeps, jobs) asked for, and
    #: how many of them got a design.
    targets: int
    met: int
    #: Canonical simulated outputs; kept only where a digest or check needs them.
    outputs: Optional[list] = None
    #: Workload-specific numbers for the traced metrics.
    extra: dict = field(default_factory=dict)


def percentile(values, q: int) -> float:
    """``q``-th percentile (1-99) by linear interpolation; needs two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(count: int) -> Optional[int]:
    """Highest percentile (multiple of 5, at most 90) with ten samples beyond it."""
    if count < 20:
        return None
    return min(90, int((1.0 - 10.0 / count) * 20) * 5)


def latency_report(prefix: str, latencies) -> list:
    """Sample count and latency tail, named after the request."""
    lines = [(f"{prefix}_samples", len(latencies), "count")]
    q = tail_percentile(len(latencies))
    if q is not None:
        lines.append((f"{prefix}_p{q}_s", percentile(latencies, q), "s"))
    return lines


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def model_latency_err_pct() -> float:
    """Mean |model - reported| / reported latency over the Table 2 baselines."""
    from repro.experiments.table2 import run_table2

    table = run_table2()
    errors = [
        abs(row.latency_ms - row.reported.reported_latency_ms)
        / row.reported.reported_latency_ms * 100.0
        for row in table.fpga_rows + table.gpu_rows
        if row.reported is not None and row.reported.reported_latency_ms
    ]
    return statistics.fmean(errors)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- driving
class Telemetry:
    """Switches ``repro.telemetry`` on around traced requests and sums them."""

    def __init__(self) -> None:
        from repro.telemetry import MetricsRegistry

        self.total = MetricsRegistry()

    def __enter__(self):
        import repro.telemetry as telemetry

        telemetry.enable(fresh=True)
        return self

    def __exit__(self, *exc) -> None:
        import repro.telemetry as telemetry

        snap = telemetry.snapshot()
        telemetry.disable()
        if snap is not None:
            self.total.merge(snap)

    def counter(self, name: str) -> float:
        return self.total.snapshot().counters.get(name, 0.0)

    def histogram(self, name: str):
        return self.total.snapshot().histograms.get(name)


class Trace:
    """What a request records: spans and telemetry when traced, nothing otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.telemetry = Telemetry() if enabled else None

    def span(self, name: str, index: int):
        return self.tracer.span(name, index)

    @contextmanager
    def request(self, index: int) -> Iterator[None]:
        """The timed part of request ``index``."""
        if not self.enabled:
            yield
            return
        with self.telemetry, self.tracer.span("bench.request", index):
            yield


QUIET = Trace(enabled=False)


@dataclass
class Run:
    #: Untraced requests (every request, or the untraced half of each pair).
    plain: list
    #: Traced halves, in the same order as ``plain``; empty when untraced.
    traced: list
    trace: Trace


def drive(issue: Callable[[int, Trace, bool], Request], more: Callable[[int], bool],
          trace: bool, keep: int) -> Run:
    """Issue requests back to back while ``more(index)``.

    Untraced, each request runs once.  Traced, each runs as an
    untraced/traced pair, alternating which half goes first, and both
    halves must give the same simulated outputs.
    ``issue`` keeps the outputs of the first ``keep`` requests (every
    request when traced).
    """
    traced_run = Trace(enabled=True) if trace else None
    plain, traced = [], []
    index = 0
    while more(index):
        if traced_run is None:
            plain.append(issue(index, QUIET, index < keep))
        else:
            for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
                if is_traced:
                    traced.append(issue(index, traced_run, True))
                else:
                    plain.append(issue(index, QUIET, True))
            if traced[-1].outputs != plain[-1].outputs:
                raise checks.CheckFailed(
                    f"request {index}: the traced run's outputs differ from the "
                    f"untraced run's")
        index += 1
    return Run(plain, traced, traced_run or QUIET)


def deadline(seconds: float) -> Callable[[int], bool]:
    """At least one request, then more until ``seconds`` have passed."""
    end = time.perf_counter() + seconds
    return lambda index: index == 0 or time.perf_counter() < end


def outcome_of(run: Run, prefix: str, keep: int, what: str,
               cells: bool = True) -> Outcome:
    """Counts, digest and the metrics every workload reports.

    Untraced, the end-to-end metrics of the requests; traced, the
    per-layer metrics every workload shares.  The digest covers the
    outputs of the first ``keep`` requests.  ``cells`` says whether the
    requests' targets are grid cells (sweeps, jobs).
    """
    requests = run.traced or run.plain
    everything = run.plain + run.traced
    outcome = Outcome(attempted=sum(r.attempted for r in everything),
                      failed=sum(r.failed for r in everything))
    kept = requests[:keep]
    outcome.digest = checks.digest(text for r in kept for text in r.outputs)
    outcome.digest_of = f"{what}, requests 0-{len(kept) - 1}"
    evaluations = sum(r.evaluations for r in requests)
    targets = sum(r.targets for r in requests)
    met = sum(r.met for r in requests)
    if not run.trace.enabled:
        latencies = [r.seconds for r in requests]
        outcome.metrics = {
            "request_p50_s": statistics.median(latencies),
            "candidates_per_s": evaluations / sum(latencies),
        }
        outcome.report = latency_report(prefix, latencies) + [
            ("targets_met_ratio", met / targets, "ratio"),
            ("failed_ratio", outcome.failed / outcome.attempted, "ratio"),
        ]
        if cells:
            outcome.report.append(("cells_per_s", targets / sum(latencies), "1/s"))
        return outcome

    telemetry, tracer, pairs = run.trace.telemetry, run.trace.tracer, len(requests)
    scalar = telemetry.histogram("hw.estimate.seconds")
    batch = telemetry.histogram("hw.estimate.batch.seconds")
    scalar_n = scalar.total if scalar else 0
    scalar_s = scalar.sum if scalar else 0.0
    batch_s = batch.sum if batch else 0.0
    batch_configs = telemetry.counter("hw.estimate.count") - scalar_n
    hits = telemetry.counter("search.cache.hits")
    misses = telemetry.counter("search.cache.misses")
    disk_hits = telemetry.counter("sweep.disk_cache.hits")
    disk_misses = telemetry.counter("sweep.disk_cache.misses")
    outcome.metrics = {
        "hw.estimate.scalar.count": scalar_n / pairs,
        "hw.estimate.scalar_s": scalar_s / pairs,
        "hw.estimate.batch.calls": telemetry.counter("hw.estimate.batch.calls") / pairs,
        "hw.estimate.batch.configs": batch_configs / pairs,
        "hw.estimate.batch_s": batch_s / pairs,
        "hw.us_per_config": ratio(scalar_s + batch_s, scalar_n + batch_configs) * 1e6,
        "search.cache.hit_ratio": ratio(hits, hits + misses),
        "search.evaluations": evaluations / pairs,
        "search.targets_met_ratio": met / targets,
        "sweep.disk_cache.hit_ratio": ratio(disk_hits, disk_hits + disk_misses),
        "sweep.cell.retries": telemetry.counter("sweep.cell.retry.count") / pairs,
        "telemetry.overhead_ratio": (sum(r.seconds for r in run.traced)
                                     / sum(r.seconds for r in run.plain)),
    }
    for layer, seconds in tracer.self_times().items():
        outcome.metrics[f"{layer}.self_s"] = seconds / pairs
    outcome.tracer = tracer
    return outcome


# ================================================================ codesign
def _codesign_request(index: int, seed: int, slots, trace: Trace,
                      generated: Optional[list] = None):
    """One fresh flow; spans around its public step methods when traced."""
    from repro import CoDesignFlow, CoDesignInputs, LatencyTarget
    from repro.core import AutoDNN, CoDesignResult
    from repro.hw import get_device
    from repro.search import SearchSession

    device, strategy, fps = slots[index % len(slots)]
    with trace.span("core.flow_init", index):
        inputs = CoDesignInputs(device=get_device(device),
                                latency_targets=(LatencyTarget(fps=fps),))
        flow = CoDesignFlow(inputs, search_strategy=strategy,
                            rng=request_seed(seed, index))
    session = SearchSession(name=f"request-{index}")
    flow.auto_dnn.session = session
    if not trace.enabled:
        return flow, flow.run(), session

    if generated is not None:
        from repro.search.cache import config_cache_key

        generate = flow.auto_hls.generate

        def counted(config, *args, **kwargs):
            generated.append(config_cache_key(config))
            return generate(config, *args, **kwargs)

        flow.auto_hls.generate = counted
    with trace.span("core.step1_modeling", index):
        sampling = flow.step1_modeling()
    with trace.span("core.step2_bundle_selection", index):
        coarse, fine, selected = flow.step2_bundle_selection()
    with trace.span("core.auto_dnn.search", index):
        candidates = flow.auto_dnn.search(
            selected, inputs.latency_targets,
            num_candidates=flow.candidates_per_bundle,
            max_iterations=flow.scd_iterations,
            strategy=flow.search_strategy)
    with trace.span("core.auto_dnn.refine_with_hls", index):
        candidates = flow.auto_dnn.refine_with_hls(candidates)
    result = CoDesignResult(
        inputs=inputs, sampling=sampling, coarse_evaluations=coarse,
        fine_evaluations=fine, selected_bundles=selected, candidates=candidates,
        best_per_target=AutoDNN.best_per_target(candidates, inputs.latency_targets),
    )
    return flow, result, session


def run_codesign(seed: int, seconds: float, trace: bool, scratch: Path,
                 slots=CODESIGN_SLOTS) -> Outcome:
    """Traced, one pair per slot of the rotation (the step-by-step traced
    flow is then checked equal to ``run()`` on every slot)."""

    def issue(index: int, trace_: Trace, keep: bool) -> Request:
        generated: list[str] = []
        start = time.perf_counter()
        with trace_.request(index):
            flow, result, session = _codesign_request(index, seed, slots, trace_,
                                                      generated)
        seconds_ = time.perf_counter() - start
        checks.check_designs(flow, result)
        outputs = None
        if keep:
            outputs = [checks.canonical({"designs": checks.design_record(result),
                                         "journal": session.as_dict()})]
        return Request(seconds_, attempted=1, failed=0,
                       evaluations=len(session.records),
                       targets=len(result.best_per_target),
                       met=len(result.final_designs), outputs=outputs,
                       extra={"generated": len(generated),
                              "unique": len(set(generated))})

    more = (lambda index: index < len(slots)) if trace else deadline(seconds)
    run_ = drive(issue, more, trace, len(slots))
    outcome = outcome_of(run_, "flow", len(slots), "designs and journals", cells=False)
    if not trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        return outcome
    pairs = len(run_.traced)
    generated = sum(r.extra["generated"] for r in run_.traced)
    tracer = run_.trace.tracer
    outcome.metrics.update({
        "core.step1_modeling_s": tracer.total("core.step1_modeling") / pairs,
        "core.step2_bundle_selection_s":
            tracer.total("core.step2_bundle_selection") / pairs,
        "core.auto_dnn.search_s": tracer.total("core.auto_dnn.search") / pairs,
        "core.auto_dnn.refine_with_hls_s":
            tracer.total("core.auto_dnn.refine_with_hls") / pairs,
        "core.auto_hls.generate.calls": generated / pairs,
        "core.auto_hls.generate.unique_ratio":
            ratio(sum(r.extra["unique"] for r in run_.traced), generated),
    })
    return outcome


# ================================================================ sweeps
def run_sweep(seed: int, seconds: float, trace: bool, scratch: Path,
              warm: bool, tasks=None) -> Outcome:
    from repro.sweep import SweepRunner

    tasks = tasks if tasks is not None else sweep_tasks(seed)
    label = "sweep_warm" if warm else "sweep_cold"
    warm_dir = scratch / "warm-cache"
    #: uid -> journal text: the warm fill's, else the first cold sweep's.
    reference: dict[str, str] = {}
    fill = None
    if warm:
        fill = SweepRunner(tasks, workers=SWEEP_WORKERS, cache_dir=str(warm_dir)).run()
        if fill.failures:
            raise checks.CheckFailed(f"{label}: the untimed fill run failed "
                                     f"{len(fill.failures)} cell(s)")
        reference = checks.journal_map(fill.outcomes)
    cold_dirs = iter(scratch / f"cold-{n}" for n in range(1_000_000))

    def issue(index: int, trace_: Trace, keep: bool) -> Request:
        directory = warm_dir if warm else next(cold_dirs)
        start = time.perf_counter()
        with trace_.request(index):
            with trace_.span("sweep.runner_init", index):
                runner = SweepRunner(tasks, workers=SWEEP_WORKERS,
                                     cache_dir=str(directory))
            with trace_.span("sweep.run", index):
                result = runner.run()
        seconds_ = time.perf_counter() - start
        if not warm:
            shutil.rmtree(directory, ignore_errors=True)
        journals = checks.journal_map(result.outcomes)
        if len(journals) + len(result.failures) != len(tasks):
            raise checks.CheckFailed(f"{label}: {len(journals)} cells settled and "
                                     f"{len(result.failures)} failed of {len(tasks)}")
        for uid, text in journals.items():
            reference.setdefault(uid, text)
        what = "warm journals vs the cold fill" if warm else "repeated cold sweeps"
        checks.check_same_journals(f"{label}: {what}",
                                   {uid: reference[uid] for uid in journals}, journals)
        return Request(seconds_, attempted=len(tasks), failed=len(result.failures),
                       evaluations=sum(o.evaluations for o in result.outcomes),
                       targets=len(tasks),
                       met=sum(o.best_latency_ms is not None for o in result.outcomes),
                       outputs=[journals[uid] for uid in sorted(journals)] if keep else None,
                       extra={"result": result} if trace_.enabled else {})

    run_ = drive(issue, deadline(seconds), trace, 1)
    outcome = outcome_of(run_, "sweep", 1, f"journals of the {len(tasks)}-cell grid")
    if not trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        return outcome
    results = [r.extra["result"] for r in run_.traced]
    pairs = len(results)
    durations = [o.duration_s for r in results for o in r.outcomes]
    busy = sum(durations) + sum(p.prep_duration_s for r in results
                                for p in r.preparations)
    slot_time = SWEEP_WORKERS * sum(r.wall_time_s for r in results)
    outcome.metrics.update({
        "sweep.prep_s": sum(r.prep_time_s for r in results) / pairs,
        "sweep.cell_p50_s": percentile(durations, 50),
        "sweep.cell_p90_s": percentile(durations, 90),
        "sweep.slot_idle_ratio": 1.0 - busy / slot_time,
        "sweep.estimator_calls": sum(r.estimator_calls for r in results) / pairs,
        "sweep.cells.failed": sum(len(r.failures) for r in results) / pairs,
    })
    if warm:
        outcome.metrics["sweep.disk_cache.load_s"] = disk_cache_load_s(warm_dir, fill)
    return outcome


def disk_cache_load_s(directory: Path, fill) -> float:
    """Mean time to build a ``DiskEvaluationCache`` over the warm directory.

    One cache per prepared target, keyed exactly as a sweep cell keys it.
    """
    from repro.sweep import DiskEvaluationCache

    def unused(config):
        raise RuntimeError("the load-time probe never estimates")

    times = []
    for prepared in fill.preparations:
        start = time.perf_counter()
        cache = DiskEvaluationCache(unused, directory, device=prepared.device,
                                    clock_mhz=prepared.clock_mhz,
                                    context=prepared.fingerprint, shard="load-probe")
        times.append(time.perf_counter() - start)
        if len(cache) == 0:
            raise checks.CheckFailed(f"sweep_warm: the warm cache holds no entries "
                                     f"for {prepared.device}")
    return statistics.fmean(times)


# ================================================================ service
class ServiceHarness:
    """In-process coordinator plus one ``shard worker`` subprocess."""

    def __init__(self, root: Path) -> None:
        from repro.service import ServiceClient, ServiceCoordinator

        self.root = root
        self.service = ServiceCoordinator(root / "service")
        self.service.start()
        env = {k: v for k, v in os.environ.items() if k != "REPRO_TELEMETRY"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--log-level", "error",
             "shard", "worker", "--connect", self.service.url,
             "--cache-dir", str(root / "worker-cache"), "--idle-timeout-s", "600"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.client = ServiceClient(self.service.url)
        try:
            deadline_ = time.monotonic() + 60.0
            while self.client.service_status()["workers"] < 1:
                if self.worker.poll() is not None or time.monotonic() > deadline_:
                    raise RuntimeError("the shard worker never registered")
                time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        #: Seconds from starting the worker to its registration.
        self.register_s = time.perf_counter() - start

    def close(self) -> None:
        self.service.stop()
        self.worker.terminate()
        try:
            self.worker.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait(timeout=10.0)

    def job(self, spec, trace: Trace, index: int) -> tuple[dict, int]:
        """Submit, poll until terminal, fetch the result; returns (result, polls)."""
        client = self.client
        with trace.span("service.submit", index):
            uid = client.submit(spec, name=f"bench-{index}")["job"]
        polls = 0
        while True:
            with trace.span("service.status", index):
                state = client.status(uid)["state"]
            polls += 1
            if state in TERMINAL:
                break
            time.sleep(POLL_S)
        with trace.span("service.result", index):
            return client.result(uid), polls

    def check_against_local(self, spec, uid: str, scratch: Path) -> None:
        """A job's checkpoint journals equal a local run of the same spec."""
        from repro.service import JOBS_DIRNAME
        from repro.sweep import CHECKPOINT_FILENAME, load_checkpoint

        served = load_checkpoint(self.service.root / JOBS_DIRNAME / uid
                                 / CHECKPOINT_FILENAME)
        local = spec.build_runner(cache_dir=str(scratch / "local-reference"),
                                  workers=1).run()
        checks.check_same_journals(
            f"service_jobs: job {uid} vs a local run",
            checks.journal_map(local.outcomes),
            {uid_: checks.canonical(o.journal) for uid_, o in served.outcomes.items()},
        )


DIGEST_JOBS = 6


def run_service(seed: int, seconds: float, trace: bool, scratch: Path,
                spec_for: Callable = job_spec) -> Outcome:
    """Traced, each job's spec is submitted twice: untraced and traced."""
    harness = ServiceHarness(scratch)

    def issue(index: int, trace_: Trace, keep: bool) -> Request:
        start = time.perf_counter()
        with trace_.request(index):
            payload, polls = harness.job(spec_for(seed, index), trace_, index)
        seconds_ = time.perf_counter() - start
        outcomes = payload["sweep"]["outcomes"]
        cells = len(outcomes) + len(payload["sweep"].get("failures", []))
        outputs = None
        if keep:
            outputs = [checks.canonical(o["journal"]) for o in outcomes]
        return Request(seconds_, attempted=1, failed=int(payload["state"] != "done"),
                       evaluations=sum(o["evaluations"] for o in outcomes),
                       targets=cells,
                       met=sum(o["best_latency_ms"] is not None for o in outcomes),
                       outputs=outputs,
                       extra={"uid": payload["job"], "polls": polls,
                              "cell_seconds": sum(o["duration_s"] for o in outcomes)})

    try:
        run_ = drive(issue, deadline(seconds), trace, DIGEST_JOBS)
    finally:
        harness.close()
    outcome = outcome_of(run_, "job", DIGEST_JOBS, "journals")
    if not trace:
        # After close(): the reaped worker is one of the children counted.
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    harness.check_against_local(spec_for(seed, 0), run_.plain[0].extra["uid"], scratch)
    if not trace:
        return outcome
    jobs = run_.traced
    pairs = len(jobs)
    tracer, telemetry = run_.trace.tracer, run_.trace.telemetry
    outcome.metrics.update({
        "service.submit_s": tracer.total("service.submit") / pairs,
        "service.status_s": ratio(tracer.total("service.status"),
                                  tracer.count("service.status")),
        "service.result_s": tracer.total("service.result") / pairs,
        "service.status_polls_per_job": sum(r.extra["polls"] for r in jobs) / pairs,
        "service.compute_share": (sum(r.extra["cell_seconds"] for r in jobs)
                                  / sum(r.seconds for r in jobs)),
        "shard.lease.granted": telemetry.counter("shard.lease.granted.count") / pairs,
        "shard.lease.revoked": telemetry.counter("shard.lease.revoked.count") / pairs,
        "shard.lease.expired": telemetry.counter("shard.lease.expired.count") / pairs,
    })
    return outcome


# ================================================================ registry
def run(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    if name == "codesign":
        return run_codesign(seed, seconds, trace, scratch)
    if name in ("sweep_cold", "sweep_warm"):
        return run_sweep(seed, seconds, trace, scratch, warm=name == "sweep_warm")
    if name == "service_jobs":
        return run_service(seed, seconds, trace, scratch)
    raise ValueError(f"unknown workload {name!r}")
