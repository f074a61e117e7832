"""The three workloads, their pinned inputs, and their correctness checks.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`: the end-to-end samples of the timed passes, the per-layer
metrics of the traced pass (trace runs only), and the attempted/failed
tally.  Parameters are pinned here, not read from the program's presets,
and the engine is left at its schema default (``auto``).  Every request
seed is derived from the workload seed by :func:`measure.derive_seed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import measure
from repro.api import Client, Session
from repro.harness.results import ExperimentResult
from repro.obs import TraceRecorder

#: ``reproduce``: E1-E10 at the full preset's values, except E2 (one size,
#: two slacks) and E5 (the two f values whose verdict resolves, with a trial
#: cap the precision target is reached under).  Each entry is (experiment,
#: parameters, expected verdict).
REPRODUCE = (
    (
        "E1",
        {
            "sizes": [12, 40],
            "selected_counts": [0, 1, 2, 3],
            "trials": 3000,
            "precision": 0.01,
            "confidence": 0.99,
        },
        "pass",
    ),
    (
        "E2",
        {
            "sizes": [90],
            "eps_values": [0.7, 0.58],
            "trials": 200,
            "decider_trials": 1200,
            "repetitions": 3,
        },
        "pass",
    ),
    (
        "E3",
        {"n": 24, "radii": [0, 1], "f_values": [1, 2, 4], "trials": 1200, "repetitions": 3},
        "pass",
    ),
    ("E4", {"sizes": [8, 32, 128, 512, 2048, 8192, 32768]}, "pass"),
    (
        "E5",
        {"f_values": [1, 2], "n": 60, "trials": 20000, "precision": 0.01, "confidence": 0.99},
        "pass",
    ),
    (
        "E6",
        {"q": 0.05, "p": 0.8, "instance_size": 12, "nu_values": [1, 2, 4, 8, 12], "trials": 400},
        "pass",
    ),
    (
        "E7",
        {"n": 24, "deterministic_radius": 2, "trials": 2000, "amplified_repetitions": 3},
        "pass",
    ),
    ("E8", {"n": 24, "eps": 0.7, "f_values": [1, 2, 4], "trials": 400}, "pass"),
    ("E9", {"q": 0.3, "p": 0.8, "instance_size": 20, "trials": 400}, "pass"),
    ("E10", {"sizes": [20, 60, 160, 400], "degree": 3, "runs": 5}, "pass"),
)

#: The smoke-test stand-in for :data:`REPRODUCE` (``--scale tiny``).
REPRODUCE_TINY = (
    (
        "E1",
        {
            "sizes": [9],
            "selected_counts": [0, 1],
            "trials": 3000,
            "precision": 0.01,
            "confidence": 0.99,
        },
        "pass",
    ),
    ("E4", {"sizes": [8, 64]}, "pass"),
    ("E10", {"sizes": [20], "degree": 3, "runs": 1}, "pass"),
)

#: ``sweep_pool``: an E2 slack grid at one size; crossed with two seeds.
SWEEP = {
    "experiment": "E2",
    "eps": [0.35, 0.4, 0.45, 0.5, 0.55, 0.6],
    "fixed": {"sizes": [30], "trials": 200, "decider_trials": 1200, "repetitions": 3},
    "expected": "pass",
}
SWEEP_TINY = {
    "experiment": "E2",
    "eps": [0.4, 0.5],
    "fixed": {"sizes": [30], "trials": 60, "decider_trials": 300, "repetitions": 3},
    "expected": "pass",
}

#: ``service_mix``: CPU-bound E3 jobs at the full preset's values;
#: ``distinct`` per client per round.
SERVICE = {
    "experiment": "E3",
    "params": {"n": 24, "radii": [0, 1], "f_values": [1, 2, 4], "trials": 1200, "repetitions": 3},
    "distinct": 3,
    "expected": "pass",
}
SERVICE_TINY = {
    "experiment": "E3",
    "params": {"n": 15, "radii": [0, 1], "f_values": [1, 2], "trials": 300, "repetitions": 3},
    "distinct": 1,
    "expected": "pass",
}

#: Nominal seconds of one pass on a 2-core host (a round of service_mix);
#: ``--seconds`` divided by this fixes the pass count, so the work of a run
#: depends only on its arguments, never on how fast the host happens to be.
NOMINAL_PASS_SECONDS = {"reproduce": 30.0, "sweep_pool": 5.0, "service_mix": 7.5}

#: ``reproduce`` experiments that run in under two seconds: after the timed
#: passes one of them, sampled by the seed, runs again and must repeat.
REPEATABLE = ("E1", "E3", "E7", "E8", "E9", "E10")

#: Process-pool width and service worker threads / client threads.
PARALLEL = 2
CLIENTS = 2

#: Experiments whose runners use no engine (``harness.no_engine_s``).
NO_ENGINE = ("E4", "E10")


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    tiny: bool

    @property
    def work(self) -> Path:
        return self.root / ".perfbench"

    @property
    def env(self) -> Dict[str, str]:
        return measure.subprocess_env(self.root / "src")

    def passes(self, workload: str) -> List[bool]:
        """Which passes run traced: an untraced and a traced pass in a trace
        run (their difference is ``obs.overhead_s``), else untraced passes."""
        if self.trace:
            return [False, True]
        return [False] * max(1, int(self.seconds // NOMINAL_PASS_SECONDS[workload]))

    def scratch(self, name: str) -> Path:
        path = self.work / "tmp" / f"{name}-{self.seed}-{time.time_ns()}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What a workload run measured.  ``miss``/``hit`` are latencies in
    seconds; ``all_latencies`` are those of every request the timed passes
    completed."""

    setup: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    miss: List[float] = field(default_factory=list)
    hit: List[float] = field(default_factory=list)
    all_latencies: List[float] = field(default_factory=list)
    peak_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    spans: List[layers.Span] = field(default_factory=list)
    epoch: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; a violation is one failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def _digest(records: Sequence[Dict[str, object]]) -> str:
    text = json.dumps(list(records), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def _check_digest(outcome: Outcome, workload: str, digests: List[str]) -> None:
    """Results must repeat across the passes of a run; a run of one pass has
    nothing to compare, so it notes the digest only (the self-tests compare
    it across two runs at one seed)."""
    if len(digests) > 1:
        outcome.check(len(set(digests)) == 1, f"{workload} result digest differs between passes")
    outcome.notes.append(f"result digest: {digests[0][:16]}")


def _inputs_note(outcome: Outcome, payloads: Sequence[Dict[str, object]]) -> None:
    """Note the digest of a run's generated inputs."""
    outcome.notes.append(f"inputs: {_digest(payloads)[:16]} ({len(payloads)} generated)")


def _session_probe(kwargs: str) -> str:
    return (
        "import sys\n"
        "from repro.api import Session\n"
        f"Session({kwargs})\n"
        "sys.stdout.write('ready\\n')\n"
        "sys.stdout.flush()\n"
    )


def _cache_layers(stats: Dict[str, int]) -> Dict[str, float]:
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.writes": stats.get("writes", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


# --------------------------------------------------------------------------- #
# reproduce
# --------------------------------------------------------------------------- #
def reproduce(ctx: Context) -> Outcome:
    """One caller runs the experiment table in sequence through
    ``Session.run_many`` (inline backend, cache off); a closed loop."""
    table = REPRODUCE_TINY if ctx.tiny else REPRODUCE
    outcome = Outcome()
    outcome.setup = measure.probe_setup(
        _session_probe("seed=1, cache=None"), ctx.env, ctx.root, sys.executable
    )
    seed = measure.derive_seed(ctx.seed, "reproduce")
    session = Session(seed=seed, cache=None)
    requests = [session.request(eid, **params) for eid, params, _ in table]
    expected = [verdict for _, _, verdict in table]
    _inputs_note(outcome, [request.to_payload() for request in requests])

    digests: List[str] = []
    reports = []
    for traced in ctx.passes("reproduce"):
        started_at: Dict[int, float] = {}
        latencies: List[float] = []

        def progress(event):
            now = time.perf_counter()
            if event.kind == "start":
                started_at[event.index] = now
            elif event.kind == "done":
                latencies.append(now - started_at[event.index])

        if traced:
            tracer, recorder = layers.Tracer(), TraceRecorder()
            traced_session = Session(seed=seed, cache=None, telemetry=recorder)
            started = time.perf_counter()
            with tracer.randomness_wrappers():
                reports = traced_session.run_many(requests)
            wall = time.perf_counter() - started
        else:
            started = time.perf_counter()
            reports = session.run_many(requests, progress=progress)
            wall = time.perf_counter() - started

        for report, verdict in zip(reports, expected):
            outcome.check(
                report.result.verdict == verdict,
                f"{report.experiment_id} verdict {report.result.verdict!r}, expected {verdict!r}",
            )
        digests.append(_digest([report.result.to_dict() for report in reports]))
        if traced:
            outcome.layers, outcome.spans = _reproduce_layers(
                tracer, recorder, reports, wall - outcome.walls[-1]
            )
        else:
            outcome.walls.append(wall)
            outcome.miss.extend(latencies)
            outcome.all_latencies.extend(latencies)
    _check_digest(outcome, "reproduce", digests)
    _check_repeat(ctx, outcome, session, reports)
    outcome.peak_mb = measure.own_peak_mb()
    return outcome


def _check_repeat(ctx: Context, outcome: Outcome, session: Session, reports) -> None:
    """Outside the timed passes: one cheap request, sampled by the seed, runs
    again and must give the same result to the bit."""
    cheap = [report for report in reports if report.experiment_id in REPEATABLE]
    report = cheap[measure.derive_seed(ctx.seed, "reproduce", "repeat") % len(cheap)]
    (again,) = session.run_many([report.request])
    outcome.check(
        again.result.to_dict() == report.result.to_dict(),
        f"{report.experiment_id} result differs when run again",
    )
    outcome.notes.append(f"repeated: {report.experiment_id}")


def _reproduce_layers(
    tracer: layers.Tracer, recorder: TraceRecorder, reports, overhead: float
) -> Tuple[Dict[str, float], List[layers.Span]]:
    spans = layers.from_telemetry(recorder.spans, "reproduce", tracer.covered)
    own = layers.layer_self_seconds(spans)
    requests = layers.find(spans, "session.request")
    metrics: Dict[str, float] = dict(tracer.counters)
    metrics["local.randomness.self_s"] = tracer.randomness_seconds
    for layer, name in layers.SELF_METRICS.items():
        metrics[name] = own.get(layer, 0.0)
    metrics["stats.trials_used"] = sum(
        report.result.trials_used or 0
        for report in reports
        if float(report.request.kwargs.get("precision") or 0.0) > 0.0
    )
    metrics["harness.no_engine_s"] = sum(
        span.seconds for span in requests if span.attrs.get("experiment_id") in NO_ENGINE
    )
    named = tracer.randomness_seconds + sum(metrics[name] for name in layers.SELF_METRICS.values())
    metrics["unattributed_s"] = sum(span.seconds for span in requests) - named
    metrics["obs.overhead_s"] = overhead
    return metrics, spans


# --------------------------------------------------------------------------- #
# sweep_pool
# --------------------------------------------------------------------------- #
def sweep_pool(ctx: Context) -> Outcome:
    """``Session.sweep`` over the slack grid x two seeds with fusion on
    ``auto`` and a 2-worker process pool; one caller, a closed loop."""
    config = SWEEP_TINY if ctx.tiny else SWEEP
    outcome = Outcome()
    session_kwargs = {"cache": None, "backend": "process-pool", "parallel": PARALLEL}
    outcome.setup = measure.probe_setup(
        _session_probe(f"cache=None, backend='process-pool', parallel={PARALLEL}"),
        ctx.env,
        ctx.root,
        sys.executable,
    )
    seeds = [measure.derive_seed(ctx.seed, "sweep_pool", index) for index in range(2)]
    grid = {"eps_values": [[eps] for eps in config["eps"]], "seed": seeds}
    points = [{"eps_values": eps, "seed": seed} for eps in grid["eps_values"] for seed in seeds]
    _inputs_note(outcome, [dict(point, **config["fixed"]) for point in points])

    digests: List[str] = []
    with measure.ChildPeaks() as children:
        for traced in ctx.passes("sweep_pool"):
            recorder = TraceRecorder() if traced else None
            session = Session(telemetry=recorder, **session_kwargs)
            started = time.perf_counter()
            sweep = session.sweep(config["experiment"], grid, fuse="auto", **config["fixed"])
            wall = time.perf_counter() - started
            children.sample()
            pool_peak = children.take(PARALLEL)
            outcome.peak_mb = max(outcome.peak_mb, measure.own_peak_mb() + pool_peak)
            for report in sweep.reports:
                outcome.check(
                    report.result.verdict == config["expected"],
                    f"sweep point {report.request.kwargs.get('eps_values')} seed "
                    f"{report.request.kwargs.get('seed')} verdict {report.result.verdict!r}",
                )
            digests.append(_digest([report.result.to_dict() for report in sweep.reports]))
            if recorder is None:
                # The sweep call is the request: its report arrives when
                # every point is done.
                outcome.walls.append(wall)
                outcome.miss.append(wall)
                outcome.all_latencies.append(wall)
            else:
                outcome.layers, outcome.spans = _sweep_layers(
                    recorder, wall, wall - outcome.walls[-1]
                )
    _check_digest(outcome, "sweep_pool", digests)
    return outcome


def _sweep_layers(
    recorder: TraceRecorder, wall: float, overhead: float
) -> Tuple[Dict[str, float], List[layers.Span]]:
    spans = layers.from_telemetry(recorder.spans, "sweep_pool")
    counters = recorder.counters
    own = layers.layer_self_seconds(spans)
    metrics: Dict[str, float] = {}
    for layer, name in layers.SELF_METRICS.items():
        metrics[name] = own.get(layer, 0.0)
    hits = counters.get("engine.fuse_hits", 0)
    misses = counters.get("engine.fuse_misses", 0)
    metrics["fusion.hits"] = hits
    metrics["fusion.misses"] = misses
    metrics["fusion.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    tasks = layers.find(spans, "backend.task")
    compute = [float(span.attrs.get("compute_seconds", 0.0)) for span in tasks]
    metrics["backend.compute_s"] = sum(compute)
    metrics["backend.queue_wait_s"] = sum(
        float(span.attrs.get("queue_wait_seconds", 0.0)) for span in tasks
    )
    metrics["backend.overhead_s"] = wall - max(compute, default=0.0)
    # All named-layer work runs inside the workers' backend.worker spans.
    worker_seconds = sum(span.seconds for span in layers.find(spans, "backend.worker"))
    named = sum(seconds for layer, seconds in own.items() if layer is not None)
    metrics["unattributed_s"] = worker_seconds - named
    metrics["obs.overhead_s"] = overhead
    return metrics, spans


# --------------------------------------------------------------------------- #
# service_mix
# --------------------------------------------------------------------------- #
@dataclass
class _Sample:
    kind: str
    round: int
    index: int
    seconds: float
    from_cache: bool
    job_id: str
    result: ExperimentResult


def _serve_command(cache_dir: Path) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--workers",
        str(PARALLEL),
        "--cache-dir",
        str(cache_dir),
    ]


def _metrics(url: str) -> Dict[str, object]:
    with urllib.request.urlopen(f"{url}/v1/metrics", timeout=60) as response:
        return json.loads(response.read().decode("utf8"))


def service_mix(ctx: Context) -> Outcome:
    """A fresh ``repro serve --workers 2`` and two client threads, each a
    closed loop over rounds of three phases: distinct jobs (cache misses,
    then written), one submission shared with the other client
    (single-flight dedup), and one repeat of each of its distinct jobs
    (cache reads, alongside the other client's executions)."""
    config = SERVICE_TINY if ctx.tiny else SERVICE
    outcome = Outcome()
    server = None
    work = ctx.scratch("service")
    # (traced, rounds) per pass: a timed run is one pass of all its rounds.
    if ctx.trace:
        passes = [(False, 1), (True, 1)]
    else:
        passes = [(False, len(ctx.passes("service_mix")))]
    try:
        for index in range(measure.SETUP_REPEATS):
            if server is not None:
                measure.stop(server)
            server, elapsed, line = measure.start_until_ready(
                _serve_command(work / f"cache-{index}"),
                "repro service listening on ",
                ctx.env,
                ctx.root,
            )
            outcome.setup.append(elapsed)
        url = line.rsplit(" ", 1)[-1]
        clients = [Client(url, timeout=120.0) for _ in range(CLIENTS)]
        executed: List[Dict[str, object]] = []
        first_round = 0
        for traced, count in passes:
            plans = [
                _service_plan(ctx, config, clients, round_index)
                for round_index in range(first_round, first_round + count)
            ]
            if first_round == 0:
                _, distinct, shared = plans[0]
                requests = [request for batch in distinct for request in batch] + [shared]
                _inputs_note(outcome, [request.to_payload() for request in requests])
            first_round += count
            tracer = layers.Tracer() if traced else None
            before = _metrics(url) if traced else None
            samples, wall = _service_pass(clients, plans, tracer)
            _check_service_pass(outcome, config, samples)
            executed.extend(
                s.result.to_dict() for batch in samples for s in batch if s.kind != "repeat"
            )
            if tracer is None:
                outcome.walls.append(wall)
                for per_client in samples:
                    for sample in per_client:
                        outcome.all_latencies.append(sample.seconds)
                        (outcome.hit if sample.from_cache else outcome.miss).append(sample.seconds)
            else:
                outcome.layers = _service_layers(
                    tracer, before, _metrics(url), wall - outcome.walls[-1]
                )
                outcome.spans, outcome.epoch = tracer.spans, tracer.epoch
        _check_inline(ctx, outcome, plans[0], samples)
        outcome.notes.append(f"result digest: {_digest(executed)[:16]}")
        outcome.peak_mb = measure.high_water_mb(server.pid)
    finally:
        if server is not None:
            measure.stop(server)
        shutil.rmtree(work, ignore_errors=True)
    return outcome


def _service_plan(ctx: Context, config, clients, round_index: int):
    """One round: the round index, per client its distinct requests, and the
    request both clients share."""
    experiment, params = config["experiment"], config["params"]

    def request(*labels: object):
        seed = measure.derive_seed(ctx.seed, "service_mix", round_index, *labels)
        return clients[0].request(experiment, seed=seed, **params)

    distinct = [
        [request(number, index) for index in range(config["distinct"])]
        for number in range(len(clients))
    ]
    return round_index, distinct, request("shared")


def _service_pass(clients, plans, tracer: Optional[layers.Tracer]):
    """Run the rounds of one pass: every client thread walks the three phases
    of each round in turn, with no pause between rounds.  The wall time runs
    from the common start to the last client's last result."""
    start = threading.Barrier(len(clients) + 1)
    shared_gate = threading.Barrier(len(clients))
    samples: List[List[_Sample]] = [[] for _ in clients]
    errors: List[Exception] = []

    def one(number: int, request, kind: str, round_index: int, index: int) -> None:
        client = clients[number]
        span = None
        if tracer is not None:
            label = f"service_mix/r{round_index}/c{number}/{kind}{max(index, 0)}"
            span = tracer.open("request", None, trace=label)
        started = time.perf_counter()
        job = client.submit(request)
        if not job.terminal:
            job.wait()
        result = client.result(job.id)
        seconds = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
        samples[number].append(
            _Sample(kind, round_index, index, seconds, job.from_cache, job.id, result)
        )

    def loop(number: int) -> None:
        try:
            start.wait()
            for round_index, distinct, shared in plans:
                for index, request in enumerate(distinct[number]):
                    one(number, request, "distinct", round_index, index)
                # Both clients submit the shared request together, so the
                # second submission finds the first still in flight.
                shared_gate.wait()
                one(number, shared, "shared", round_index, -1)
                # The repeats run while the other client may already be
                # executing its next round.
                for index, request in enumerate(distinct[number]):
                    one(number, request, "repeat", round_index, index)
        except Exception as error:  # re-raised after the join
            errors.append(error)
            start.abort()
            shared_gate.abort()

    threads = [
        threading.Thread(target=loop, args=(number,), name=f"client-{number}")
        for number in range(len(clients))
    ]
    with tracer.client_wrappers() if tracer is not None else contextlib.nullcontext():
        for thread in threads:
            thread.start()
        try:
            start.wait()
        except threading.BrokenBarrierError:
            pass
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return samples, wall


def _check_service_pass(outcome: Outcome, config, samples: List[List[_Sample]]) -> None:
    """Pinned verdicts; shared submissions agree; every repeat is served from
    the cache and equals the execution it repeats."""
    shared: Dict[int, List[Dict[str, object]]] = {}
    for per_client in samples:
        executed = {(s.round, s.index): s for s in per_client if s.kind == "distinct"}
        for sample in per_client:
            outcome.check(
                sample.result.verdict == config["expected"],
                f"job {sample.job_id} ({sample.kind}) verdict {sample.result.verdict!r}",
            )
            if sample.kind == "shared":
                shared.setdefault(sample.round, []).append(sample.result.to_dict())
            elif sample.kind == "repeat":
                original = executed[(sample.round, sample.index)]
                outcome.check(
                    sample.from_cache and sample.result.to_dict() == original.result.to_dict(),
                    f"repeat {sample.job_id} of {original.job_id} not the cached result",
                )
    for round_index, results in sorted(shared.items()):
        outcome.check(
            all(result == results[0] for result in results),
            f"shared submissions of round {round_index} differ",
        )


def _check_inline(ctx: Context, outcome: Outcome, plan, samples: List[List[_Sample]]) -> None:
    """Outside the timed window: one sampled remote result must be
    bit-identical to an inline ``Session.run`` of the same request."""
    round_index, distinct, _ = plan
    number = measure.derive_seed(ctx.seed, "service_mix", "client") % len(distinct)
    index = measure.derive_seed(ctx.seed, "service_mix", "index") % len(distinct[number])
    (remote,) = [
        sample
        for sample in samples[number]
        if sample.kind == "distinct" and (sample.round, sample.index) == (round_index, index)
    ]
    (inline,) = Session(cache=None).run_many([distinct[number][index]])
    outcome.check(
        inline.result.to_dict() == remote.result.to_dict(),
        f"remote job {remote.job_id} differs from inline Session.run",
    )


def _service_layers(tracer: layers.Tracer, before, after, overhead: float) -> Dict[str, float]:
    def counter(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def span_total(name: str) -> Tuple[int, float]:
        now = after["spans"].get(name, {"count": 0, "wall_seconds": 0.0})
        then = before["spans"].get(name, {"count": 0, "wall_seconds": 0.0})
        return now["count"] - then["count"], now["wall_seconds"] - then["wall_seconds"]

    def cache_stat(name: str) -> int:
        return after["cache"]["stats"][name] - before["cache"]["stats"][name]

    metrics: Dict[str, float] = {}
    calls = {"submit": [], "wait": [], "result": []}
    for span in tracer.spans:
        if span.layer == "client":
            calls[span.name.split(":", 1)[1]].append(span.seconds)
    metrics["client.submit_ms"] = 1000.0 * measure.median(calls["submit"])
    metrics["client.wait_s"] = measure.median(calls["wait"])
    metrics["client.result_ms"] = 1000.0 * measure.median(calls["result"])
    executions, execute_seconds = span_total("service.execute")
    metrics["service.queue_wait_s"] = span_total("service.queue_wait")[1]
    metrics["service.execute_per_job_s"] = execute_seconds / executions if executions else 0.0
    metrics["service.executions"] = counter("service.executions")
    metrics["service.deduplicated"] = counter("service.deduplicated")
    metrics.update(
        _cache_layers({name: cache_stat(name) for name in ("hits", "misses", "writes")})
    )
    # The service exports span totals, not a tree: on this workload the
    # engine and stats figures include their child spans (not self times).
    inclusive = {layer: 0.0 for layer in layers.SELF_METRICS}
    for name, layer in layers.TELEMETRY_LAYERS.items():
        inclusive[layer] += span_total(name)[1]
    for layer, seconds in inclusive.items():
        metrics[layers.SELF_METRICS[layer]] = seconds
    metrics["unattributed_s"] = execute_seconds - sum(inclusive.values())
    metrics["obs.overhead_s"] = overhead
    return metrics


WORKLOADS = {"reproduce": reproduce, "sweep_pool": sweep_pool, "service_mix": service_mix}
