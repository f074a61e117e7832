"""The repository benchmark: three workloads through the public APIs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are notes (input and result digests, the tail percentile used,
failures).  ``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`),
``--trace 1`` the per-layer metrics (:data:`PER_LAYER`) and writes the span
trace to ``.perfbench/traces/<workload>-<seed>.jsonl``.  ``--scale tiny``
swaps in the smoke-test inputs of ``workloads.py``.  Scratch files (the
service's result caches, traces) live under ``.perfbench/`` in the checkout.

Workloads
---------
All three are closed loops: a caller sends its next request only after the
previous result arrived.  The engine stays at its default (``auto``, which
resolves to exact mode) everywhere.

``reproduce`` -- one caller runs E1-E10 in sequence through
    ``Session.run_many`` (inline backend, cache off).  Why: this is what a
    ``run all`` user pays.  Exact-mode RNG set-up does most of the work; the
    stats stopping rule (E1 and E5 at ``precision=0.01``) and the runners
    without an engine (E4, E10) run too; no fusion, pool or service.
    Every experiment runs at its full-preset values except E2 (sizes
    [90] and slacks [0.7, 0.58] instead of four sizes and three slacks:
    the full E2 alone takes 87 s, and at n = 90 the slack 0.62 does not yet
    concentrate above the 0.85 success bar) and E5 (f in [1, 2], trial cap
    20000: f = 4 and f = 8 sit at the 1/2 threshold and stay UNRESOLVED for
    most seeds, and under the preset's cap of 2000 the 0.01 precision is
    never reached, so some seeds end UNRESOLVED for f = 2 as well).
``sweep_pool`` -- one caller runs ``Session.sweep`` over an E2 slack grid of
    six values at n = 30, crossed with two seeds (12 points), with
    ``fuse="auto"`` on a 2-worker process pool: two fusion groups, one per
    worker.  Why: fusion memoisation, pool spawn and fan-out and the
    cross-process merge of results do their work here and nowhere else.
    The slacks stay below 5/9 + 0.06 because at n = 30 the success bar
    above it is not met reliably.
``service_mix`` -- a fresh ``python -m repro serve --workers 2`` with its own
    cache directory and two client threads (2 = the host's cores).  Per
    round each client runs three phases: three distinct E3 jobs at the full
    preset's values (cache misses, then written), one submission shared
    with the other client (single-flight dedup), and one repeat of each of
    its three jobs (cache reads).  The clients go from round to round
    without a pause, so one client's repeats run while the other's next
    jobs execute.  A 30-second run is four rounds: 28 executions, 4
    deduplicated submissions and 24 cache reads, 56 requests in all.  The
    baseline below mixed 14 distinct jobs with duplicates and repeats but
    gives no counts for these; one duplicate per client and round and one
    repeat per job keep executions and cache reads in similar numbers and
    give ``latency_tail_s`` more than twenty samples per run.  E3 rather
    than the quick E6 of the baseline: the quick E6 verdict fails for
    about one seed in thirteen.
    Why: the queue, HTTP, wire format and cache write and read paths work
    here and nowhere else; the GIL contention between service worker
    threads shows here too.

A run makes ``--seconds`` divided by the workload's nominal pass length
passes (at least one): 30 s for reproduce, 5 s for sweep_pool and 7.5 s
for service_mix, where they are rounds of one continuous pass.  A 30-second
run is thus one reproduce pass, six sweeps or four service rounds; the work
depends only on the arguments, so a run lasts 20-50 s as the host's speed
changes.  A trace run makes one untraced and one traced pass (one round each
on service_mix).

Every timing bound in ``BENCHMARK.json`` is the largest allowed, 0.25: on a
shared 2-core host the same pure-Python loop ran 20% slower from one
half-second to the next and 50% slower from one quarter-hour to the next,
and whole runs move with it.  Memory is steady to well under 1%.

End-to-end metrics (``--trace 0``)
----------------------------------
``setup_s``         median of five set-ups, each from process launch until the
                    workload can take a request: import plus ``Session``
                    construction, or the server until its listening line.
``wall_s``          median seconds to deliver every result of one pass.
``peak_rss_mb``     peak resident memory of the processes running the system:
                    this process (reproduce); this process plus the pool
                    workers' peaks (sweep_pool); the server (service_mix).
``jobs_per_s``      completed requests per second over the timed passes.
``miss_p50_s``      median submit-to-result latency of requests that execute.
                    On sweep_pool the request is the sweep call, whose report
                    arrives when every point is done.
``latency_tail_s``  the latency with ten requests beyond it over all requests
                    of the timed passes; with ten requests or fewer, where no
                    latency has ten beyond it, the largest.  The notes give
                    the percentile and the sample count.

On reproduce, ``jobs_per_s`` is ten requests over ``wall_s`` and
``latency_tail_s`` is the slowest experiment.  On sweep_pool the sweep call
is the only request of a pass, so ``jobs_per_s``, ``miss_p50_s`` and
``latency_tail_s`` restate ``wall_s``: there a slowdown shows in all four.

The median latency of requests served from the result cache is reported
in the notes (``hit_p50_ms``) and as the per-layer ``cache.hit_p50_ms``, not
as an end-to-end metric: a cache read over HTTP takes 3-5 ms, and on a
shared 2-core host its median moved by up to 84% between runs, more than
any bound the benchmark may set.  Only service_mix reads the cache.

The share of failed requests is ``failed / attempted`` of the result line:
every request whose verdict differs from the pinned one counts, and so does
every failed integrity check: results repeating across the passes of a run
(where a run has more than one), one cheap reproduce request sampled by the
seed and run again after the timed pass, every service repeat served from
the cache and equal to its execution, shared service submissions agreeing,
and one sampled service result bit-identical to an inline ``Session.run``.
The notes give a result digest; the self-tests check that it repeats across
two runs at one seed.  The share is not a metric because it is 0 when the
program is correct.

Per-layer metrics (``--trace 1``) and the end-to-end metric each should move
---------------------------------------------------------------------------
``local.randomness.generators`` / ``.seeds`` / ``.self_s``: calls of
    ``derive_generator`` / ``derive_seed`` and time in them, from the
    benchmark's wrappers -> ``wall_s`` on reproduce (0 elsewhere: pool
    workers and the server are not wrapped).
``engine.compile.self_s`` / ``engine.construct.self_s`` /
    ``engine.execute.self_s``: self time of the program's own spans
    (``engine.compile`` and ``engine.compile_construction``;
    ``engine.construct``; ``engine.execute``, ``engine.chunk`` and
    ``engine.stream_sample``) -> ``wall_s`` on reproduce and sweep_pool,
    ``miss_p50_s`` on service_mix.  On reproduce the randomness time is
    taken out of the span it ran under; on sweep_pool the spans are those
    the workers send back.  On service_mix they are ``/v1/metrics`` span
    totals, which include child spans: not self times there.
``stats.self_s`` / ``stats.trials_used``: self time of
    ``stats.sequential_estimate`` spans, trials used by precision requests
    -> ``wall_s`` on reproduce.
``harness.no_engine_s``: wall time of the E4 and E10 requests;
    ``unattributed_s``: request wall time minus the named layers' self time
    (on sweep_pool, worker time minus it; on service_mix, execute time
    minus the inclusive totals) -> read against ``wall_s`` on reproduce.
``fusion.hits`` / ``.misses`` / ``.hit_ratio`` -> ``wall_s`` on sweep_pool.
``backend.compute_s`` / ``.queue_wait_s`` (``backend.task`` attributes),
    ``backend.overhead_s`` (sweep wall minus the longest group's compute)
    -> ``wall_s`` on sweep_pool.
``client.submit_ms`` / ``.wait_s`` / ``.result_ms`` (median per call),
    ``service.queue_wait_s`` (total), ``service.execute_per_job_s`` ->
    ``jobs_per_s`` and ``miss_p50_s`` on service_mix.
``service.executions`` / ``.deduplicated``, ``cache.hits`` / ``.misses`` /
    ``.writes`` / ``.hit_ratio`` (the server's own counts) ->
    ``cache.hit_p50_ms`` and ``jobs_per_s`` on service_mix.
``obs.overhead_s``: traced pass wall minus untraced pass wall; should move
    nothing.  The randomness wrappers run over a million times per
    reproduce pass, so its traced pass is markedly slower.

Baselines a later change is judged against (2-core host, seed 0, measured
before this benchmark existed): a full ``run all`` takes 112 s, of which
exact-mode ``engine.construct`` + ``engine.execute`` take 106 s and E2 alone
87 s.  A 12-point E2 sweep over two seeds takes 12.3-13.5 s inline and
8.1-8.7 s on a 2-worker pool.  ``repro serve --workers 2`` is slower than
``--workers 1`` on 14 distinct E6-quick jobs plus duplicates and repeats:
1.68 against 2.0 jobs/s, with ``service.execute`` at 2.1 s against 1.03 s
per job -- GIL contention between the worker threads, the defect a fix of
the service is measured by on ``service_mix``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import measure

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("miss_p50_s", "s"),
    ("latency_tail_s", "s"),
)

#: Per-layer metrics: (name, unit).  A layer a workload does not exercise
#: reports 0.
PER_LAYER = (
    ("local.randomness.generators", "count"),
    ("local.randomness.seeds", "count"),
    ("local.randomness.self_s", "s"),
    ("engine.compile.self_s", "s"),
    ("engine.construct.self_s", "s"),
    ("engine.execute.self_s", "s"),
    ("stats.self_s", "s"),
    ("stats.trials_used", "count"),
    ("harness.no_engine_s", "s"),
    ("unattributed_s", "s"),
    ("fusion.hits", "count"),
    ("fusion.misses", "count"),
    ("fusion.hit_ratio", "ratio"),
    ("backend.compute_s", "s"),
    ("backend.queue_wait_s", "s"),
    ("backend.overhead_s", "s"),
    ("client.submit_ms", "ms"),
    ("client.wait_s", "s"),
    ("client.result_ms", "ms"),
    ("service.queue_wait_s", "s"),
    ("service.execute_per_job_s", "s"),
    ("service.executions", "count"),
    ("service.deduplicated", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.writes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_p50_ms", "ms"),
    ("obs.overhead_s", "s"),
)

#: Count metrics: identical in every traced run at one seed.
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")

WORKLOAD_NAMES = ("reproduce", "sweep_pool", "service_mix")

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(outcome) -> Dict[str, float]:
    value, percentile, count = measure.tail(outcome.all_latencies)
    outcome.notes.append(f"latency_tail_s: p{percentile:.1f} of {count} requests")
    if outcome.hit:
        outcome.notes.append(f"hit_p50_ms: {hit_p50_ms(outcome)} ({len(outcome.hit)} hits)")
    return {
        "setup_s": measure.median(outcome.setup),
        "wall_s": measure.median(outcome.walls),
        "peak_rss_mb": outcome.peak_mb,
        "jobs_per_s": len(outcome.all_latencies) / sum(outcome.walls),
        "miss_p50_s": measure.median(outcome.miss),
        "latency_tail_s": value,
    }


def hit_p50_ms(outcome) -> float:
    return 1000.0 * measure.median(outcome.hit)


def per_layer(outcome) -> Dict[str, float]:
    outcome.layers["cache.hit_p50_ms"] = hit_p50_ms(outcome)
    unknown = sorted(set(outcome.layers) - {name for name, _ in PER_LAYER})
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return {name: outcome.layers.get(name, 0) for name, _ in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {src}/repro\n")
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    import workloads

    ctx = workloads.Context(ROOT, args.seed, args.seconds, bool(args.trace), args.scale == "tiny")
    ctx.work.mkdir(exist_ok=True)
    outcome = workloads.WORKLOADS[args.workload](ctx)
    if args.trace:
        values = per_layer(outcome)
        units = dict(PER_LAYER)
        path = ctx.work / "traces" / f"{args.workload}-{args.seed}.jsonl"
        layers.write_jsonl(path, outcome.spans, outcome.epoch)
        outcome.notes.append(f"trace: {path.relative_to(ROOT)} ({len(outcome.spans)} spans)")
    else:
        values = end_to_end(outcome)
        units = dict(END_TO_END)
    outcome.notes.append(f"failed_share: {outcome.failed}/{outcome.attempted}")
    for note in outcome.notes:
        sys.stdout.write(f"# {note}\n")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
