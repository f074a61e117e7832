"""The traced run: spans, counts and self times per layer.

Spans come from two places and share one model (:class:`Span`):

* The program's own telemetry: a ``Session(telemetry=TraceRecorder())``
  records ``session.request`` and the engine and stats spans, including what
  pool workers send back.  :func:`from_telemetry` converts its span trees.
* :class:`Tracer`, the benchmark's wrappers where the telemetry has no data:
  ``derive_generator`` / ``derive_seed`` (called millions of times, so only
  counted and timed in aggregate, their time charged to the program span
  open at the call) and ``Client.submit`` / ``wait`` / ``result``, recorded
  as spans on a per-thread stack under the benchmark's request spans.

Spans are kept in memory and written as JSONL by :func:`write_jsonl`.  A
span's self time is its duration minus the time its children cover (child
spans plus the randomness calls made directly under it);
:func:`layer_self_seconds` sums self time per layer.  Spans of one request
share a ``trace`` id.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: The layers whose self time is reported from spans -> their metric.
SELF_METRICS = {
    "engine.compile": "engine.compile.self_s",
    "engine.construct": "engine.construct.self_s",
    "engine.execute": "engine.execute.self_s",
    "stats": "stats.self_s",
}

#: The randomness helpers, counted and timed in aggregate: name -> counter.
RANDOMNESS = {
    "derive_generator": "local.randomness.generators",
    "derive_seed": "local.randomness.seeds",
}

#: Program span names (``repro.obs`` telemetry) -> layer.
TELEMETRY_LAYERS = {
    "engine.compile": "engine.compile",
    "engine.compile_construction": "engine.compile",
    "engine.construct": "engine.construct",
    "engine.execute": "engine.execute",
    "engine.chunk": "engine.execute",
    "engine.stream_sample": "engine.execute",
    "stats.sequential_estimate": "stats",
}


class Span:
    """One timed interval: ``covered`` is child time not held in ``children``
    (the aggregated randomness calls made directly under this span)."""

    __slots__ = ("id", "parent", "trace", "name", "layer", "start", "end", "covered", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        trace: str,
        name: str,
        layer: Optional[str],
        start: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.covered = 0.0
        self.attrs = attrs if attrs is not None else {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def record(self, self_seconds: float, epoch: float) -> Dict[str, object]:
        return {
            "trace": self.trace,
            "span": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start": self.start + epoch,
            "end": self.end + epoch,
            "self_s": self_seconds,
            "attrs": self.attrs,
        }


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus child spans minus ``covered``."""
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - children.get(span.id, 0.0) - span.covered for span in spans}


def layer_self_seconds(spans: List[Span]) -> Dict[Optional[str], float]:
    """Self time summed per layer; spans without a layer sum under ``None``."""
    own = self_seconds(spans)
    totals: Dict[Optional[str], float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def write_jsonl(path: Path, spans: List[Span], epoch: float = 0.0) -> None:
    """One JSON object per span; ``epoch`` is added to start and end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    own = self_seconds(spans)
    with path.open("w", encoding="utf8") as handle:
        for span in spans:
            handle.write(json.dumps(span.record(own[span.id], epoch), default=str) + "\n")


class Tracer:
    """The benchmark's own wrappers and spans.

    ``open(name, None, trace=...)`` starts a root span for one request;
    wrapped ``Client`` calls made on the same thread nest under it until
    ``close``.  ``counters`` hold the randomness call counts and
    ``covered`` the randomness seconds per open program span (keyed by the
    span object's ``id``).  Times are ``perf_counter`` readings; ``epoch``
    shifts them to wall-clock time in the JSONL.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {name: 0 for name in RANDOMNESS.values()}
        self.randomness_seconds = 0.0
        self.covered: Dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.epoch = time.time() - time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: Optional[str], trace: Optional[str] = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            trace if trace is not None else (parent.trace if parent is not None else name),
            name,
            layer,
            time.perf_counter(),
            attrs,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def _span_wrapper(self, layer: str, function: Callable) -> Callable:
        name = f"{layer}:{function.__name__}"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            opened = self.open(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(opened)

        return wrapper

    def _randomness_wrapper(self, counter: str, function: Callable) -> Callable:
        # Called over a million times per pass: kept to the fewest lookups.
        local = self._local
        counters = self.counters
        covered = self.covered
        clock = time.perf_counter
        get_recorder = importlib.import_module("repro.obs").get_recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            if getattr(local, "in_randomness", False):
                return function(*args, **kwargs)
            local.in_randomness = True
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                local.in_randomness = False
                self.randomness_seconds += elapsed
                span = getattr(get_recorder(), "current_span", None)
                if span is not None:
                    covered[id(span)] = covered.get(id(span), 0.0) + elapsed

        return wrapper

    @contextmanager
    def randomness_wrappers(self) -> Iterator["Tracer"]:
        """Swap every loaded ``repro`` module's reference to the randomness
        helpers for a counting wrapper; restore the originals on exit."""
        randomness = importlib.import_module("repro.local.randomness")
        replacements: Dict[int, Tuple[Callable, Callable]] = {}
        for name, counter in RANDOMNESS.items():
            original = getattr(randomness, name)
            replacements[id(original)] = (original, self._randomness_wrapper(counter, original))
        patched: List[Tuple[object, str, Callable]] = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
                    patched.append((module, attribute, value))
        try:
            yield self
        finally:
            for module, attribute, original in patched:
                setattr(module, attribute, original)

    @contextmanager
    def client_wrappers(self) -> Iterator["Tracer"]:
        """Record ``Client.submit`` / ``wait`` / ``result`` calls as spans of
        the ``client`` layer (named ``client:<method>``)."""
        client = importlib.import_module("repro.api.client").Client
        originals = {name: getattr(client, name) for name in ("submit", "wait", "result")}
        for name, original in originals.items():
            setattr(client, name, self._span_wrapper("client", original))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(client, name, original)


def from_telemetry(
    roots: Iterable[object], trace_prefix: str, covered: Optional[Dict[int, float]] = None
) -> List[Span]:
    """Flatten the program's span trees (``TraceRecorder.spans``) into spans.

    Every root span starts a new trace; ``session.request`` spans start a
    new trace wherever they sit, so each request's work shares one id.
    ``covered`` maps ``id(program span)`` to randomness seconds under it
    (:attr:`Tracer.covered`).
    """
    spans: List[Span] = []
    ids = itertools.count(1)
    covered = covered or {}

    def visit(record, parent: Optional[Span], trace: str) -> None:
        attrs = dict(record.attributes)
        span_id = next(ids)
        if parent is None or record.name == "session.request":
            trace = f"{trace_prefix}/{span_id}"
            if attrs.get("experiment_id"):
                trace += f"-{attrs['experiment_id']}"
        span = Span(
            span_id,
            parent.id if parent is not None else None,
            trace,
            record.name,
            TELEMETRY_LAYERS.get(record.name),
            record.started_at,
            attrs,
        )
        span.end = span.start + record.wall_seconds
        span.covered = covered.get(id(record), 0.0)
        spans.append(span)
        for child in record.children:
            visit(child, span, trace)

    for root in roots:
        visit(root, None, trace_prefix)
    return spans


def find(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]
