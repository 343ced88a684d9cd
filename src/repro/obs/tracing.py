"""Sweep-wide distributed tracing: spans across orchestrator, workers, cells.

The supervised sweep orchestrator (:mod:`repro.experiments.supervisor`)
is a small distributed system — an orchestrator process, a pool of
spawned workers, a crash-safe journal — and the run manifest's
``supervisor`` counters alone cannot answer *where the time went*:
which cells straggled, which workers died mid-cell, what a retry storm
cost, what the trace cache actually saved.  This module is the span substrate that
answers those questions, applying the uops.info discipline of
measuring the measurement infrastructure itself:

* a :class:`Span` is one timed operation (``sweep.run``, a cell
  attempt, a journal replay, a trace collection) with a stable
  ``trace_id``/``span_id``/``parent_id`` lineage, the *process* that
  produced it, and a *lane* for rendering;
* a :class:`Tracer` records spans in one process.  The orchestrator
  owns the root; workers run their own tracer, **adopt** the span
  context the orchestrator sends with each task, and ship their
  finished spans back over the existing checksummed result transport,
  where the orchestrator **ingests** them into a single merged
  timeline;
* ``--profile`` ranks the merged spans' names by self time
  (:func:`profile_report`), so one mechanism times the run whether it
  ran in one process or many;
* exports mirror the cycle-event stream's discipline: a JSONL span log
  (one schema-validated object per line, see :func:`validate_span`)
  and a Perfetto-loadable Chrome trace
  (:func:`spans_to_chrome_trace`) with one ``pid`` per process and one
  lane (``tid``) per (process, lane) pair — one lane per worker.

Tracing is **off by default**: the tracer lives in the run context
(:mod:`repro.context`) and every instrumentation point is a single
``None`` check, the same near-zero-overhead contract as the
observability session's.  Wall-clock timestamps use
``time.time()`` so spans from different processes on the same host
merge onto one timeline.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from collections import defaultdict, deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.context import current

#: Span-log schema version (validated line by line, like cycle events).
SPAN_FORMAT = 1

#: Span lifecycle statuses.
RUNNING = "running"      # begun, not yet finished (crash leaves these)
OK = "ok"                # finished successfully
ERROR = "error"          # finished with a failure attached
MARK = "mark"            # zero-duration annotation (an instant)

SPAN_STATUSES = (RUNNING, OK, ERROR, MARK)

#: Required JSONL fields and their types (``float`` accepts ints).
SPAN_SCHEMA = {
    "name": str,
    "category": str,
    "trace_id": str,
    "span_id": str,
    "process": str,
    "start": float,
    "status": str,
}

#: Bound on retained spans per tracer; a sweep emits a handful of spans
#: per cell, so this covers grids far beyond anything the CLI runs.
DEFAULT_SPAN_CAPACITY = 262_144

#: Default process label for the orchestrating process.
ORCHESTRATOR = "orchestrator"


def new_trace_id() -> str:
    """A fresh sweep-wide trace identity."""
    return uuid.uuid4().hex[:16]


def worker_process_label(pid: int | None = None) -> str:
    """Canonical process label for a worker (one Perfetto lane group)."""
    return f"worker-{os.getpid() if pid is None else pid}"


@dataclass
class Span:
    """One timed operation in the sweep timeline."""

    name: str
    category: str
    trace_id: str
    span_id: str
    parent_id: str | None
    process: str
    start: float                  # unix seconds (cross-process clock)
    end: float | None = None
    status: str = RUNNING
    lane: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "category": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "lane": self.lane,
        }
        if self.args:
            out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        validate_span(payload)
        return cls(
            name=payload["name"],
            category=payload["category"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            process=payload["process"],
            start=float(payload["start"]),
            end=None if payload.get("end") is None else float(payload["end"]),
            status=payload["status"],
            lane=int(payload.get("lane", 0)),
            args=dict(payload.get("args", {})),
        )


class Tracer:
    """Per-process span recorder with cross-process context hand-off.

    The orchestrator's tracer is the run context's
    (:func:`start_tracing` / :func:`active_tracer`); worker processes
    build their own, :meth:`adopt` the ``(trace_id, parent_span_id)``
    context that rides with each dispatched task, and :meth:`drain`
    their spans into the result payload for the orchestrator to
    :meth:`ingest`.
    """

    def __init__(
        self,
        process: str = ORCHESTRATOR,
        trace_id: str | None = None,
        capacity: int | None = DEFAULT_SPAN_CAPACITY,
        clock=time.time,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None (unbounded)")
        self.process = process
        self.trace_id = trace_id or new_trace_id()
        self.clock = clock
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.emitted = 0
        #: Implicit parent for spans begun without an explicit one (the
        #: sweep root in the orchestrator, the task span in a worker, or
        #: the innermost open :meth:`span` block).
        self.default_parent: str | None = None
        self._seq = itertools.count(1)

    # ------------------------------------------------------------ recording

    def _new_id(self) -> str:
        return f"{self.process}:{next(self._seq)}"

    def begin(
        self,
        name: str,
        category: str = "span",
        parent: str | None = None,
        lane: int = 0,
        **args,
    ) -> Span:
        """Open a span; it is recorded when :meth:`finish` closes it."""
        return Span(
            name=name,
            category=category,
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent if parent is not None else self.default_parent,
            process=self.process,
            start=self.clock(),
            lane=lane,
            args=dict(args),
        )

    def finish(self, span: Span, status: str = OK, **args) -> Span:
        """Close *span* and append it to the log."""
        span.end = self.clock()
        span.status = status
        if args:
            span.args.update(args)
        self._append(span)
        return span

    def mark(
        self,
        name: str,
        category: str = "mark",
        parent: str | None = None,
        lane: int = 0,
        **args,
    ) -> Span:
        """Record a zero-duration annotation (a Perfetto instant)."""
        span = self.begin(name, category=category, parent=parent, lane=lane, **args)
        span.end = span.start
        span.status = MARK
        self._append(span)
        return span

    def record(
        self,
        name: str,
        category: str = "span",
        start: float | None = None,
        end: float | None = None,
        parent: str | None = None,
        lane: int = 0,
        status: str = OK,
        **args,
    ) -> Span:
        """Record an already-timed span (e.g. a journal replay hit)."""
        now = self.clock()
        span = self.begin(name, category=category, parent=parent, lane=lane, **args)
        span.start = now if start is None else start
        span.end = span.start if end is None else end
        span.status = status
        self._append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "span",
        parent: str | None = None,
        lane: int = 0,
        **args,
    ):
        """Context manager: ``ok`` on success, ``error`` on exception.

        Spans begun inside the block without an explicit parent nest
        under this one, so self times subtract exactly the work inside.
        """
        span = self.begin(name, category=category, parent=parent, lane=lane, **args)
        outer, self.default_parent = self.default_parent, span.span_id
        try:
            yield span
        except BaseException as exc:
            self.finish(span, status=ERROR, error=type(exc).__name__)
            raise
        else:
            self.finish(span)
        finally:
            self.default_parent = outer

    def _append(self, span: Span) -> None:
        self.emitted += 1
        self._spans.append(span)

    # -------------------------------------------------------- cross-process

    def context(self, span: Span | None = None) -> tuple[str, str | None]:
        """The ``(trace_id, parent_span_id)`` context to hand a worker."""
        return (self.trace_id, span.span_id if span is not None else self.default_parent)

    def adopt(self, ctx: tuple[str, str | None] | None) -> None:
        """Join the trace a context names (worker side of the hand-off)."""
        if ctx is None:
            return
        trace_id, parent = ctx
        self.trace_id = trace_id
        self.default_parent = parent

    def drain(self) -> dict:
        """Ship-home payload: the finished spans, then reset.

        The span dicts are plain JSON-compatible objects, so they ride
        inside the supervised pool's pickled (and checksummed) result
        transport without any new wire format.
        """
        payload = {"spans": [span.to_dict() for span in self._spans]}
        self._spans.clear()
        return payload

    def ingest(self, payload: dict | None) -> int:
        """Merge a worker's :meth:`drain` payload into this timeline.

        Malformed span dicts are dropped (counted in the return value's
        complement), never raised — telemetry must not fail a sweep.
        Returns the number of spans accepted.
        """
        if not payload:
            return 0
        accepted = 0
        for obj in payload.get("spans", ()):
            try:
                self._append(Span.from_dict(obj))
                accepted += 1
            except (ValueError, KeyError, TypeError):
                continue
        return accepted

    # --------------------------------------------------------------- access

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def spans(
        self, category: str | None = None, status: str | None = None
    ) -> list[Span]:
        """Recorded spans, optionally filtered."""
        return [
            s
            for s in self._spans
            if (category is None or s.category == category)
            and (status is None or s.status == status)
        ]

    def stats(self) -> dict:
        """Manifest block describing this trace."""
        return {
            "trace_id": self.trace_id,
            "process": self.process,
            "spans": self.emitted,
            "dropped": self.dropped,
            "processes": sorted({s.process for s in self._spans}),
        }


# ----------------------------------------------------------- active tracer

def start_tracing(process: str = ORCHESTRATOR, **kwargs) -> Tracer:
    """Activate a tracer in the run context (replacing any existing one)."""
    tracer = current().tracer = Tracer(process=process, **kwargs)
    return tracer


def end_tracing() -> Tracer | None:
    """Deactivate and return the current tracer."""
    context = current()
    tracer, context.tracer = context.tracer, None
    return tracer


def active_tracer() -> Tracer | None:
    """The current tracer, or ``None`` when tracing is off (default)."""
    return current().tracer


def traced(name: str, category: str = "span", **args):
    """A span of the active tracer, or a no-op context when tracing is
    off; either way ``with`` yields the span (or ``None``)."""
    tracer = current().tracer
    if tracer is None:
        return nullcontext()
    return tracer.span(name, category=category, **args)


def profile_report(spans: Iterable[Span], top_n: int = 10) -> str:
    """``--profile``'s table: span names ranked by self time.

    A span's self time is its duration minus its children's, floored at
    zero (a parent waits while children run in parallel workers).
    Marks, unfinished spans and a sweep's ``cell`` spans are left out:
    a cell span covers, for the timeline, time its task's attempt
    spans already hold.  ``records/s`` divides the ``records`` argument
    of a name's spans (trace records emulated or loaded, instructions
    simulated) by their self time.
    """
    timed = [s for s in spans if s.status in (OK, ERROR) and s.category != "cell"]
    children: dict[str, float] = defaultdict(float)
    for s in timed:
        if s.parent_id is not None:
            children[s.parent_id] += s.duration
    rows: dict[str, list] = {}
    for s in timed:
        row = rows.setdefault(s.name, [0, 0.0, 0])
        row[0] += 1
        row[1] += max(0.0, s.duration - children[s.span_id])
        row[2] += s.args.get("records", 0)
    if not rows:
        return "(no timed spans)"
    total = sum(row[1] for row in rows.values()) or 1e-12
    ranked = sorted(rows.items(), key=lambda item: item[1][1], reverse=True)[:top_n]
    lines = [
        f"=== Profile: top {len(ranked)} of {len(rows)} span names by self time ===",
        f"{'span':<40} {'calls':>7} {'seconds':>9} {'share':>7} {'records/s':>12}",
    ]
    for name, (calls, seconds, records) in ranked:
        rate = f"{records / seconds:,.0f}" if records and seconds > 0 else "-"
        lines.append(
            f"{name:<40} {calls:>7} {seconds:>9.3f} {seconds / total:>6.1%} {rate:>12}"
        )
    lines.append(f"{'total':<40} {'':>7} {total:>9.3f}")
    return "\n".join(lines)


# ------------------------------------------------------------------- JSONL

def validate_span(obj: dict) -> None:
    """Validate one decoded span against :data:`SPAN_SCHEMA`.

    Raises:
        ValueError: missing/ill-typed required field, unknown status,
            a non-numeric/absent-but-required timestamp, an ``end``
            before ``start``, or a mark whose duration is nonzero.
    """
    if not isinstance(obj, dict):
        raise ValueError("span must be a JSON object")
    for key, typ in SPAN_SCHEMA.items():
        if key not in obj:
            raise ValueError(f"span missing required field {key!r}")
        value = obj[key]
        if typ is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"span field {key!r} must be a number, got {value!r}")
        elif not isinstance(value, typ):
            raise ValueError(f"span field {key!r} must be {typ.__name__}, got {value!r}")
    if obj["status"] not in SPAN_STATUSES:
        raise ValueError(f"unknown span status {obj['status']!r}")
    parent = obj.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        raise ValueError("span 'parent_id' must be a string or null")
    end = obj.get("end")
    if end is not None:
        if not isinstance(end, (int, float)) or isinstance(end, bool):
            raise ValueError(f"span 'end' must be a number, got {end!r}")
        if end < obj["start"]:
            raise ValueError("span 'end' precedes 'start'")
        if obj["status"] == MARK and end != obj["start"]:
            raise ValueError("mark spans must have zero duration")
    elif obj["status"] in (OK, ERROR, MARK):
        raise ValueError(f"{obj['status']} span must carry an 'end' timestamp")
    if "lane" in obj and (not isinstance(obj["lane"], int) or isinstance(obj["lane"], bool)):
        raise ValueError("span 'lane' must be an integer")
    if "args" in obj and not isinstance(obj["args"], dict):
        raise ValueError("span 'args' must be an object")


def to_jsonl_lines(spans: Iterable[Span]) -> Iterator[str]:
    for span in spans:
        yield json.dumps(span.to_dict(), sort_keys=True)


def write_spans_jsonl(spans: Iterable[Span], path: str | Path) -> int:
    """Write one span per line (sorted by start time); returns the count."""
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    n = 0
    with open(path, "w") as fh:
        for line in to_jsonl_lines(ordered):
            fh.write(line + "\n")
            n += 1
    return n


def validate_spans_file(path: str | Path) -> int:
    """Validate every line of a span JSONL file; returns the line count."""
    n = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                validate_span(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            n += 1
    return n


def load_spans_jsonl(path: str | Path) -> list[Span]:
    """Read a span log back into :class:`Span` objects (validated)."""
    spans = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------- Chrome trace

def spans_to_chrome_trace(spans: Iterable[Span]) -> dict:
    """Convert spans to Chrome trace-event format for Perfetto.

    Processes map to ``pid`` rows (orchestrator first, then workers in
    name order) and lanes to ``tid`` rows keyed by **(process, lane)**
    — so events from different processes can never collide on a lane,
    and every worker renders as its own track group.  Completed spans
    become ``"X"`` duration slices, marks become ``"i"`` instants, and
    spans a crash left unfinished become slices flagged
    ``unfinished: true`` that extend to the end of the trace.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    processes = sorted(
        {s.process for s in spans}, key=lambda p: (p != ORCHESTRATOR, p)
    )
    pid_of = {proc: i + 1 for i, proc in enumerate(processes)}
    t0 = min(s.start for s in spans)
    t_end = max(s.end if s.end is not None else s.start for s in spans)

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 1)

    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": proc},
        }
        for proc, pid in pid_of.items()
    ]
    seen_lanes: set[tuple[str, int]] = set()
    for s in spans:
        pid = pid_of[s.process]
        tid = s.lane + 1
        if (s.process, s.lane) not in seen_lanes:
            seen_lanes.add((s.process, s.lane))
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"lane {s.lane}"},
                }
            )
        args = {"span_id": s.span_id, "status": s.status, **s.args}
        if s.parent_id:
            args["parent_id"] = s.parent_id
        if s.status == MARK:
            trace_events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "i",
                    "s": "t",
                    "ts": us(s.start),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        end = s.end
        if end is None:
            end = t_end
            args["unfinished"] = True
        trace_events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": us(s.start),
                "dur": max(round((end - s.start) * 1e6, 1), 1.0),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "span_format": SPAN_FORMAT,
            "time_unit": "1 ts = 1 microsecond since trace start",
            "trace_id": spans[0].trace_id,
        },
    }


def write_span_chrome_trace(spans: Iterable[Span], path: str | Path) -> int:
    """Write a Perfetto-loadable span timeline; returns the event count."""
    payload = spans_to_chrome_trace(spans)
    # sort_keys: byte-stable output so trace diffs and golden files only
    # change when the spans do.
    Path(path).write_text(json.dumps(payload, sort_keys=True))
    return len(payload["traceEvents"])


__all__ = [
    "DEFAULT_SPAN_CAPACITY",
    "ERROR",
    "MARK",
    "OK",
    "ORCHESTRATOR",
    "RUNNING",
    "SPAN_FORMAT",
    "SPAN_SCHEMA",
    "SPAN_STATUSES",
    "Span",
    "Tracer",
    "active_tracer",
    "end_tracing",
    "load_spans_jsonl",
    "new_trace_id",
    "profile_report",
    "spans_to_chrome_trace",
    "start_tracing",
    "to_jsonl_lines",
    "traced",
    "validate_span",
    "validate_spans_file",
    "worker_process_label",
    "write_span_chrome_trace",
    "write_spans_jsonl",
]
