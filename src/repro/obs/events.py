"""Bounded cycle-event trace.

The timing simulator emits typed events (fetch, dispatch, per-slice
completion, commit, replay, early LSQ release, PTM way mispredict) into
an :class:`EventTrace` — a ring buffer so long sweeps record the most
recent window at O(1) cost instead of growing without bound.  The same
stream backs three consumers:

* the ASCII pipeline viewer (:func:`repro.timing.pipeview.events_to_timeline`);
* JSONL export (one schema-validated event per line, diffable);
* Chrome trace-event format (:func:`write_chrome_trace`), loadable in
  Perfetto / ``chrome://tracing``: instruction lifetimes as duration
  slices, anomalies (replays, way mispredicts, early releases) as
  instant events, and periodic CPI-stack samples as counter tracks.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: Event kinds, in pipeline order.  Kept as plain strings (not an Enum)
#: so the hot emit path and the JSONL form are the same object.
FETCH = "fetch"
DISPATCH = "dispatch"
SLICE_COMPLETE = "slice_complete"
COMMIT = "commit"
REPLAY = "replay"
EARLY_RELEASE = "early_release"
WAY_MISPREDICT = "way_mispredict"
#: Periodic cumulative CPI-stack sample (args: component → cycles);
#: rendered as a Perfetto counter track.
CPI_SAMPLE = "cpi_sample"

EVENT_KINDS = (
    FETCH, DISPATCH, SLICE_COMPLETE, COMMIT, REPLAY, EARLY_RELEASE, WAY_MISPREDICT,
    CPI_SAMPLE,
)

#: JSONL schema: required fields and their types, optional args mapping.
EVENT_SCHEMA = {
    "kind": str,     # one of EVENT_KINDS
    "cycle": int,    # simulated cycle the event occurred
    "seq": int,      # dynamic instruction sequence number (1-based)
    "pc": int,       # program counter of the instruction
}

#: Default ring capacity used by ``--trace-events`` (bounds sweep memory).
DEFAULT_CAPACITY = 262_144


@dataclass(frozen=True, slots=True)
class CycleEvent:
    """One typed pipeline event."""

    kind: str
    cycle: int
    seq: int
    pc: int
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "cycle": self.cycle, "seq": self.seq, "pc": self.pc}
        if self.args:
            out["args"] = self.args
        return out


class EventTrace:
    """Ring buffer of :class:`CycleEvent`.

    *capacity* ``None`` records everything (the pipeline viewer's mode);
    an integer bounds memory and silently drops the oldest events,
    counted in :attr:`dropped`.

    *first_seq* is the first dynamic sequence number whose events the
    timing loops record: both skip every emission site of an older
    instruction, so a pipeline viewer that shows one late window
    (``record_timeline``, Figure 1) pays for events from that window on
    only.  The stream is then exactly the full stream's events with
    ``seq >= first_seq``.
    """

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY, first_seq: int = 1) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None (unbounded)")
        self.capacity = capacity
        self.first_seq = first_seq
        self._events: deque[CycleEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, kind: str, cycle: int, seq: int, pc: int, args: dict | None = None) -> None:
        self.emitted += 1
        self._events.append(CycleEvent(kind, cycle, seq, pc, args if args is not None else {}))

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CycleEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0


# ------------------------------------------------------------------ JSONL

def to_jsonl_lines(events: Iterable[CycleEvent]) -> Iterator[str]:
    for e in events:
        yield json.dumps(e.to_dict(), sort_keys=True)


def write_jsonl(events: Iterable[CycleEvent], path: str | Path) -> int:
    """Write one event per line; returns the number of lines written."""
    n = 0
    with open(path, "w") as fh:
        for line in to_jsonl_lines(events):
            fh.write(line + "\n")
            n += 1
    return n


def validate_event(obj: dict) -> None:
    """Validate one decoded JSONL event against :data:`EVENT_SCHEMA`.

    Raises:
        ValueError: missing/ill-typed required field, unknown kind, or
            a non-dict ``args``.
    """
    if not isinstance(obj, dict):
        raise ValueError("event must be a JSON object")
    for key, typ in EVENT_SCHEMA.items():
        if key not in obj:
            raise ValueError(f"event missing required field {key!r}")
        if not isinstance(obj[key], typ) or isinstance(obj[key], bool):
            raise ValueError(f"event field {key!r} must be {typ.__name__}, got {obj[key]!r}")
    if obj["kind"] not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {obj['kind']!r}")
    if "args" in obj and not isinstance(obj["args"], dict):
        raise ValueError("event 'args' must be an object")


def validate_jsonl_file(path: str | Path) -> int:
    """Validate every line of a JSONL event file; returns the line count."""
    n = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                validate_event(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            n += 1
    return n


# ----------------------------------------------------------- Chrome trace

def to_chrome_trace(events: Iterable[CycleEvent], lanes: int = 16) -> dict:
    """Convert the event stream to Chrome trace-event format.

    Instruction lifetimes (fetch → commit) become ``"X"`` duration
    slices named by mnemonic, spread over *lanes* virtual threads so
    overlapping instructions render as parallel tracks (the paper's
    Figure 1 view); anomaly events become ``"i"`` instants; CPI-stack
    samples become a ``"C"`` counter track (one series per attribution
    component).  One simulated cycle maps to one microsecond of trace
    time.  Cycle events come from one process (the run's session), so
    everything lands on one ``pid`` row.
    """
    fetches: dict[int, CycleEvent] = {}
    trace_events: list[dict] = []
    for e in events:
        if e.kind == FETCH:
            fetches[e.seq] = e
        elif e.kind == COMMIT:
            start = fetches.pop(e.seq, None)
            begin = start.cycle if start is not None else e.cycle
            name = (start.args.get("mnemonic") if start is not None else None) or "inst"
            trace_events.append(
                {
                    "name": name,
                    "cat": "instruction",
                    "ph": "X",
                    "ts": begin,
                    "dur": max(1, e.cycle - begin),
                    "pid": 1,
                    "tid": 1 + (e.seq % lanes),
                    "args": {"seq": e.seq, "pc": e.pc, **e.args},
                }
            )
        elif e.kind == CPI_SAMPLE:
            trace_events.append(
                {
                    "name": "cpi_stack",
                    "cat": "attribution",
                    "ph": "C",
                    "ts": e.cycle,
                    "pid": 1,
                    "args": dict(e.args),
                }
            )
        elif e.kind in (REPLAY, EARLY_RELEASE, WAY_MISPREDICT):
            trace_events.append(
                {
                    "name": e.kind,
                    "cat": "anomaly",
                    "ph": "i",
                    "s": "t",
                    "ts": e.cycle,
                    "pid": 1,
                    "tid": 1 + (e.seq % lanes),
                    "args": {"seq": e.seq, "pc": e.pc, **e.args},
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "1 ts = 1 simulated cycle"},
    }


def write_chrome_trace(events: Iterable[CycleEvent], path: str | Path, lanes: int = 16) -> int:
    """Write a Perfetto-loadable JSON trace; returns the slice count."""
    payload = to_chrome_trace(events, lanes=lanes)
    # sort_keys: byte-stable output so trace diffs and golden files only
    # change when the events do.
    Path(path).write_text(json.dumps(payload, sort_keys=True))
    return len(payload["traceEvents"])


__all__ = [
    "COMMIT",
    "CPI_SAMPLE",
    "CycleEvent",
    "DEFAULT_CAPACITY",
    "DISPATCH",
    "EARLY_RELEASE",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventTrace",
    "FETCH",
    "REPLAY",
    "SLICE_COMPLETE",
    "WAY_MISPREDICT",
    "to_chrome_trace",
    "to_jsonl_lines",
    "validate_event",
    "validate_jsonl_file",
    "write_chrome_trace",
    "write_jsonl",
]
