"""Pipeline timeline capture and ASCII rendering.

Reproduces the paper's Figure 1 visually: for a window of instructions,
show when each was fetched, dispatched, when each of its result slices
completed, and when it committed — making the overlap (or serialization)
of dependent instructions visible across machine configurations.

The renderer is a view over the observability layer's cycle-event
stream (:mod:`repro.obs.events`): the simulator emits typed events, and
:func:`events_to_timeline` folds them back into per-instruction
:class:`TimelineEvent` rows that :func:`render_timeline` draws.  The
same stream exports to JSONL and Perfetto, so the ASCII view, the
machine-readable trace and the flame view can never disagree.

Usage::

    sim = TimingSimulator(bitslice_config(2), record_timeline=True)
    sim.run(trace, max_instructions=40)
    print(render_timeline(sim.timeline, limit=20))

``record_timeline`` records every instruction unless *events* is given:
with ``events=EventTrace(capacity=None, first_seq=N)`` both timing loops
skip the emission sites of instructions numbered below ``N``, and the
timeline starts at instruction ``N`` (Figure 1 records only the window
it draws).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.obs.events import COMMIT, DISPATCH, FETCH, SLICE_COMPLETE, CycleEvent


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """Per-instruction pipeline timestamps."""

    seq: int
    pc: int
    mnemonic: str
    text: str
    fetch: int
    dispatch: int
    slice_completions: tuple[int, ...]
    complete: int
    commit: int
    mispredicted: bool = False

    @property
    def latency(self) -> int:
        """Fetch-to-commit latency in cycles."""
        return self.commit - self.fetch


def events_to_timeline(events: Iterable[CycleEvent]) -> list[TimelineEvent]:
    """Fold a cycle-event stream into per-instruction timeline rows.

    Instructions whose lifecycle is only partially present (the ring
    buffer evicted their fetch or their commit has not been emitted)
    are dropped — a bounded trace yields the most recent complete
    window, in sequence order.
    """
    fetch: dict[int, CycleEvent] = {}
    dispatch: dict[int, int] = {}
    slices: dict[int, dict[int, int]] = {}
    commit: dict[int, CycleEvent] = {}
    for e in events:
        if e.kind == FETCH:
            fetch[e.seq] = e
        elif e.kind == DISPATCH:
            dispatch[e.seq] = e.cycle
        elif e.kind == SLICE_COMPLETE:
            slices.setdefault(e.seq, {})[e.args.get("slice", 0)] = e.cycle
        elif e.kind == COMMIT:
            commit[e.seq] = e

    out: list[TimelineEvent] = []
    for seq in sorted(fetch.keys() & commit.keys()):
        f, c = fetch[seq], commit[seq]
        per_slice = slices.get(seq, {})
        completions = tuple(per_slice[k] for k in sorted(per_slice))
        complete = c.args.get("complete", max(completions, default=c.cycle))
        mnemonic = f.args.get("mnemonic", "inst")
        out.append(
            TimelineEvent(
                seq=seq,
                pc=f.pc,
                mnemonic=mnemonic,
                text=f.args.get("text", mnemonic),
                fetch=f.cycle,
                dispatch=dispatch.get(seq, f.cycle),
                slice_completions=completions or (complete,),
                complete=complete,
                commit=c.cycle,
                mispredicted=bool(c.args.get("mispredicted", False)),
            )
        )
    return out


def render_timeline(
    events: list[TimelineEvent],
    limit: int = 24,
    offset: int = 0,
    max_width: int = 100,
) -> str:
    """Render events as one ASCII row per instruction.

    Legend: ``F`` fetch, ``d`` dispatch, digits = completion of that
    result slice, ``*`` full completion, ``C`` commit, ``!`` appended
    to mispredicted control instructions.
    """
    window = events[offset : offset + limit]
    if not window:
        return "(no timeline events)"
    t0 = min(e.fetch for e in window)
    t1 = max(e.commit for e in window)
    span = t1 - t0 + 1
    scale = 1
    if span > max_width:
        scale = (span + max_width - 1) // max_width
        span = (span + scale - 1) // scale

    def col(cycle: int) -> int:
        # Clamp into the row: rounding at the final scaled column (or a
        # caller-constructed event outside [t0, t1]) must never index
        # past span or wrap to a negative index.
        return min(max((cycle - t0) // scale, 0), span - 1)

    # The label gutter is derived once and shared with the header, so
    # the cycle ruler stays aligned for any window — including offsets
    # whose rows have no mispredict flags or >6-digit sequence numbers.
    seq_width = max(6, *(len(str(e.seq)) for e in window))
    label_width = max(len(e.text) for e in window) + 2
    gutter = seq_width + 2 + label_width
    header = " " * gutter + f"cycles {t0}..{t1}" + (f" (1 char = {scale} cycles)" if scale > 1 else "")
    lines = [header]
    for e in window:
        row = ["."] * span
        row[col(e.fetch)] = "F"
        row[col(e.dispatch)] = "d"
        for k, t in enumerate(e.slice_completions):
            row[col(t)] = str(k) if len(e.slice_completions) > 1 else "*"
        if len(e.slice_completions) <= 1:
            row[col(e.complete)] = "*"
        row[col(e.commit)] = "C"
        flag = "!" if e.mispredicted else " "
        lines.append(f"{e.seq:>{seq_width}}{flag} {e.text:<{label_width}}" + "".join(row))
    return "\n".join(lines)


def render_events(
    events: Iterable[CycleEvent],
    limit: int = 24,
    offset: int = 0,
    max_width: int = 100,
) -> str:
    """Render a raw cycle-event stream (ring buffer) directly."""
    return render_timeline(events_to_timeline(events), limit=limit, offset=offset, max_width=max_width)


def summarize_timeline(events: list[TimelineEvent]) -> str:
    """Aggregate latency statistics over a timeline."""
    if not events:
        return "(no timeline events)"
    latencies = sorted(e.latency for e in events)
    n = len(latencies)
    mean = sum(latencies) / n
    return (
        f"{n} instructions; fetch-to-commit latency "
        f"min {latencies[0]}, median {latencies[n // 2]}, "
        f"mean {mean:.1f}, max {latencies[-1]} cycles"
    )


__all__ = [
    "TimelineEvent",
    "events_to_timeline",
    "render_events",
    "render_timeline",
    "summarize_timeline",
]
