"""Guest-program profiling: where do *guest* retirements and cycles go?

The metrics layer answers "how fast was the run"; this module answers
"which guest code was hot".  A :class:`GuestProfileCollector` holds
per-benchmark PC histograms filled in by two producers:

* the **emulator tiers** record retired-instruction counts.  The
  reference tier counts per instruction; the blocks tier counts one
  ``(leader, retired)`` pair per compiled-block execution
  and folds the pairs into per-PC counts at loop exit — the block
  items are static, so an execution that retires ``k`` instructions
  retired exactly the first ``k`` items of the block (side exits
  commit a prefix), and the hot path pays one dict update per *block*
  rather than per instruction;
* the **timing simulator** attributes each commit-to-commit cycle
  delta to the committing PC, split across the CPI components with the
  same clamped waterfall the ``SimStats`` stack uses
  (:func:`repro.obs.attribution.split_claims`), so per-line cycle
  stacks sum exactly to the run's total cycles.

Two modes: ``exact`` (every retirement counted) and ``sample`` (every
*period*-th retirement, counted per instruction on every tier so a
sample lands on the exact PC a trace-cache replay charges).  Profiles
merge commutatively —
per-PC sums of non-negative counts — so ``--jobs`` sweep workers drain
their collector into the reply payload and the orchestrator ingests
them in any order, exactly like ``SimStats.merge``.

Like the observability session, the collector lives in the run
context (:mod:`repro.context`) and is **off by default**: every
producer hook is one ``None`` check, so disabled runs execute the
byte-identical pre-existing loops.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import islice

from repro.context import current
from repro.emulator.trace import as_trace
from repro.obs.attribution import COMPONENT_KEYS, split_claims

#: Schema version of the serialized profile payload.
PROFILE_FORMAT = 1

#: Synthetic "PC" charged with end-of-run cycles no instruction could
#: be blamed for (the ``max(1, ...)`` floor on degenerate windows) —
#: keeps the per-PC stacks summing exactly to the reported cycles.
SHORTFALL_PC = -1

#: Default sampling period (retirements per sample) for ``sample`` mode.
DEFAULT_PERIOD = 1024


def _canon_mode(mode) -> str:
    return "sample" if str(mode).strip().lower() in ("sample", "sampling") else "exact"


class BenchProfile:
    """One benchmark's PC histograms (mutable accumulation buckets)."""

    __slots__ = ("counts", "cycles", "retired", "sampled", "cycles_total")

    def __init__(self) -> None:
        #: pc → retired instructions (exact mode) or samples (sample mode).
        self.counts: dict[int, int] = {}
        #: pc → per-component attributed cycles, ``COMPONENT_KEYS`` order.
        self.cycles: dict[int, list[int]] = {}
        #: total retired instructions observed (exact == sum of counts).
        self.retired = 0
        #: samples taken (sample mode; 0 in exact mode).
        self.sampled = 0
        #: total timing cycles attributed into :attr:`cycles`.
        self.cycles_total = 0


class GuestProfileCollector:
    """The run's guest profiler; activate via :func:`start_guest_profile`."""

    def __init__(self, mode: str = "exact", period: int | None = None) -> None:
        self.mode = _canon_mode(mode)
        if self.mode == "sample":
            self.period = max(1, int(period if period is not None else DEFAULT_PERIOD))
        else:
            self.period = 1
        self.benchmarks: dict[str, BenchProfile] = {}
        self._current: BenchProfile | None = None
        #: Sampling countdown, carried across emulator loop invocations
        #: so the every-N cadence survives block boundaries and restarts.
        self.countdown = self.period

    # ------------------------------------------------------------ buckets

    def begin_benchmark(self, name: str) -> BenchProfile:
        """Direct subsequent counts/cycles at *name*'s bucket."""
        prof = self.benchmarks.get(name)
        if prof is None:
            prof = self.benchmarks[name] = BenchProfile()
        self._current = prof
        return prof

    def current(self) -> BenchProfile:
        """The active bucket (an anonymous ``?`` bucket if none began)."""
        if self._current is None:
            return self.begin_benchmark("?")
        return self._current

    # ---------------------------------------------------------- producers

    def add_counts(self, counts: dict[int, int], retired: int, sampled: int = 0) -> None:
        """Fold one emulator loop's PC histogram into the active bucket."""
        prof = self.current()
        dst = prof.counts
        for pc, c in counts.items():
            dst[pc] = dst.get(pc, 0) + c
        prof.retired += retired
        prof.sampled += sampled

    def add_cycles(self, percpc: dict[int, list[int]], total_cycles: int) -> None:
        """Fold one timing run's per-PC cycle stacks into the active bucket."""
        prof = self.current()
        dst = prof.cycles
        for pc, parts in percpc.items():
            slot = dst.get(pc)
            if slot is None:
                dst[pc] = list(parts)
            else:
                for i, v in enumerate(parts):
                    slot[i] += v
        prof.cycles_total += total_cycles

    # ------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Schema-stable payload (all PC keys as strings, sorted)."""
        benches = {}
        for name in sorted(self.benchmarks):
            p = self.benchmarks[name]
            benches[name] = {
                "retired": p.retired,
                "sampled": p.sampled,
                "cycles_total": p.cycles_total,
                "counts": {str(pc): c for pc, c in sorted(p.counts.items())},
                "cycles": {str(pc): list(v) for pc, v in sorted(p.cycles.items())},
            }
        return {
            "format": PROFILE_FORMAT,
            "mode": self.mode,
            "period": self.period,
            "components": list(COMPONENT_KEYS),
            "benchmarks": benches,
        }

    def drain(self) -> dict:
        """Serialize accumulated buckets and reset them (keeps the
        sampling countdown).  Mirrors ``Tracer.drain``: a sweep worker
        ships the payload back with each reply and the orchestrator
        ingests it, so nothing is double-counted across replies."""
        payload = self.to_dict()
        self.benchmarks = {}
        self._current = None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "GuestProfileCollector":
        problems = validate_profile(payload)
        if problems:
            raise ValueError(f"invalid guest profile: {problems[0]}")
        coll = cls(mode=payload["mode"], period=payload.get("period"))
        coll.ingest(payload)
        return coll

    def ingest(self, payload) -> None:
        """Merge a drained payload (commutative; tolerant of ``None``)."""
        if not isinstance(payload, dict):
            return
        benches = payload.get("benchmarks")
        if not isinstance(benches, dict):
            return
        width = len(COMPONENT_KEYS)
        for name, bench in benches.items():
            if not isinstance(bench, dict):
                continue
            prof = self.benchmarks.get(name)
            if prof is None:
                prof = self.benchmarks[name] = BenchProfile()
            prof.retired += int(bench.get("retired", 0))
            prof.sampled += int(bench.get("sampled", 0))
            prof.cycles_total += int(bench.get("cycles_total", 0))
            for key, c in (bench.get("counts") or {}).items():
                pc = int(key)
                prof.counts[pc] = prof.counts.get(pc, 0) + int(c)
            for key, parts in (bench.get("cycles") or {}).items():
                pc = int(key)
                slot = prof.cycles.get(pc)
                if slot is None:
                    slot = prof.cycles[pc] = [0] * width
                for i, v in enumerate(parts[:width]):
                    slot[i] += int(v)

    def merge(self, other: "GuestProfileCollector") -> "GuestProfileCollector":
        """Merge *other* into self (commutative per-PC sums); returns self."""
        self.ingest(other.to_dict())
        return self


def validate_profile(payload) -> list[str]:
    """Schema problems with a serialized profile (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("format") != PROFILE_FORMAT:
        problems.append(f"format is {payload.get('format')!r}, expected {PROFILE_FORMAT}")
    if payload.get("mode") not in ("exact", "sample"):
        problems.append(f"mode is {payload.get('mode')!r}")
    if not isinstance(payload.get("period"), int) or payload.get("period", 0) < 1:
        problems.append("period is not a positive integer")
    if list(payload.get("components", [])) != list(COMPONENT_KEYS):
        problems.append("components do not match COMPONENT_KEYS")
    benches = payload.get("benchmarks")
    if not isinstance(benches, dict):
        return problems + ["benchmarks is not an object"]
    for name, bench in benches.items():
        where = f"benchmarks[{name!r}]"
        if not isinstance(bench, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in ("retired", "sampled", "cycles_total"):
            v = bench.get(field)
            if not isinstance(v, int) or v < 0:
                problems.append(f"{where}.{field} is not a non-negative integer")
        counts = bench.get("counts")
        if not isinstance(counts, dict):
            problems.append(f"{where}.counts is not an object")
        else:
            for key, c in counts.items():
                if not _is_pc_key(key) or not isinstance(c, int) or c < 0:
                    problems.append(f"{where}.counts[{key!r}] malformed")
                    break
            if payload.get("mode") == "exact" and isinstance(bench.get("retired"), int):
                total = sum(c for c in counts.values() if isinstance(c, int))
                if total != bench["retired"]:
                    problems.append(
                        f"{where}: exact counts sum to {total}, retired={bench['retired']}"
                    )
        cycles = bench.get("cycles")
        if not isinstance(cycles, dict):
            problems.append(f"{where}.cycles is not an object")
        else:
            for key, parts in cycles.items():
                if (
                    not _is_pc_key(key)
                    or not isinstance(parts, list)
                    or len(parts) != len(COMPONENT_KEYS)
                    or any(not isinstance(v, int) or v < 0 for v in parts)
                ):
                    problems.append(f"{where}.cycles[{key!r}] malformed")
                    break
            if isinstance(bench.get("cycles_total"), int):
                total = sum(
                    sum(parts)
                    for parts in cycles.values()
                    if isinstance(parts, list)
                )
                if total != bench["cycles_total"]:
                    problems.append(
                        f"{where}: cycle stacks sum to {total}, "
                        f"cycles_total={bench['cycles_total']}"
                    )
    return problems


def _is_pc_key(key) -> bool:
    try:
        int(key)
    except (TypeError, ValueError):
        return False
    return True


def write_profile(path, collector: GuestProfileCollector) -> None:
    """Serialize *collector* to *path* as deterministic JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(collector.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_profile(path) -> GuestProfileCollector:
    """Load and validate a profile written by :func:`write_profile`."""
    with open(path, encoding="utf-8") as fh:
        return GuestProfileCollector.from_dict(json.load(fh))


# -------------------------------------------------------- producer helpers

def profile_delta(prof: dict, pc: int, delta: int, claims: tuple) -> None:
    """Attribute one commit delta to *pc* in a run-local stack dict.

    Mirrors the exact clamped waterfall ``attribute_delta`` applies to
    ``SimStats`` (via :func:`repro.obs.attribution.split_claims`), so
    the per-PC stacks and the run stack decompose the same cycles.
    """
    parts = split_claims(delta, claims)
    slot = prof.get(pc)
    if slot is None:
        prof[pc] = parts
    else:
        for i, v in enumerate(parts):
            slot[i] += v


def profile_from_records(records, collector: GuestProfileCollector) -> None:
    """Count retirements from an already-collected trace.

    Cache hits skip the emulator entirely, so the machine-loop hooks
    never see the instructions; replaying the cached trace's ``pc``
    column (*records* is a :class:`~repro.emulator.trace.Trace` or an
    iterable of records) through the collector keeps per-PC counts
    identical to a cold collection (including the sampling cadence,
    which consumes the shared countdown).
    """
    trace = as_trace(records)
    pcs = islice(trace.pc, len(trace))
    counts: dict[int, int] = {}
    retired = len(trace)
    sampled = 0
    if collector.mode == "exact":
        for pc in pcs:
            counts[pc] = counts.get(pc, 0) + 1
    else:
        period = collector.period
        left = collector.countdown
        for pc in pcs:
            left -= 1
            if left <= 0:
                counts[pc] = counts.get(pc, 0) + 1
                sampled += 1
                left = period
        collector.countdown = left
    collector.add_counts(counts, retired, sampled)


# ------------------------------------------------------- active collector

def start_guest_profile(
    mode: str = "exact", period: int | None = None
) -> GuestProfileCollector:
    """Activate a new collector in the run context (replacing any existing one)."""
    collector = current().collector = GuestProfileCollector(mode=mode, period=period)
    return collector


def end_guest_profile() -> GuestProfileCollector | None:
    """Deactivate and return the current collector."""
    context = current()
    collector, context.collector = context.collector, None
    return collector


def active_collector() -> GuestProfileCollector | None:
    """The current collector, or ``None`` when guest profiling is off."""
    return current().collector


@contextmanager
def redirected_guest_profile(collector: GuestProfileCollector | None):
    """Temporarily make *collector* the run context's (``None``: off)."""
    context = current()
    saved, context.collector = context.collector, collector
    try:
        yield saved
    finally:
        context.collector = saved


def suspended_guest_profile():
    """Temporarily deactivate the collector (no-op when already off).

    Used around execution that must stay out of the profile — the
    steady-state fast-forward before a traced window, so a cold
    collection counts exactly the instructions a cache hit replays
    through :func:`profile_from_records`.
    """
    return redirected_guest_profile(None)


__all__ = [
    "BenchProfile",
    "DEFAULT_PERIOD",
    "GuestProfileCollector",
    "PROFILE_FORMAT",
    "SHORTFALL_PC",
    "active_collector",
    "end_guest_profile",
    "load_profile",
    "profile_delta",
    "profile_from_records",
    "redirected_guest_profile",
    "start_guest_profile",
    "suspended_guest_profile",
    "validate_profile",
    "write_profile",
]
