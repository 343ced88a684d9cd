"""Guest-program profiling: where do *guest* retirements and cycles go?

The metrics layer answers "how fast was the run"; this module answers
"which guest code was hot".  A :class:`GuestProfileCollector` holds
per-benchmark PC histograms:

* **retired counts** have one producer, the collected trace:
  :func:`profile_from_records` counts a trace's ``pc`` column wherever
  the experiment layer obtains a trace — once per emulated or
  disk-cached collection, once per served prefix, and once per sampled
  window for the lead config and for each rider.  The emulator never
  reads the collector, so counts cannot depend on the dispatch tier,
  and a collection that fails counts nothing;
* the **timing simulator** attributes each commit-to-commit cycle
  delta to the committing PC, split across the CPI components with the
  same clamped waterfall the ``SimStats`` stack uses
  (:func:`repro.obs.attribution.split_claims`), so per-line cycle
  stacks sum exactly to the run's total cycles.

Every retirement is counted.  Profiles merge commutatively — per-PC
sums of non-negative counts — so ``--jobs`` sweep workers drain their
collector into the reply payload and the orchestrator ingests them in
any order, exactly like ``SimStats.merge``.

Like the observability session, the collector lives in the run
context (:mod:`repro.context`) and is **off by default**: every
producer hook is one ``None`` check.
"""

from __future__ import annotations

import json
from collections import Counter
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


class BenchProfile:
    """One benchmark's PC histograms (mutable accumulation buckets)."""

    __slots__ = ("counts", "cycles", "retired", "cycles_total")

    def __init__(self) -> None:
        #: pc → retired instructions.
        self.counts: dict[int, int] = {}
        #: pc → per-component attributed cycles, ``COMPONENT_KEYS`` order.
        self.cycles: dict[int, list[int]] = {}
        #: total retired instructions observed (the sum of counts).
        self.retired = 0
        #: total timing cycles attributed into :attr:`cycles`.
        self.cycles_total = 0


class GuestProfileCollector:
    """The run's guest profiler: the run context's ``collector`` slot
    holds it (:func:`redirected_guest_profile` installs one for a
    scope)."""

    def __init__(self) -> None:
        self.benchmarks: dict[str, BenchProfile] = {}
        self._current: BenchProfile | None = None

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

    def add_counts(self, counts: dict[int, int], retired: int) -> None:
        """Fold one trace's PC histogram into the active bucket."""
        prof = self.current()
        dst = prof.counts
        for pc, c in counts.items():
            dst[pc] = dst.get(pc, 0) + c
        prof.retired += retired

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
        """Schema-stable payload (all PC keys as strings, sorted).

        Format 1 names a counting mode, a period and a per-benchmark
        sample count; every profile counts each retirement, so they are
        always ``exact``, 1 and 0.
        """
        benches = {}
        for name in sorted(self.benchmarks):
            p = self.benchmarks[name]
            benches[name] = {
                "retired": p.retired,
                "sampled": 0,
                "cycles_total": p.cycles_total,
                "counts": {str(pc): c for pc, c in sorted(p.counts.items())},
                "cycles": {str(pc): list(v) for pc, v in sorted(p.cycles.items())},
            }
        return {
            "format": PROFILE_FORMAT,
            "mode": "exact",
            "period": 1,
            "components": list(COMPONENT_KEYS),
            "benchmarks": benches,
        }

    def drain(self) -> dict:
        """Serialize accumulated buckets and reset them.  Mirrors
        ``Tracer.drain``: a sweep worker
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
        coll = cls()
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
    if payload.get("mode") != "exact":
        problems.append(f"mode is {payload.get('mode')!r}, expected 'exact'")
    if payload.get("period") != 1:
        problems.append(f"period is {payload.get('period')!r}, expected 1")
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
            if isinstance(bench.get("retired"), int):
                total = sum(c for c in counts.values() if isinstance(c, int))
                if total != bench["retired"]:
                    problems.append(
                        f"{where}: counts sum to {total}, retired={bench['retired']}"
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
    """Count a collected trace's retirements into *collector*'s active bucket.

    The only producer of retired counts: *records* is a
    :class:`~repro.emulator.trace.Trace` (a prefix counts only its own
    records) or an iterable of records, and every record counts once
    at its PC.
    """
    trace = as_trace(records)
    collector.add_counts(Counter(islice(trace.pc, len(trace))), len(trace))


# ------------------------------------------------------- active collector

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

    Used around work that must stay out of the profile: Figure 1 times
    its own program, whose cycles would otherwise land in the bucket of
    whichever benchmark began last.
    """
    return redirected_guest_profile(None)


__all__ = [
    "BenchProfile",
    "GuestProfileCollector",
    "PROFILE_FORMAT",
    "SHORTFALL_PC",
    "active_collector",
    "load_profile",
    "profile_delta",
    "profile_from_records",
    "redirected_guest_profile",
    "suspended_guest_profile",
    "validate_profile",
    "write_profile",
]
