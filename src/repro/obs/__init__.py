"""Observability layer: metrics, cycle events, spans, guest profiles, provenance.

The paper's claims are measurements; this package makes every run of
the reproduction produce structured, diffable, provenance-stamped
telemetry (see ``docs/observability.md``):

* :mod:`repro.obs.registry` — hierarchical metrics registry (counters
  and log2 histograms) addressed by dotted name;
* :mod:`repro.obs.events` — bounded ring buffer of typed cycle events
  with JSONL and Chrome/Perfetto trace export;
* :mod:`repro.obs.manifest` — run manifests (config, seed, git SHA,
  package versions) and ``BENCH_<run>.json`` perf snapshots;
* :mod:`repro.obs.session` — the per-driver-run aggregate the CLI's
  ``--metrics-out`` / ``--trace-events`` / ``--profile`` flags activate;
* :mod:`repro.obs.tracing` — sweep-wide distributed spans (orchestrator,
  workers, cells) with cross-process context propagation, merged into a
  single Perfetto timeline plus a schema-validated JSONL span log
  (the CLI's ``--trace-spans`` / ``--live``), and the one timing
  mechanism: the ``--profile`` table ranks span names by self time;
* :mod:`repro.obs.guestprof` — per-PC retirement counts and CPI stacks
  of the guest programs (``--guest-profile``).

The session, the tracer and the guest-profile collector of a run live
in its run context (:mod:`repro.context`) beside the run's counters;
sweep workers inherit one snapshot of it and send one drained delta
home with each reply.
"""

from repro.obs.events import (
    CycleEvent,
    EventTrace,
    validate_event,
    validate_jsonl_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    active_tracer,
    end_tracing,
    spans_to_chrome_trace,
    start_tracing,
    validate_span,
    validate_spans_file,
    write_span_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.manifest import (
    build_manifest,
    load_bench_snapshot,
    validate_bench_snapshot,
    validate_manifest,
    write_bench_snapshot,
)
from repro.obs.registry import Counter, Histogram, MetricsRegistry, validate_metrics_dump
from repro.obs.session import ObsSession, active_session, end_session, start_session
from repro.obs.guestprof import (
    GuestProfileCollector,
    active_collector,
    end_guest_profile,
    load_profile,
    start_guest_profile,
    suspended_guest_profile,
    validate_profile,
    write_profile,
)

__all__ = [
    "Counter",
    "CycleEvent",
    "EventTrace",
    "GuestProfileCollector",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "Span",
    "Tracer",
    "active_collector",
    "active_session",
    "active_tracer",
    "build_manifest",
    "end_guest_profile",
    "end_session",
    "end_tracing",
    "load_bench_snapshot",
    "load_profile",
    "spans_to_chrome_trace",
    "start_guest_profile",
    "start_session",
    "start_tracing",
    "suspended_guest_profile",
    "validate_bench_snapshot",
    "validate_event",
    "validate_jsonl_file",
    "validate_manifest",
    "validate_metrics_dump",
    "validate_profile",
    "validate_span",
    "validate_spans_file",
    "write_bench_snapshot",
    "write_chrome_trace",
    "write_profile",
    "write_jsonl",
    "write_span_chrome_trace",
    "write_spans_jsonl",
]
