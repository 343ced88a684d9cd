"""Command-line driver: ``repro-experiment <experiment> [options]``.

Examples::

    repro-experiment table1
    repro-experiment fig2 --benchmarks bzip gcc
    repro-experiment fig11 --instructions 50000 --benchmarks li mcf
    repro-experiment fig6 --chart
    repro-experiment workloads --input-profile test
    repro-experiment all --output results.json
    repro-experiment all --keep-going --timeout 120
    repro-experiment inject --inject 200 -b li
    repro-experiment fig11 -b li --metrics-out m.json --trace-events t.jsonl --profile

Resilience flags:

* ``--keep-going`` — a failing workload becomes a ``FailureRecord`` in
  a partial-results report (with one bounded retry at a reduced
  instruction budget) instead of aborting the sweep; exit status 1
  signals a partial run.
* ``--timeout SECONDS`` — wall-clock watchdog on each benchmark's trace
  collection.
* ``--inject N`` — fault-injection campaign size for the ``inject``
  experiment (seeded; reports detected/masked/silent per fault kind).

Performance flags (see ``docs/performance.md``):

* ``--jobs N`` — worker processes of the ``sweep`` experiment's
  supervised pool (any other experiment exits 2 for ``N > 1``);
* ``--trace-cache DIR`` / ``--no-trace-cache`` — persistent on-disk
  trace cache location (default ``~/.cache/repro-traces``, also
  settable via ``REPRO_TRACE_CACHE``) or opt-out.

Observability flags (see ``docs/observability.md``):

* ``--metrics-out FILE`` — dump the run's metrics registry (with a
  provenance manifest: config, seed, git SHA, package versions);
* ``--trace-events FILE`` — cycle-event JSONL plus a Perfetto-loadable
  Chrome trace sibling;
* ``--trace-spans FILE`` — sweep-wide distributed trace: spans from the
  orchestrator, the workers, and every cell merged into one JSONL span
  log plus a Perfetto-loadable timeline (one lane per worker);
* ``--profile`` — trace the run and print its top-N span names by self
  time (calls, seconds, share, records/s), worker spans included;
* ``--heartbeat SECONDS`` — periodic progress line for long sweeps
  (cells done / in flight / failed);
* ``--live`` — live sweep status line (done/pending/failed, cells/s,
  ETA, active-cell ages) for the ``sweep`` experiment;
* ``--guest-profile`` / ``--guest-profile-out FILE`` — per-PC retired
  counts of every collected trace plus per-PC CPI stacks from the
  timing runs (render with ``repro-profile``).

Any of these also writes a ``BENCH_<run>.json`` perf snapshot (IPC,
host throughput, wall time per benchmark) into ``--bench-dir``.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from dataclasses import asdict
from pathlib import Path

from repro.context import RunContext, activate, current
from repro.experiments import figure1, figure2, figure4, figure6, figure11, figure12, table1, workload_table
from repro.emulator.machine import default_dispatch
from repro.timing.fastpath import default_timing_mode
from repro.experiments import trace_cache
from repro.experiments.runner import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    FailureRecord,
    collect_trace,
    collect_trace_resilient,
    render_failure_report,
)
from repro.obs.guestprof import GuestProfileCollector
from repro.obs.session import ObsSession
from repro.obs.tracing import Tracer
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.suite import PROFILES

EXPERIMENTS = ("table1", "fig1", "fig2", "fig4", "fig6", "fig11", "fig12", "workloads", "inject", "sweep", "all")

#: Default fault-campaign size (also the CI smoke-campaign size).
DEFAULT_FAULTS = 200

#: Default benchmarks for the ``inject`` experiment (kept small so a
#: smoke campaign stays fast).
INJECT_BENCHMARKS = ("li",)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate the tables and figures of 'Exploiting Partial Operand Knowledge' (ICPP 2003).",
        # A prefix of a flag is an error, never that flag: --sample-warm
        # must not silently set --sample-warmup.
        allow_abbrev=False,
    )
    p.add_argument("experiment", choices=EXPERIMENTS, help="which artifact to regenerate")
    p.add_argument(
        "--instructions", "-n", type=int, default=DEFAULT_INSTRUCTIONS,
        help=f"steady-state instructions per benchmark (default {DEFAULT_INSTRUCTIONS})",
    )
    p.add_argument(
        "--benchmarks", "-b", nargs="+", default=None, metavar="NAME",
        help=f"benchmark subset (default: experiment-specific; all = {' '.join(BENCHMARK_NAMES)})",
    )
    p.add_argument(
        "--input-profile", "-p", dest="profile_input", choices=sorted(PROFILES), default="ref",
        help="input footprint profile (SPEC test/train/ref analogue; default ref)",
    )
    p.add_argument(
        "--chart", action="store_true",
        help="also print ASCII charts where the experiment provides them",
    )
    p.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="also save the experiment rows as JSON (regression baseline; atomic write)",
    )
    p.add_argument(
        "--keep-going", "-k", action="store_true",
        help="record failing workloads and continue the sweep (partial results, exit 1)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog per benchmark trace collection",
    )
    p.add_argument(
        "--inject", type=int, default=None, metavar="N",
        help=f"fault-injection campaign size for the 'inject' experiment (default {DEFAULT_FAULTS})",
    )
    p.add_argument(
        "--inject-seed", type=int, default=2003, metavar="SEED",
        help="RNG seed for the fault-injection campaign (default 2003)",
    )
    perf = p.add_argument_group("performance (docs/performance.md)")
    perf.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the 'sweep' experiment (default 1)",
    )
    perf.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="persistent trace-cache directory (default ~/.cache/repro-traces "
             "or $REPRO_TRACE_CACHE)",
    )
    perf.add_argument(
        "--no-trace-cache", action="store_true",
        help="disable the persistent trace cache for this run",
    )
    sweep = p.add_argument_group("supervised sweep (docs/robustness.md)")
    sweep.add_argument(
        "--configs", nargs="+", default=None, metavar="NAME",
        help="machine configs for the 'sweep' experiment (default "
             "ideal pipe4 bitslice4; available: ideal pipe2 pipe4 bitslice2 bitslice4)",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="FILE",
        help="crash-safe sweep journal for the 'sweep' experiment "
             "(atomic + checksummed; makes the run kill-resumable)",
    )
    sweep.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume a journaled sweep: replay completed cells from the "
             "result store, dispatch only the remainder",
    )
    sweep.add_argument(
        "--max-cell-retries", type=int, default=2, metavar="N",
        help="extra attempts per sweep cell before quarantine (default 2)",
    )
    sweep.add_argument(
        "--backoff", type=float, default=0.25, metavar="SECONDS",
        help="base exponential-backoff delay between cell retries (default 0.25)",
    )
    sweep.add_argument(
        "--live", action="store_true",
        help="live sweep status line on stderr (done/pending/failed, "
             "cells/s, ETA, active-cell ages); sweep stdout is unchanged",
    )
    samp = p.add_argument_group("statistical sampling (docs/performance.md)")
    samp.add_argument(
        "--sample", action="store_true",
        help="run 'sweep' cells as SMARTS-style sampled simulation: "
             "blocks-tier functional-warming fast-forward between short "
             "detailed windows, IPC/CPI with bootstrap 95%% CIs "
             "(-n becomes the sampled instruction horizon)",
    )
    samp.add_argument(
        "--sample-window", type=int, default=None, metavar="N",
        help="measured instructions per detailed window (default 500)",
    )
    samp.add_argument(
        "--sample-warmup", type=int, default=None, metavar="N",
        help="detailed-simulated but unmeasured prefix per window (default 200)",
    )
    samp.add_argument(
        "--sample-interval", type=int, default=None, metavar="N",
        help="systematic-sampling period in instructions (default 20000)",
    )
    samp.add_argument(
        "--ci-target", type=float, default=None, metavar="FRAC",
        help="auto-extend each cell until the relative IPC CI half-width "
             "reaches FRAC (e.g. 0.02; default: fixed budget, no extension)",
    )
    samp.add_argument(
        "--sample-seed", type=int, default=None, metavar="SEED",
        help="window-placement + bootstrap RNG seed (default 2003); part "
             "of the journal cell key, so resumes replay bit-identically",
    )
    samp.add_argument(
        "--sample-max-windows", type=int, default=None, metavar="N",
        help="cap on detailed windows per cell, CI extension included (default 512)",
    )
    obs = p.add_argument_group("observability (docs/observability.md)")
    obs.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's metrics registry (+ provenance manifest) as JSON",
    )
    obs.add_argument(
        "--trace-events", default=None, metavar="FILE",
        help="write cycle events as JSONL, plus a Perfetto-loadable "
             "<FILE-stem>.perfetto.json Chrome trace",
    )
    obs.add_argument(
        "--trace-spans", default=None, metavar="FILE",
        help="write the sweep-wide distributed trace: span JSONL plus a "
             "Perfetto-loadable <FILE-stem>.perfetto.json merged timeline "
             "(orchestrator + workers + cells)",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="trace the run and print its top-N span names by self time "
             "(calls, seconds, share, records/s)",
    )
    obs.add_argument(
        "--profile-top", type=int, default=10, metavar="N",
        help="span names shown by --profile (default 10)",
    )
    obs.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="print a progress line at most every SECONDS during long sweeps",
    )
    obs.add_argument(
        "--guest-profile", action="store_true",
        help="profile guest code: per-PC retired counts from each collected "
             "trace plus per-PC CPI stacks from the timing layer",
    )
    obs.add_argument(
        "--guest-profile-out", default=None, metavar="FILE",
        help="write the guest profile as JSON (implies --guest-profile; "
             "feed to repro-profile for reports and flamegraphs)",
    )
    obs.add_argument(
        "--bench-dir", default=".benchmarks", metavar="DIR",
        help="directory for BENCH_<run>.json perf snapshots (default .benchmarks)",
    )
    return p


def _validate_benchmarks(names) -> str | None:
    """Return an error message for the first unknown benchmark name."""
    for name in names or ():
        if name not in BENCHMARK_NAMES:
            close = difflib.get_close_matches(name, BENCHMARK_NAMES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            return (
                f"unknown benchmark {name!r}{hint}; choose from {', '.join(BENCHMARK_NAMES)}"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    n = args.instructions
    prof = args.profile_input
    benches = tuple(args.benchmarks) if args.benchmarks else None
    error = _validate_benchmarks(benches)
    if error:
        print(error, file=sys.stderr)
        return 2

    try:  # a misspelt tier switch fails here, not inside every worker
        default_dispatch()
        default_timing_mode()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.jobs > 1 and args.experiment != "sweep":
        print("--jobs applies to the 'sweep' experiment only", file=sys.stderr)
        return 2
    if args.journal and args.resume:
        print("--journal and --resume are mutually exclusive (resume names the journal)",
              file=sys.stderr)
        return 2
    if args.max_cell_retries < 0:
        print("--max-cell-retries must be >= 0", file=sys.stderr)
        return 2
    sampling_knobs = {
        "--sample-window": args.sample_window,
        "--sample-warmup": args.sample_warmup,
        "--sample-interval": args.sample_interval,
        "--ci-target": args.ci_target,
        "--sample-seed": args.sample_seed,
        "--sample-max-windows": args.sample_max_windows,
    }
    sampling_plan = None
    if args.sample:
        if args.experiment != "sweep":
            print("--sample applies to the 'sweep' experiment only", file=sys.stderr)
            return 2
        from dataclasses import replace as _dc_replace

        from repro.timing.sampling import SamplingPlan

        overrides = {
            field: value
            for field, value in (
                ("window", args.sample_window),
                ("warmup", args.sample_warmup),
                ("interval", args.sample_interval),
                ("ci_target", args.ci_target),
                ("seed", args.sample_seed),
                ("max_windows", args.sample_max_windows),
            )
            if value is not None
        }
        try:
            sampling_plan = _dc_replace(SamplingPlan(), **overrides).validate()
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    elif any(value is not None for value in sampling_knobs.values()):
        set_flags = ", ".join(k for k, v in sampling_knobs.items() if v is not None)
        print(f"{set_flags}: sampling knobs need --sample", file=sys.stderr)
        return 2
    args.sampling_plan = sampling_plan
    obs_on = bool(
        args.metrics_out or args.trace_events or args.profile or args.heartbeat is not None
    )
    guestprof_on = args.guest_profile or bool(args.guest_profile_out)
    context = activate(RunContext(
        session=(
            ObsSession(trace_events=bool(args.trace_events), heartbeat_interval=args.heartbeat)
            if obs_on else None
        ),
        tracer=Tracer() if args.trace_spans or args.profile else None,
        collector=GuestProfileCollector() if guestprof_on else None,
        wall_timeout=args.timeout,
        cache_dir=Path(args.trace_cache).expanduser() if args.trace_cache is not None else None,
        cache_enabled=False if args.no_trace_cache else None,
    ))
    try:
        return _run_experiments(args, n, prof, benches, argv)
    finally:
        # The run's recorders end here; its knobs, counters and sweep
        # report stay set.  Guest profile first (the obs manifest
        # summarizes it), then obs outputs (the manifest reads the
        # tracer's stats), then the spans and the profile table.
        collector, session, tracer = context.collector, context.session, context.tracer
        context.collector = context.session = context.tracer = None
        if collector is not None:
            _guarded_output("guest profile", _write_guest_profile, args, collector)
        if session is not None:
            _guarded_output(
                "observability", _write_obs_outputs, args, session, argv, collector, tracer
            )
        if tracer is not None:
            _guarded_output("tracing", _write_span_outputs, args, tracer)


def _guarded_output(label: str, write, *args) -> None:
    """Run one output writer; its failure never masks the experiment's status."""
    try:
        write(*args)
    except Exception as exc:
        print(f"{label} output failed: {exc}", file=sys.stderr)


def _guest_profile_summary(collector) -> dict | None:
    """Manifest block summarizing an ended guest-profile collector."""
    if collector is None:
        return None
    return {
        "benchmarks": {
            name: {
                "retired": prof.retired,
                "cycles_total": prof.cycles_total,
                "pcs": len(prof.counts),
            }
            for name, prof in sorted(collector.benchmarks.items())
        },
    }


def _write_guest_profile(args, collector) -> None:
    """Persist the guest profile (``--guest-profile-out``)."""
    if args.guest_profile_out:
        from repro.obs.guestprof import write_profile

        out = Path(args.guest_profile_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_profile(out, collector)
        print(
            f"guest profile written to {out} (render with repro-profile)",
            file=sys.stderr,
        )
    else:
        retired = sum(p.retired for p in collector.benchmarks.values())
        print(
            f"guest profile: {len(collector.benchmarks)} benchmark(s), "
            f"{retired} retirements profiled "
            "(use --guest-profile-out FILE to save)",
            file=sys.stderr,
        )


def _write_obs_outputs(args, session, argv, collector, tracer) -> None:
    """Flush the session's telemetry: metrics dump, event trace (JSONL +
    Perfetto), and the BENCH_<run> perf snapshot."""
    import time

    from repro.emulator import blocks
    from repro.harness.atomicio import atomic_write_text
    from repro.obs.manifest import build_manifest, write_bench_snapshot

    config = {
        "experiment": args.experiment,
        "instructions": args.instructions,
        "input_profile": args.profile_input,
        "benchmarks": list(args.benchmarks or ()),
        "keep_going": args.keep_going,
    }
    plan = args.sampling_plan
    if args.experiment == "sweep":
        from repro.experiments.sweep import DEFAULT_CONFIGS

        config["configs"] = list(args.configs or DEFAULT_CONFIGS)
        if plan is not None:
            config["sampling"] = plan.canonical()
    if plan is not None:
        seed = plan.seed
    else:
        seed = args.inject_seed if args.experiment == "inject" else None
    report = current().sweep_report
    manifest = build_manifest(
        config=config,
        seed=seed,
        argv=list(argv) if argv is not None else None,
        extra={
            "trace_cache": trace_cache.stats(),
            "jobs": args.jobs,
            "dispatch": default_dispatch(),
            "compiler": blocks.telemetry(),
            "timing": default_timing_mode(),
            "supervisor": report.to_dict() if report is not None else None,
            "tracing": tracer.stats() if tracer is not None else None,
            "guest_profile": _guest_profile_summary(collector),
        },
    )
    registry = session.finalize_registry()
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out, registry.to_json(manifest))
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_events:
        from repro.obs.events import write_chrome_trace, write_jsonl

        Path(args.trace_events).parent.mkdir(parents=True, exist_ok=True)
        n_events = write_jsonl(session.events, args.trace_events)
        perfetto = Path(args.trace_events).with_suffix(".perfetto.json")
        write_chrome_trace(session.events, perfetto)
        print(
            f"{n_events} cycle events written to {args.trace_events} "
            f"(Perfetto view: {perfetto})",
            file=sys.stderr,
        )
    if session.runs:
        run_id = f"{args.experiment}-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"
        path = write_bench_snapshot(args.bench_dir, run_id, session.bench_records(), manifest)
        print(f"perf snapshot written to {path}", file=sys.stderr)


def _write_span_outputs(args, tracer) -> None:
    """The ``--profile`` table, then the distributed trace: span JSONL +
    merged Perfetto timeline."""
    from repro.obs.tracing import profile_report, write_span_chrome_trace, write_spans_jsonl

    if args.profile:
        print(profile_report(tracer, args.profile_top))
    if not args.trace_spans:
        return
    out = Path(args.trace_spans)
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = list(tracer)
    n_spans = write_spans_jsonl(spans, out)
    perfetto = out.with_suffix(".perfetto.json")
    write_span_chrome_trace(spans, perfetto)
    dropped = f" ({tracer.dropped} dropped by ring bound)" if tracer.dropped else ""
    print(
        f"{n_spans} spans written to {out}{dropped} (Perfetto view: {perfetto})",
        file=sys.stderr,
    )


def _run_experiments(args, n, prof, benches, argv) -> int:
    failures: list[FailureRecord] = []
    degraded: list[FailureRecord] = []
    produced: list[tuple[str, object]] = []

    def emit(name: str, result) -> None:
        print(result.render(), end="\n\n")
        if args.chart and hasattr(result, "render_chart"):
            print(result.render_chart(), end="\n\n")
        produced.append((name, result))

    def guarded(name: str, thunk, show: bool = True):
        """Run one experiment; under --keep-going a crash becomes a record."""
        if not args.keep_going:
            result = thunk()
            if show:
                emit(name, result)
            return result
        try:
            result = thunk()
        except Exception as exc:
            failures.append(
                FailureRecord(benchmark="*", stage=name, error=type(exc).__name__, message=str(exc))
            )
            return None
        if show:
            emit(name, result)
        return result

    # Per-benchmark isolation: pre-collect each workload's trace so a
    # broken/runaway workload is dropped (or degraded) up front instead
    # of killing whichever experiment touches it first; the experiments
    # below are then served from the runner's held traces.  The 'sweep'
    # experiment is excluded: its supervised workers collect
    # (resiliently) inside each cell.
    failed: set[str] = set()
    if args.keep_going and args.experiment not in ("fig1", "inject", "sweep"):
        target = benches or (
            figure2.FIGURE2_BENCHMARKS if args.experiment == "fig2" else BENCHMARK_NAMES
        )
        for name in target:
            trace, record = collect_trace_resilient(name, n + DEFAULT_WARMUP, profile=prof)
            if trace is None:
                failures.append(record)
                failed.add(name)
            elif record is not None:
                degraded.append(record)
        if failed.issuperset(target):
            print(render_failure_report(failures, degraded))
            return 1

    def own(default: tuple[str, ...]) -> tuple[str, ...]:
        """An experiment's benchmarks: the given ones or its own
        default, less any the pre-pass dropped."""
        return tuple(name for name in benches or default if name not in failed)

    if args.experiment in ("table1", "all"):
        guarded("table1", lambda: table1.run(own(BENCHMARK_NAMES), n, profile=prof))
    if args.experiment == "fig1":
        guarded("fig1", figure1.run)
    if args.experiment in ("fig2", "all"):
        guarded("fig2", lambda: figure2.run(own(figure2.FIGURE2_BENCHMARKS), n, profile=prof))
    if args.experiment in ("fig4", "all"):
        guarded("fig4", lambda: figure4.run(n, profile=prof))
    if args.experiment in ("fig6", "all"):
        guarded("fig6", lambda: figure6.run(own(BENCHMARK_NAMES), n, profile=prof))
    if args.experiment in ("fig11", "fig12", "all"):
        # fig12 derives from fig11's sweep; for a fig12-only run the
        # base is computed (guarded) but not printed.
        base = guarded(
            "fig11",
            lambda: figure11.run(own(BENCHMARK_NAMES), n, profile=prof),
            show=args.experiment in ("fig11", "all"),
        )
        if args.experiment in ("fig12", "all") and base is not None:
            guarded("fig12", lambda: figure12.run(base=base))
    if args.experiment in ("workloads", "all"):
        guarded("workloads", lambda: workload_table.run(own(BENCHMARK_NAMES), n, profile=prof))

    if args.experiment == "sweep":
        from repro.experiments import sweep as sweep_mod
        from repro.experiments.supervisor import SupervisorPolicy

        config_names = list(args.configs) if args.configs else list(sweep_mod.DEFAULT_CONFIGS)
        try:
            sweep_mod.parse_configs(config_names)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        progress = None
        if args.live:
            from repro.experiments.progress import SweepProgress

            # Stderr keeps stdout byte-comparable across kill-resume.
            progress = SweepProgress()
        try:
            result = sweep_mod.run(
                benches or BENCHMARK_NAMES,
                config_names,
                max_steps=n,
                jobs=args.jobs,
                profile=prof,
                journal_path=args.resume or args.journal,
                resume=bool(args.resume),
                policy=SupervisorPolicy(
                    max_cell_retries=args.max_cell_retries, backoff=args.backoff
                ),
                keep_going=args.keep_going,
                progress=progress,
                sampling=args.sampling_plan,
            )
        finally:
            if progress is not None:
                progress.close()
        emit("sweep", result)
        if result.report is not None:
            # Supervision counters go to stderr: they legitimately vary
            # between a calm run and a chaotic one, while stdout stays
            # byte-comparable across kill-resume (the chaos invariant).
            print(result.report.render(), file=sys.stderr)
        failures.extend(result.failures)
        degraded.extend(result.degraded)

    campaign_failed = False
    if args.experiment == "inject":
        from repro.harness.faults import CampaignSuite, run_campaign

        n_faults = args.inject if args.inject is not None else DEFAULT_FAULTS
        reports = {}
        for name in benches or INJECT_BENCHMARKS:
            def campaign(name=name):
                trace = collect_trace(name, n, profile=prof)
                return run_campaign(trace, n_faults=n_faults, seed=args.inject_seed)

            if args.keep_going:
                try:
                    reports[name] = campaign()
                except Exception as exc:
                    failures.append(
                        FailureRecord(benchmark=name, stage="inject", error=type(exc).__name__, message=str(exc))
                    )
            else:
                reports[name] = campaign()
        if reports:
            suite = CampaignSuite(reports)
            emit("inject", suite)
            if not suite.clean:
                campaign_failed = True
                print(
                    f"fault campaign FAILED: {suite.silent_total} silent corruption(s)",
                    file=sys.stderr,
                )

    if args.output and produced:
        from repro.experiments.results_io import save_rows

        name, result = produced[-1] if len(produced) == 1 else ("all", produced[-1][1])
        # For multi-experiment runs, save the last result's rows; the
        # per-experiment form is the intended regression unit.
        metadata = {"instructions": n, "profile": prof}
        if args.keep_going:
            metadata["failures"] = [asdict(f) for f in failures]
            metadata["degraded"] = [asdict(d) for d in degraded]
        save_rows(args.output, name, result.rows(), metadata=metadata)
        print(f"rows saved to {args.output}", file=sys.stderr)

    if args.keep_going:
        print(render_failure_report(failures, degraded))
    if campaign_failed or failures:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
