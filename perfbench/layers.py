"""Outside-in layer timing for the traced run.

:func:`install` replaces each layer's public entry point with a wrapper
that records one span per call through :class:`repro.obs.tracing.Tracer`,
the program's own span format.  Nothing inside the program changes:

* plain functions are wrapped under the name their caller looks up
  (``trace_cache.load_trace``, ``figure2.characterize_lsq_fast``, ...);
* methods are wrapped on the class (``Machine.run``, ``TimingSimulator.run``);
* generators (``Machine.trace``) are timed per ``next()`` call, so the span
  charges only the time spent producing records, not the consumer's work
  between them; the span's ``busy_s`` argument holds that time.

Spans go to the program's active tracer when one is running (a sweep with
``--trace-spans``, whose spawned workers ship their spans home), and to the
recorder's own tracer otherwise.  Calibration (``suite.skip_hint``) is
opaque: the guest runs inside it count toward ``workloads.calibrate`` and
open no ``emulator.run`` span of their own.
"""

from __future__ import annotations

import functools
import os
import time

from ledger import CATEGORY

CALIBRATE = "workloads.calibrate"


class _Frame:
    __slots__ = ("span", "tracer", "args")

    def __init__(self, span, tracer) -> None:
        self.span = span
        self.tracer = tracer
        self.args: dict = {}


class Recorder:
    """Keeps the stack of open layer spans and records them."""

    def __init__(self) -> None:
        from repro.obs import tracing

        self._tracing = tracing
        self.own = tracing.Tracer(process="perfbench")
        self.stack: list[_Frame] = []

    def _begin(self, layer: str) -> _Frame:
        tracer = self._tracing.active_tracer()
        if tracer is None:  # not ``or``: an empty Tracer is falsy (it has __len__)
            tracer = self.own
        parent = self.stack[-1].span.span_id if self.stack else None
        return _Frame(tracer.begin(layer, category=CATEGORY, parent=parent), tracer)

    def _finish(self, frame: _Frame, **args) -> None:
        frame.tracer.finish(frame.span, **frame.args, **args)

    def inside(self, layer: str) -> _Frame | None:
        for frame in reversed(self.stack):
            if frame.span.name == layer:
                return frame
        return None

    def call(self, layer: str, fn, args, kwargs, describe=None):
        """Run ``fn(*args, **kwargs)`` inside a *layer* span."""
        frame = self._begin(layer)
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.stack.pop()
            self._finish(frame, error=type(exc).__name__)
            raise
        self.stack.pop()
        self._finish(frame, **(describe(result, *args, **kwargs) if describe else {}))
        return result

    def generator(self, layer: str, gen):
        """Re-yield *gen*, charging only the time spent inside its ``next()``."""
        clock = time.perf_counter
        frame = None
        busy = 0.0
        count = 0
        try:
            while True:
                if frame is None:
                    frame = self._begin(layer)
                self.stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += clock() - t0
                    self.stack.pop()
                count += 1
                yield item
        finally:
            gen.close()
            if frame is not None:
                self._finish(frame, busy_s=busy, records=count)


def _wrap(recorder: Recorder, owner, attr: str, layer: str, describe=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, original, args, kwargs, describe)

    setattr(owner, attr, wrapper)


def _npz_size(result, path, *args, **kwargs) -> dict:
    name = os.fspath(path)
    if not name.endswith(".npz"):
        name += ".npz"
    return {"bytes": os.path.getsize(name)}


def _blocks_snapshot() -> dict:
    from repro.emulator import blocks

    s = blocks.stats()
    return {
        "blocks_compiled": s["blocks_compiled"],
        "blocks_compile_s": s["compile_seconds"],
        "blocks_execs": s["block_execs"],
        "blocks_side_exits": s["side_exits"],
    }


def install() -> Recorder:
    """Wrap every layer entry point; returns the recorder holding the spans."""
    from repro.emulator import tracefile
    from repro.emulator.machine import Machine
    from repro.experiments import figure1, figure2, figure4, figure6, report, trace_cache
    from repro.experiments.journal import SweepJournal
    from repro.timing import sampling
    from repro.timing.simulator import TimingSimulator
    from repro.workloads import suite

    rec = Recorder()

    _wrap(rec, suite, "skip_hint", CALIBRATE)
    _wrap(rec, suite, "assemble", "isa.assemble")
    _wrap(rec, figure1, "assemble", "isa.assemble")

    run = Machine.run

    @functools.wraps(run)
    def machine_run(self, *args, **kwargs):
        calibrating = rec.inside(CALIBRATE)
        if calibrating is not None:
            retired = run(self, *args, **kwargs)
            calibrating.args["insts"] = calibrating.args.get("insts", 0) + retired
            return retired
        return rec.call("emulator.run", run, (self, *args), kwargs,
                        lambda retired, *a, **k: {"insts": retired})

    Machine.run = machine_run

    trace = Machine.trace

    @functools.wraps(trace)
    def machine_trace(self, *args, **kwargs):
        return rec.generator("emulator.trace", trace(self, *args, **kwargs))

    Machine.trace = machine_trace

    _wrap(rec, Machine, "run_warm", "emulator.run_warm",
          lambda retired, *a, **k: {"insts": retired, **_blocks_snapshot()})

    _wrap(rec, tracefile, "pack_trace", "tracefile.pack")
    _wrap(rec, trace_cache, "save_trace", "tracefile.save", _npz_size)
    _wrap(rec, trace_cache, "load_trace", "tracefile.load")
    _wrap(rec, tracefile, "unpack_trace", "tracefile.unpack",
          lambda records, *a, **k: {"records": len(records)})

    def describe_sim(stats, sim, trace, *args, **kwargs):
        out = {"config": sim.config.name}
        if hasattr(trace, "__len__"):
            out["records"] = len(trace)
        return out

    _wrap(rec, TimingSimulator, "run", "timing.simulate", describe_sim)
    _wrap(rec, sampling, "sample_benchmark", "sampling.sample",
          lambda result, *a, **k: {"windows": len(result.windows),
                                   "measured": result.measured,
                                   "skipped": result.skipped})

    _wrap(rec, figure2, "characterize_lsq_fast", "characterization.lsq")
    _wrap(rec, figure4, "characterize_tags_fast", "characterization.tags")
    _wrap(rec, figure6, "characterize_branches", "characterization.branches")

    def describe_report(result, fidelity, *args, **kwargs):
        return {"checks": len(fidelity.checks), "failed": len(fidelity.failed)}

    for attr in ("render_markdown", "render_html", "to_dict"):
        _wrap(rec, report.FidelityReport, attr, "report.render", describe_report)

    _wrap(rec, SweepJournal, "flush", "journal.flush")
    return rec
