"""Per-layer self-time ledger and per-layer metrics from a traced run's spans.

Input is a list of span dicts in the program's JSONL span format
(``repro.obs.tracing``): the benchmark's own spans (category
``perfbench``, see :mod:`layers`) plus, for a sweep, the program's worker
spans.  A span is *charged* its ``busy_s`` argument when it has one (a
generator timed per ``next()``) and its duration otherwise.  A layer's self
time is the sum over its spans of the charged time minus the charged time
of their child spans.  Spans whose parent is not one of the benchmark's
spans are top level; the traced wall minus their charged time is the
``unattributed.s`` row, so the ledger rows sum to the traced wall exactly.

For a sweep, the orchestrator waits while its single worker starts; that
wait, from the ``worker.spawn`` mark to the worker's first
``worker.execute`` span, becomes the ``supervisor.worker_start`` row, less
any orchestrator span inside it.
"""

from __future__ import annotations

from collections import defaultdict

#: Span category that marks the benchmark's own spans in a mixed span log.
CATEGORY = "perfbench"

#: Ledger rows (self-time layers), in outside-in order.  Each row's metric
#: is the layer name plus ``.s``.
LAYERS = (
    "workloads.calibrate",
    "isa.assemble",
    "emulator.run",
    "emulator.trace",
    "emulator.run_warm",
    "tracefile.pack",
    "tracefile.save",
    "tracefile.load",
    "tracefile.unpack",
    "timing.simulate",
    "sampling.sample",
    "characterization.lsq",
    "characterization.tags",
    "characterization.branches",
    "report.render",
    "journal.flush",
    "supervisor.worker_start",
)

WORKER_START = "supervisor.worker_start"


def config_metric(config: str) -> str:
    """Metric name of one timing config's simulate self time."""
    return f"timing.simulate.{config.replace('+', '-')}.s"


def _charged(span: dict) -> float:
    busy = span.get("args", {}).get("busy_s")
    return float(busy) if busy is not None else span["end"] - span["start"]


def _worker_waits(spans: list[dict]) -> list[dict]:
    """Synthetic spans for each worker's start-up, from the program's marks."""
    spawned = {
        f"worker-{s['args']['pid']}": s["start"]
        for s in spans
        if s.get("name") == "worker.spawn" and "pid" in s.get("args", {})
    }
    first_exec: dict[str, float] = {}
    for s in spans:
        if s.get("category") == "worker.execute":
            proc = s["process"]
            first_exec[proc] = min(first_exec.get(proc, s["start"]), s["start"])
    return [
        {"name": WORKER_START, "category": CATEGORY, "span_id": f"{WORKER_START}:{proc}",
         "parent_id": None, "process": "orchestrator", "start": spawned[proc],
         "end": first_exec[proc], "args": {}}
        for proc in sorted(first_exec)
        if proc in spawned and first_exec[proc] >= spawned[proc]
    ]


def self_times(spans: list[dict]):
    """Return (span by id, self time by id, top-level spans, charged time by id).

    Only the benchmark's finished spans and the synthetic worker waits count.
    """
    ours = [s for s in spans if s.get("category") == CATEGORY and s.get("end") is not None]
    waits = _worker_waits(spans)
    by_id = {s["span_id"]: s for s in ours}
    parent = {s["span_id"]: s.get("parent_id") for s in ours}
    # Orchestrator spans that start while it waits for a worker nest in the wait.
    for wait in waits:
        by_id[wait["span_id"]] = wait
        parent[wait["span_id"]] = None
        for s in ours:
            if (s["process"] != wait["process"] or parent[s["span_id"]] in by_id
                    or not wait["start"] <= s["start"] < wait["end"]):
                continue
            parent[s["span_id"]] = wait["span_id"]
    charged = {sid: _charged(s) for sid, s in by_id.items()}
    own = dict(charged)
    top = []
    for sid, s in by_id.items():
        pid = parent[sid]
        if pid in by_id:
            own[pid] -= charged[sid]
        else:
            top.append(s)
    return by_id, own, top, charged


def build(spans: list[dict], wall_s: float, config_metrics=()) -> dict:
    """Ledger rows plus per-layer metrics for one traced run.

    *wall_s* is the traced run's wall (end of set-up to exit).
    *config_metrics* lists the ``timing.simulate.<config>.s`` metrics to
    report; the time of any config not listed goes to
    ``timing.simulate.other.s``.
    """
    by_id, own, top, charged = self_times(spans)

    ledger = {f"{layer}.s": 0.0 for layer in LAYERS}
    for sid, s in by_id.items():
        ledger[f"{s['name']}.s"] = ledger.get(f"{s['name']}.s", 0.0) + own[sid]
    ledger["unattributed.s"] = wall_s - sum(charged[s["span_id"]] for s in top)

    def spans_of(layer):
        return [s for s in by_id.values() if s["name"] == layer]

    def total(layer, key):
        return sum(s.get("args", {}).get(key, 0) for s in spans_of(layer))

    m: dict[str, float] = dict(ledger)
    m["workloads.calibrate.insts"] = total("workloads.calibrate", "insts")
    m["isa.assemble.calls"] = len(spans_of("isa.assemble"))
    m["emulator.run.insts"] = total("emulator.run", "insts")
    m["emulator.trace.records"] = total("emulator.trace", "records")
    m["emulator.run_warm.insts"] = total("emulator.run_warm", "insts")

    # Block-engine counters are cumulative per process: take each process's
    # last snapshot and add the processes up.
    last: dict[str, dict] = {}
    for s in spans_of("emulator.run_warm"):
        if s["process"] not in last or s["end"] >= last[s["process"]]["end"]:
            last[s["process"]] = s
    snaps = [s["args"] for s in last.values()]
    execs = sum(a.get("blocks_execs", 0) for a in snaps)
    m["emulator.blocks.compiled"] = sum(a.get("blocks_compiled", 0) for a in snaps)
    m["emulator.blocks.compile_s"] = sum(a.get("blocks_compile_s", 0.0) for a in snaps)
    m["emulator.blocks.side_exit_rate"] = (
        sum(a.get("blocks_side_exits", 0) for a in snaps) / execs if execs else 0.0
    )

    m["tracefile.bytes"] = total("tracefile.save", "bytes")
    m["tracefile.records"] = total("tracefile.unpack", "records")

    sims = spans_of("timing.simulate")
    # A simulation fed by a generator counts the records its trace span yielded.
    traced = defaultdict(int)
    for s in spans_of("emulator.trace"):
        traced[s.get("parent_id")] += s["args"].get("records", 0)
    records = sum(s["args"].get("records", traced[s["span_id"]]) for s in sims)
    m["timing.simulate.calls"] = len(sims)
    m["timing.simulate.records"] = records
    m["timing.simulate.us_per_record"] = (
        ledger["timing.simulate.s"] / records * 1e6 if records else 0.0
    )
    per_config = dict.fromkeys(config_metrics, 0.0)
    per_config["timing.simulate.other.s"] = 0.0
    for s in sims:
        name = config_metric(s["args"].get("config", "other"))
        key = name if name in per_config else "timing.simulate.other.s"
        per_config[key] += own[s["span_id"]]
    m.update(per_config)

    samples = spans_of("sampling.sample")
    m["sampling.windows"] = total("sampling.sample", "windows")
    m["sampling.measured_insts"] = total("sampling.sample", "measured")
    m["sampling.skipped_insts"] = total("sampling.sample", "skipped")
    sample_ids = {s["span_id"] for s in samples}
    m["sampling.window.s"] = sum(charged[s["span_id"]] for s in sims
                                 if s.get("parent_id") in sample_ids)

    renders = spans_of("report.render")
    final = max(renders, key=lambda s: s["end"])["args"] if renders else {}
    m["report.checks"] = final.get("checks", 0)
    m["report.checks_failed"] = final.get("failed", 0)

    m["journal.flushes"] = len(spans_of("journal.flush"))
    return m
