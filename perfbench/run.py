"""Repository benchmark: end-to-end runs of the program's entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 25 --trace 0

Each run compiles the sources' bytecode (a no-op once compiled), then
repeats the workload as one closed-loop command (the next command starts
after the previous one exits) until ``--seconds`` have passed and at least
three commands ran, with import-only launches in between for the set-up
time.  The first run of a workload in a checkout first makes one discarded
warm-up command (after filling the warm trace cache, for the warm
workloads), so no timed command pays for a cold page cache.  The run and
its children are pinned to one CPU, and a host-speed probe runs on it four
times a second while a command runs; every time metric is scaled by the
probes (see ``probe``).  Every
command's outputs are checked.  With ``--trace 1`` one more, traced,
command follows and the per-layer metrics replace the end-to-end ones.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Everything a run writes stays under ``.bench_build/perfbench`` in the
checkout: the bytecode cache, the warm trace caches, scratch files and one
result record per run (with host facts) under ``results/``.  The warm
caches and the warm-up markers are keyed on a digest of the program's
sources, so a run on changed sources fills and warms up afresh.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import ledger  # noqa: E402
from workloads import DEFAULT_SAMPLE_SEED, WORKLOADS, Outcome, snapshot  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Hard limit on one benchmark run, under the 180 s a run may take.
RUN_DEADLINE_S = 170.0

#: Least timed commands per run, so the median is of three or more.
MIN_COMMANDS = 3

#: Import-only launches after each timed command, and the least per run.
SETUP_PER_COMMAND = 2
MIN_SETUP_SAMPLES = 12

#: The host-speed probe's time at the reference host speed (about its
#: time on a 2-vCPU Xeon host in a fast spell); see ``probe``.
PROBE_REF_S = 0.011

#: Seconds between host-speed probes while a command runs.  A probe takes
#: about 3% of the CPU at this rate.
PROBE_EVERY_S = 0.25

#: Niceness of every command, above the runner's own.
CHILD_NICE = 10


def spec_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Metric name → unit for the end-to-end and the per-layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest() -> str:
    """Digest of every program source file: names and contents."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def child_env(cache_dir: Path) -> dict[str, str]:
    """The child's environment, with everything the program reads pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        REPRO_TRACE_CACHE=str(cache_dir),
        TMPDIR=str(WORK / "tmp"),
    )
    return env


@dataclass
class Sample:
    """One command: set-up, wall and CPU seconds, peak RSS and exit status,
    and the host-speed probes taken while it ran."""

    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    probes: list[float] = field(default_factory=list)
    stdout: bytes = b""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait until no process of the child's group is left, killing stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            _kill_group(pgid)
        time.sleep(0.02)


def launch(argv: list[str], env: dict[str, str], cmd_dir: Path, deadline: float,
           probing: bool = True) -> Sample:
    """Run one child Python command and measure it from outside.

    The child writes its mark (see ``entry.py``) once the entry module is
    imported.  CPU time and peak RSS come from ``wait4``, which covers the
    child and every descendant it waited for.  While the child runs, a
    host-speed probe runs every ``PROBE_EVERY_S`` on the same CPU (see
    ``probe``); the time the probes take is left out of the set-up and wall
    times, since the child cannot run meanwhile.  A traced command runs
    without *probing*, so that no probe falls inside its spans.
    """
    mark = cmd_dir / "mark"
    out_path = cmd_dir / "stdout"
    with open(out_path, "wb") as out, open(cmd_dir / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
    # A lower priority for the child (and the workers it starts) lets a probe
    # run to its end instead of sharing the CPU with the child.
    try:
        os.setpriority(os.PRIO_PROCESS, proc.pid, CHILD_NICE)
    except ProcessLookupError:  # already gone; wait4 below collects it
        pass
    probes: list[tuple[float, float]] = []  # (start, seconds)
    exited = os.pidfd_open(proc.pid)
    try:
        while not select.select([exited], [], [], PROBE_EVERY_S)[0]:
            if time.monotonic() > deadline:
                _kill_group(proc.pid)
            if probing:
                start = time.monotonic()
                probes.append((start, probe()))
        t_end = time.monotonic()
    finally:
        os.close(exited)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    try:
        t_mark, cpu_mark = (float(x) for x in mark.read_text().split())
    except (OSError, ValueError):
        t_mark, cpu_mark = float("nan"), 0.0

    def probe_time(lo: float, hi: float) -> float:
        return sum(max(0.0, min(s + d, hi) - max(s, lo)) for s, d in probes)

    return Sample(
        setup_s=t_mark - t0 - probe_time(t0, t_mark),
        wall_s=t_end - t_mark - probe_time(t_mark, t_end),
        cpu_s=usage.ru_utime + usage.ru_stime - cpu_mark,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        status=proc.returncode,
        probes=[d for _, d in probes],
        stdout=out_path.read_bytes(),
    )


def probe() -> float:
    """Host speed now: the time of a fixed pure-Python loop.

    The host's speed drifts by 2x and more, in spells from a fraction of a
    second to minutes.  Probes taken while a command runs, on the one CPU
    the run and its children are pinned to, share that drift, so each
    command's times are reported scaled by ``PROBE_REF_S`` over the
    geometric mean of its probes: seconds at the reference host speed.  The
    loop touches a dict of 32k entries so that, like the program, it feels
    contention for the caches; of the loops tried, it tracked the program's
    own speed best.  It is the benchmark's own code, so no program change
    moves it.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        acc += i * i % 7
        table[(i * 2654435761) & 0x7FFF] = acc
    return time.perf_counter() - t0


@dataclass
class Run:
    """One benchmark run of one workload: its commands, samples and checks."""

    workload: str
    seed: int
    scratch: Path
    deadline: float
    #: ``source_digest()`` of the program the run measures.
    sources: str = ""
    outcome: Outcome = field(default_factory=Outcome)
    samples: list[Sample] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    #: Every host-speed probe of the run's launches.
    probes: list[float] = field(default_factory=list)
    count: int = 0

    @property
    def spec(self):
        return WORKLOADS[self.workload]

    @property
    def warm_cache(self) -> Path:
        """The warm trace cache, valid for these sources only."""
        return WORK / "cache" / f"{self.workload}-{self.sources}"

    def _cmd_dir(self) -> Path:
        self.count += 1
        cmd_dir = self.scratch / f"cmd-{self.count}"
        cmd_dir.mkdir()
        return cmd_dir

    def command(self, traced: bool = False, fill: bool = False) -> tuple[Sample, Path]:
        """Run the workload once and check its outputs."""
        spec = self.spec
        cmd_dir = self._cmd_dir()
        bench_dir = self.scratch / "bench-empty"
        bench_dir.mkdir(exist_ok=True)
        cache = self.warm_cache if spec.cache == "warm" else cmd_dir / "cache"
        cache.mkdir(parents=True, exist_ok=True)
        before = snapshot(cache) if spec.cache == "warm" and not fill else None
        out_json = cmd_dir / "report.json"
        args = spec.argv(self.seed, out_json, bench_dir, cmd_dir / "journal.json")
        if traced:
            if spec.kind != "report":
                args += ["--trace-spans", str(cmd_dir / "spans.jsonl")]
            head = [str(HERE / "traced.py"), str(cmd_dir / "mark"),
                    str(cmd_dir / "own.jsonl"), ",".join(spec.calibrate)]
        else:
            head = [str(HERE / "entry.py"), str(cmd_dir / "mark")]
        sample = launch([*head, spec.module, *args], child_env(cache), cmd_dir, self.deadline,
                        probing=not traced)
        self.probes += sample.probes

        side = []
        if before is not None and snapshot(cache) != before:
            side.append("the warm trace cache changed")
        if spec.cache == "none" and any(cache.iterdir()):
            side.append("the sweep wrote into the trace cache")
        if any(bench_dir.iterdir()):
            side.append("the program wrote into the empty --bench-dir")
        result = spec.check(sample.status, sample.stdout, out_json, self.seed, side)
        self.outcome.add(result.attempted, result.failed, "; ".join(result.problems) or None)
        return sample, cmd_dir

    def setup_only(self) -> None:
        """One import-only launch: a set-up sample."""
        cmd_dir = self._cmd_dir()
        sample = launch([str(HERE / "entry.py"), str(cmd_dir / "mark"), self.spec.module,
                         "--import-only"], child_env(cmd_dir / "cache"), cmd_dir, self.deadline)
        if sample.status == 0:
            self.setups.append(sample.setup_s)
        self.probes += sample.probes

    def warm_up(self) -> None:
        """Once per checkout and sources: fill the warm cache (an untimed
        command whose outputs are checked all the same), then one discarded
        command.  Caches and markers of other sources are removed."""
        marker = WORK / "warm" / f"{self.workload}-{self.sources}"
        if marker.exists():
            return
        for stale in (WORK / "cache").glob(f"{self.workload}-*"):
            shutil.rmtree(stale)
        for stale in (WORK / "warm").glob(f"{self.workload}-*"):
            stale.unlink()
        if self.spec.cache == "warm":
            self.command(fill=True)
        sample, _ = self.command()
        if sample.status == 0 and not self.outcome.failed:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text("")


def compile_sources() -> None:
    """Compile the program's bytecode, so no timed import compiles it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=child_env(WORK / "unused"), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )


def host_facts() -> dict:
    """Facts a result is only comparable under: never compare across hosts."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def read_spans(cmd_dir: Path) -> tuple[list[dict], dict]:
    """Spans of a traced command (own and program files) and its facts."""
    spans, facts = [], {}
    for name in ("own.jsonl", "spans.jsonl"):
        path = cmd_dir / name
        if path.exists():
            for line in path.read_text().splitlines():
                obj = json.loads(line)
                if "facts" in obj:
                    facts = obj["facts"]
                else:
                    spans.append(obj)
    return spans, facts


def fact_metrics(facts: dict) -> dict:
    """Per-layer counters the program keeps itself, from a traced command's
    facts (see ``traced.py``): trace-cache and supervisor counters."""
    cache = facts.get("trace_cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    sup = facts.get("supervisor") or {}
    return {
        "trace_cache.hits": hits,
        "trace_cache.misses": misses,
        "trace_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace_cache.corrupt": cache.get("corrupt_entries", 0),
        "supervisor.cells": sup.get("cells_executed", 0),
        "supervisor.retries": sup.get("retries", 0),
        "supervisor.respawns": sup.get("respawns", 0),
    }


def traced_metrics(run: Run, untraced_wall: float, per_layer: dict[str, str]) -> dict:
    """One traced command: its ledger and the per-layer metrics."""
    sample, cmd_dir = run.command(traced=True)
    spans, facts = read_spans(cmd_dir)
    configs = [n for n in per_layer if n.startswith("timing.simulate.") and n.endswith(".s")
               and n not in ("timing.simulate.s", "timing.simulate.other.s")]
    m = ledger.build(spans, sample.wall_s, configs)
    if facts.get("hidden_calibrations"):
        run.outcome.add(1, 1, "calibration ran outside the traced calibrate span")
    m.update(fact_metrics(facts))
    m["import.s"] = sample.setup_s
    m["tracing_overhead.s"] = sample.wall_s - untraced_wall
    m["traced_wall.s"] = sample.wall_s
    return m


def measure(run: Run, seconds: float) -> None:
    """Warm up if needed, then repeat the workload for *seconds* (and
    ``MIN_COMMANDS`` commands at least)."""
    run.warm_up()
    start = time.monotonic()
    while True:
        sample, _ = run.command()
        run.samples.append(sample)
        for _ in range(SETUP_PER_COMMAND):
            run.setup_only()
        now = time.monotonic()
        if now + 3 * sample.wall_s > run.deadline:
            break
        if now - start >= seconds and len(run.samples) >= MIN_COMMANDS:
            break
    while len(run.setups) + len(run.samples) < MIN_SETUP_SAMPLES:
        run.setup_only()
    if not run.probes:  # every launch ended before its first probe
        run.probes.append(probe())


def scaled_medians(run: Run) -> dict[str, float]:
    """The end-to-end metrics: medians over the run, times at the reference
    host speed.  Each command's wall and CPU times are scaled by the probes
    taken while it ran; set-up times, too short for a probe, by all the run's."""
    run_speed = PROBE_REF_S / statistics.geometric_mean(run.probes)

    def speed(sample: Sample) -> float:
        if not sample.probes:
            return run_speed
        return PROBE_REF_S / statistics.geometric_mean(sample.probes)

    return {
        "setup_s": statistics.median(run.setups + [s.setup_s for s in run.samples]) * run_speed,
        "wall_s": statistics.median(s.wall_s * speed(s) for s in run.samples),
        "cpu_s": statistics.median(s.cpu_s * speed(s) for s in run.samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in run.samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED,
                        help="passed to the sampled sweep as --sample-seed; the other "
                        "workloads are fixed paper inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat the timed command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced command and report the per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = spec_metrics()

    # One CPU for the run, its children and its probes: the probe then
    # measures the CPU the commands ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = WORK / "tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    run = Run(args.workload, args.seed, scratch, time.monotonic() + RUN_DEADLINE_S,
              source_digest())
    try:
        compile_sources()
        host = host_facts()
        measure(run, args.seconds)
        medians = scaled_medians(run)
        untraced_wall = statistics.median(s.wall_s for s in run.samples)
        layer = traced_metrics(run, untraced_wall, per_layer) if args.trace else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = per_layer if args.trace else end_to_end
    source = layer if args.trace else medians
    metrics = {name: {"value": float(source.get(name, 0.0)), "unit": unit}
               for name, unit in wanted.items()}
    result = {"correct": run.outcome.failed == 0, "attempted": run.outcome.attempted,
              "failed": run.outcome.failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "problems": list(run.outcome.problems),
        "samples": [{k: v for k, v in vars(s).items() if k != "stdout"} for s in run.samples],
        "setups": run.setups, "probes": run.probes, "medians": medians,
        "layers": layer, "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True))

    for problem in run.outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"{args.workload}: {len(run.samples)} timed command(s), {len(run.setups)} "
          f"import-only launch(es); medians {json.dumps(medians, sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
