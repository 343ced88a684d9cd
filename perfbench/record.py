"""Record the expected outputs the benchmark checks against (``expected.json``).

Usage (from the repository root)::

    python3 perfbench/record.py [--sweep-seeds 2003 7]

Runs each workload's command once on a fresh trace cache and stores the
digests of the ``repro-report --out-json`` file and of the sampled sweep's
stdout table for each seed given, plus the fidelity check count.  It also
simulates every sweep cell's whole horizon in detail, in a child process,
and stores each cell's exact IPC, which every sweep command's estimates are
checked against.  Run it only when a change is meant to alter the program's
outputs, and say so in the change.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from run import HERE, ROOT, WORK, child_env, compile_sources, launch  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_BENCHMARKS, SWEEP_CONFIGS, SWEEP_HORIZON, WORKLOADS, digest,
)

#: A cell's estimate must lie within this many CI half-widths of its exact IPC.
CI_WIDTHS = 1.5


def run_once(name: str, seed: int, scratch) -> tuple:
    spec = WORKLOADS[name]
    cmd_dir = scratch / f"{name}-{seed}"
    cmd_dir.mkdir()
    (cmd_dir / "bench").mkdir()
    out_json = cmd_dir / "report.json"
    args = spec.argv(seed, out_json, cmd_dir / "bench", cmd_dir / "journal.json")
    sample = launch([str(HERE / "entry.py"), str(cmd_dir / "mark"), spec.module, *args],
                    child_env(cmd_dir / "cache"), cmd_dir, time.monotonic() + 600)
    if sample.status != 0:
        raise SystemExit(f"{name} (seed {seed}) exited {sample.status}")
    return sample, out_json


def exact_ipcs() -> dict[str, float]:
    """Exact IPC of every sweep cell: the horizon after the init skip, in detail.

    Runs in the child that ``--exact-ipc`` starts, with the program on the path.
    """
    from repro.emulator.machine import Machine
    from repro.experiments.sweep import CONFIG_BUILDERS
    from repro.timing.simulator import TimingSimulator
    from repro.workloads.suite import get_workload

    out = {}
    for bench in SWEEP_BENCHMARKS:
        workload = get_workload(bench)
        for name in SWEEP_CONFIGS:
            machine = Machine(workload.build(), dispatch="fast")
            machine.run(workload.skip_hint)
            stats = TimingSimulator(CONFIG_BUILDERS[name]()).run(machine.trace(SWEEP_HORIZON))
            out[f"{bench}/{stats.config_name}"] = stats.ipc
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweep-seeds", type=int, nargs="+", default=[2003, 7])
    parser.add_argument("--exact-ipc", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.exact_ipc:
        print(json.dumps(exact_ipcs()))
        return 0
    scratch = WORK / "tmp" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        compile_sources()
        _, out_json = run_once("report_cold", 0, scratch)
        report = out_json.read_bytes()
        sweeps = {seed: run_once("sampled_sweep", seed, scratch)[0].stdout
                  for seed in args.sweep_seeds}
        exact = subprocess.run(
            [sys.executable, str(HERE / "record.py"), "--exact-ipc"],
            env=child_env(scratch / "exact-cache"), cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=1800,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = {
        "report_json": digest(report),
        "report_checks": len(json.loads(report)["checks"]),
        "sweep_exact_ipc": json.loads(exact.stdout.splitlines()[-1]),
        "sweep_ci_widths": CI_WIDTHS,
        "sweep_stdout": {str(seed): digest(out) for seed, out in sweeps.items()},
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(json.dumps(expected, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
