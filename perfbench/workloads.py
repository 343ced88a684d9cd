"""The benchmark's workloads and the checks on their outputs.

Each workload is one closed-loop command through a public entry point of
the program: one client, and the next command starts after the previous one
exits.  Expected outputs live beside this file in ``expected.json``
(regenerate them with ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Cells of the sampled sweep: guests whose default length supports a long
#: horizon, under the ideal machine and four-way bit-slicing.
SWEEP_BENCHMARKS = ("gzip", "mcf")
SWEEP_CONFIGS = ("ideal", "bitslice4")
SWEEP_HORIZON = 1_000_000

#: Seed the program itself defaults to for ``--sample-seed``.
DEFAULT_SAMPLE_SEED = 2003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"report"`` (``repro-report``) or ``"sweep"`` (``repro-experiment
    #: sweep``): selects the command and its output checks.
    kind: str
    #: ``"cold"``: a fresh empty trace cache per command; ``"warm"``: a cache
    #: filled before timing that every command must leave unchanged;
    #: ``"none"``: a cache directory that must stay empty.
    cache: str
    #: Benchmarks whose skip hint the traced run computes up front (only
    #: where the untraced run calibrates them too).
    calibrate: tuple[str, ...] = ()

    @property
    def module(self) -> str:
        """The program entry module the command runs."""
        return "repro.experiments.report" if self.kind == "report" else "repro.experiments.cli"

    def argv(self, seed: int, out: Path, bench_dir: Path, journal: Path) -> list[str]:
        if self.kind == "report":
            return ["--bench-dir", str(bench_dir), "--quiet", "--out-json", str(out)]
        return [
            "sweep", "--sample", "--sample-seed", str(seed), "--journal", str(journal),
            "--jobs", "1", "-b", *SWEEP_BENCHMARKS, "--configs", *SWEEP_CONFIGS,
            "-n", str(SWEEP_HORIZON), "--bench-dir", str(bench_dir),
        ]

    def check(self, status: int, stdout: bytes, out: Path, seed: int, side: list[str]):
        """The command's :class:`Outcome`; *side* lists side effects found wrong."""
        if self.kind == "report":
            return check_report(status, out, side)
        return check_sweep(status, stdout, seed, side)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report_cold",
            "first run or after any workload/assembler/emulator edit: calibration and "
            "skip fast-forward dominate",
            "report", "cold", calibrate=("bzip", "li", "mcf", "twolf"),
        ),
        Workload(
            "report_warm",
            "everyday re-run on a filled trace cache: timing simulation dominates, the "
            "emulator does nothing",
            "report", "warm",
        ),
        Workload(
            "sampled_sweep",
            "sampled sweep: blocks-tier warming, many short timing windows, one spawned "
            "worker and an fsynced journal; no trace cache",
            "sweep", "none",
        ),
    )
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(directory: Path) -> dict[str, tuple[int, str]]:
    """Name → (size, content digest) of every file under *directory*."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            out[str(path.relative_to(directory))] = (len(data), digest(data))
    return out


@dataclass
class Outcome:
    """Operations one command attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: tuple[str, ...] = ()

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems += (problem,)

    def output_check(self, problems: list[str]) -> None:
        """The command's one output check: failed when any problem is listed."""
        self.add(1, 1 if problems else 0, "; ".join(problems) or None)


def check_report(status: int, out_json: Path, side: list[str] = (),
                 expected_digest: str = "") -> Outcome:
    """23 fidelity checks in tolerance plus the byte-exact report JSON.

    *side* lists side effects already found wrong; they fail the output check.
    """
    expected_digest = expected_digest or EXPECTED["report_json"]
    n_checks = EXPECTED["report_checks"]
    outcome = Outcome()
    try:
        data = out_json.read_bytes()
        checks = json.loads(data)["checks"]
    except (OSError, ValueError, KeyError) as exc:
        outcome.add(n_checks, n_checks)
        outcome.output_check([f"report JSON unreadable: {exc}", *side])
        return outcome
    bad = [c["claim"] for c in checks if not c.get("ok")]
    missing = max(0, n_checks - len(checks))
    outcome.add(n_checks, min(n_checks, len(bad) + missing),
                f"checks out of tolerance: {bad}" if bad or missing else None)
    problems = list(side)
    if status != 0 or digest(data) != expected_digest:
        problems.append(f"report JSON digest {digest(data)[:12]} (exit {status})")
    outcome.output_check(problems)
    return outcome


def parse_sweep(stdout: bytes) -> list[list[str]]:
    """Rows of the sampled sweep's stdout table (header and rule removed)."""
    rows = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 7 and cells[0] != "benchmark":
            rows.append(cells)
    return rows


def check_sweep(status: int, stdout: bytes, seed: int, side: list[str] = ()) -> Outcome:
    """One operation per cell, plus the stdout check.

    A cell passes when its IPC is its instructions over its cycles, lies in
    its confidence interval, and lies within ``sweep_ci_widths`` CI
    half-widths of the cell's exact IPC (the whole horizon simulated in
    detail, recorded in ``expected.json``).  That holds for every seed while
    the sampler is right (the farthest of 32 cells over eight seeds was 0.81
    half-widths away), and fails when every estimate shifts, as broken
    functional warming would make them.  The stdout digest is also compared
    where one is recorded for *seed*.
    """
    outcome = Outcome()
    rows = {(r[0], r[1]): r for r in parse_sweep(stdout)}
    widths = EXPECTED["sweep_ci_widths"]
    for cell, exact in EXPECTED["sweep_exact_ipc"].items():
        row = rows.get(tuple(cell.split("/")))
        try:
            insts, cycles = int(row[2]), int(row[3])
            point, lo, hi = float(row[4]), float(row[5]), float(row[6])
            ok = insts > 0 and cycles > 0 and lo <= point <= hi
            ok = ok and abs(point - insts / cycles) <= 0.0006
            ok = ok and abs(point - exact) <= widths * (hi - lo) / 2
        except (TypeError, ValueError):
            ok = False
        outcome.add(1, 0 if ok else 1,
                    None if ok else f"sweep cell {cell}: {row} (exact IPC {exact:.4f})")
    problems = list(side)
    if status != 0:
        problems.append(f"exit {status}")
    recorded = EXPECTED["sweep_stdout"].get(str(seed))
    if recorded is not None and digest(stdout) != recorded:
        problems.append(f"stdout digest {digest(stdout)[:12]} for seed {seed}")
    outcome.output_check(problems)
    return outcome
