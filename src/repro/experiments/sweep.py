"""The ``sweep`` experiment: a supervised, journaled (benchmark × config) grid.

This is the CLI face of :func:`repro.experiments.supervisor.run_sweep`:
pick benchmarks and machine configurations, fan the grid out over
supervised workers, and (with ``--journal``) record every cell
transition crash-safely so ``--resume`` continues an interrupted
campaign without re-executing completed cells.

The rendered table is **deterministic** — canonical (benchmark, config)
order, exact counter values — which is what lets the chaos harness
(``scripts/chaos_sweep.py``) assert that a kill-and-resume run's output
is byte-identical to an uninterrupted one.  Supervision counters
(respawns, retries, resume hits) are *not* part of the table; they go
to stderr and the run manifest, because they legitimately differ
between a calm run and a chaotic one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    MachineConfig,
    baseline_config,
    bitslice_config,
    simple_pipeline_config,
)
from repro.experiments.ascii_plot import render_table
from repro.experiments.runner import DEFAULT_WARMUP, FailureRecord
from repro.experiments.supervisor import SupervisorPolicy, SupervisorReport, run_sweep
from repro.timing.stats import SimStats

#: Machine configurations addressable from ``--configs``.
CONFIG_BUILDERS = {
    "ideal": baseline_config,
    "pipe2": lambda: simple_pipeline_config(2),
    "pipe4": lambda: simple_pipeline_config(4),
    "bitslice2": lambda: bitslice_config(2),
    "bitslice4": lambda: bitslice_config(4),
}

DEFAULT_CONFIGS = ("ideal", "pipe4", "bitslice4")


def parse_configs(names) -> list[MachineConfig]:
    """Resolve ``--configs`` names; raises ``ValueError`` on unknowns."""
    configs = []
    for name in names:
        builder = CONFIG_BUILDERS.get(name)
        if builder is None:
            raise ValueError(
                f"unknown config {name!r}; choose from {', '.join(sorted(CONFIG_BUILDERS))}"
            )
        configs.append(builder())
    return configs


@dataclass
class SweepResult:
    """The grid plus everything the run learned getting it."""

    benchmarks: list[str]
    config_names: list[str]          # display order == request order
    grid: dict[str, dict[str, SimStats]]
    failures: list[FailureRecord] = field(default_factory=list)
    degraded: list[FailureRecord] = field(default_factory=list)
    report: SupervisorReport | None = None

    @property
    def sampled(self) -> bool:
        """True when any cell carries sampling error bars."""
        from repro.timing.sampling import stats_error_bars

        return any(
            stats_error_bars(stats) is not None
            for per in self.grid.values()
            for stats in per.values()
        )

    def rows(self):
        """Table rows; sampled grids grow ``ipc_lo``/``ipc_hi`` columns.

        Exact grids keep the historical five-column shape byte-for-byte
        — the CI columns appear only when a cell actually carries error
        bars, so disabled-mode output (and the chaos harness's
        byte-identity invariant over it) is untouched.
        """
        from repro.timing.sampling import stats_error_bars

        sampled = self.sampled
        out = []
        for name in self.benchmarks:
            per = self.grid.get(name, {})
            for config in self.config_names:
                stats = per.get(config)
                if stats is None:
                    continue
                row = (name, config, stats.instructions, stats.cycles,
                       round(stats.ipc, 4))
                if sampled:
                    bars = stats_error_bars(stats)
                    if bars is None:
                        row += ("", "")
                    else:
                        row += (round(bars[0], 4), round(bars[1], 4))
                out.append(row)
        return out

    def render(self) -> str:
        headers = ("benchmark", "config", "instructions", "cycles", "ipc")
        if self.sampled:
            headers += ("ipc_lo", "ipc_hi")
        return render_table(
            headers,
            self.rows(),
            title="Supervised sweep (benchmark x config)",
        )


def run(
    benchmarks,
    config_names=DEFAULT_CONFIGS,
    max_steps: int = 30_000,
    warmup: int = DEFAULT_WARMUP,
    jobs: int = 1,
    profile: str = "ref",
    journal_path=None,
    resume: bool = False,
    policy: SupervisorPolicy | None = None,
    keep_going: bool = False,
    sampling=None,
) -> SweepResult:
    """Run the supervised sweep experiment.

    *sampling* (a :class:`~repro.timing.sampling.SamplingPlan`) switches
    every cell to statistical sampling — ``max_steps`` becomes the
    sampled horizon and the rendered table grows 95% CI columns.
    """
    config_names = list(config_names)
    configs = parse_configs(config_names)
    grid, failures, degraded, report = run_sweep(
        benchmarks,
        configs,
        max_steps=max_steps,
        warmup=warmup,
        jobs=jobs,
        profile=profile,
        journal_path=journal_path,
        resume=resume,
        policy=policy,
        keep_going=keep_going,
        sampling=sampling,
    )
    return SweepResult(
        benchmarks=list(benchmarks),
        config_names=[c.name for c in configs],
        grid=grid,
        failures=failures,
        degraded=degraded,
        report=report,
    )


__all__ = [
    "CONFIG_BUILDERS",
    "DEFAULT_CONFIGS",
    "SweepResult",
    "parse_configs",
    "run",
]
