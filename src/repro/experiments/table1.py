"""Table 1: baseline benchmark characteristics.

For every benchmark: baseline IPC (non-pipelined EX, the paper's base
machine), the fraction of dynamic instructions that are loads, and the
conditional-branch prediction accuracy of the Table 2 front end.

With a :class:`~repro.timing.sampling.SamplingPlan` the table is
regenerated through the statistical-sampling engine instead of full
detailed simulation: each row then carries the IPC 95% confidence
interval and the rendered table grows a ``IPC 95% CI`` column.  The
exact path is untouched — rows without error bars render byte-for-byte
as before.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import baseline_config
from repro.experiments.ascii_plot import render_table
from repro.experiments.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, collect_trace
from repro.timing.simulator import simulate
from repro.workloads import BENCHMARK_NAMES


@dataclass(frozen=True)
class Table1Row:
    benchmark: str
    instructions: int
    ipc: float
    load_fraction: float
    branch_accuracy: float
    #: IPC 95% bootstrap CI — populated only on sampled runs.
    ipc_lo: float | None = None
    ipc_hi: float | None = None

    @property
    def ipc_ci(self) -> tuple[float, float] | None:
        if self.ipc_lo is None or self.ipc_hi is None:
            return None
        return self.ipc_lo, self.ipc_hi


@dataclass
class Table1Result:
    rows_: list[Table1Row]

    def rows(self) -> list[Table1Row]:
        return self.rows_

    @property
    def sampled(self) -> bool:
        """True when any row carries an IPC confidence interval."""
        return any(r.ipc_ci is not None for r in self.rows_)

    def render(self) -> str:
        headers = ["Benchmark", "Simulated Instr", "IPC", "% Loads", "Branch Accuracy"]
        sampled = self.sampled
        if sampled:
            headers.insert(3, "IPC 95% CI")
        rows = []
        for r in self.rows_:
            row = [r.benchmark, r.instructions, f"{r.ipc:.2f}",
                   f"{r.load_fraction:.1%}", f"{r.branch_accuracy:.0%}"]
            if sampled:
                ci = r.ipc_ci
                row.insert(3, f"[{ci[0]:.2f}, {ci[1]:.2f}]" if ci else "")
            rows.append(tuple(row))
        return render_table(
            headers,
            rows,
            title="Table 1: Benchmark Programs Simulated (baseline machine)",
        )


def run(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    profile: str = "ref",
    sampling=None,
    base=None,
) -> Table1Result:
    """Regenerate Table 1 on the baseline (ideal-EX) machine.

    *sampling* (a :class:`~repro.timing.sampling.SamplingPlan`) switches
    every benchmark to the statistical-sampling engine: *instructions*
    becomes the sampled horizon, *warmup* is subsumed by the plan's
    per-window warmup, and each row gains its IPC 95% CI.  Without it,
    *base* (a :class:`~repro.experiments.figure11.Figure11Result` over
    the same benchmarks, budget, warmup and profile) supplies the ideal
    runs that Figure 11 already simulated.
    """
    config = baseline_config()
    rows = []
    if sampling is not None:
        from repro.timing.sampling import sample_benchmark

        for name in benchmarks:
            result = sample_benchmark(name, config, sampling, budget=instructions,
                                      profile=profile)
            stats = result.stats
            rows.append(
                Table1Row(
                    benchmark=name,
                    instructions=stats.instructions,
                    ipc=result.ipc_point,
                    load_fraction=stats.load_fraction,
                    branch_accuracy=stats.branch_accuracy,
                    ipc_lo=result.ipc_lo,
                    ipc_hi=result.ipc_hi,
                )
            )
        return Table1Result(rows)
    for name in benchmarks:
        if base is not None:
            stats = base.ideal[name]
        else:
            trace = collect_trace(name, instructions + warmup, profile=profile)
            stats = simulate(config, trace, warmup=warmup)
        rows.append(
            Table1Row(
                benchmark=name,
                instructions=stats.instructions,
                ipc=stats.ipc,
                load_fraction=stats.load_fraction,
                branch_accuracy=stats.branch_accuracy,
            )
        )
    return Table1Result(rows)
