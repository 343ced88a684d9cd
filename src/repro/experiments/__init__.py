"""Experiment layer: one module per paper table/figure.

Each experiment module exposes a ``run(...)`` function returning a
result object with ``rows()`` (machine-readable) and ``render()``
(paper-style ASCII) methods.  The shared :mod:`repro.experiments.runner`
collects and caches traces so a full sweep emulates each benchmark only
once.  The ``repro-experiment`` console script (:mod:`.cli`) drives
everything from the command line.
"""

from repro.experiments.runner import collect_trace, sweep_configs

#: Experiment modules, importable as `from repro.experiments import figureN`:
#: figure1 (pipeline overlap), figure2 (LSQ disambiguation), figure4
#: (partial tags), figure6 (early branches), figure11 (IPC), figure12
#: (speedup decomposition), table1 (benchmark characteristics),
#: workload_table (suite validation).  Shared helpers: report (tables),
#: ascii_plot (charts), results_io (JSON + regression diff), cli
#: (console entry point).

__all__ = ["collect_trace", "sweep_configs"]
