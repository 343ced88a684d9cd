"""Execution-driven timing model.

A one-pass timestamp simulator of the paper's 15-stage out-of-order
core (Figure 10, Table 2), supporting atomic, simple-pipelined and
bit-sliced execution stages with the partial-operand techniques as
feature flags.  See DESIGN.md §5 for the modelling decisions and the
known deltas (wrong-path instructions are charged as redirect latency,
not simulated).
"""

from repro.timing.fastpath import (
    TimingDivergence,
    cross_check_timing,
    default_timing_mode,
)
from repro.timing.pipeview import events_to_timeline, render_events, render_timeline
from repro.timing.simulator import TimingSimulator, simulate
from repro.timing.stats import METRIC_CATALOG, SimStats

__all__ = [
    "METRIC_CATALOG",
    "SimStats",
    "TimingDivergence",
    "TimingSimulator",
    "cross_check_timing",
    "default_timing_mode",
    "events_to_timeline",
    "render_events",
    "render_timeline",
    "simulate",
]
