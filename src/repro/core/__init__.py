"""Core contribution: bit-sliced operands and the machine configurations.

:mod:`repro.core.slicing` — exact sliced arithmetic (split/join, carry-
propagating per-slice add/sub) used by both the scheduler model and the
property tests.

:mod:`repro.core.config` — machine configurations: the Table 2 baseline,
the Figure 10 pipeline variants, and the feature flags that build up the
Figure 11/12 stacks.
"""

from repro.core.config import (
    CUMULATIVE_TECHNIQUES,
    TABLE2,
    Features,
    MachineConfig,
    baseline_config,
    bitslice_config,
    cumulative_configs,
    simple_pipeline_config,
)
from repro.core.slicing import join_slices, slice_width, sliced_add, sliced_sub, split_value

__all__ = [
    "CUMULATIVE_TECHNIQUES",
    "Features",
    "MachineConfig",
    "TABLE2",
    "baseline_config",
    "bitslice_config",
    "cumulative_configs",
    "join_slices",
    "simple_pipeline_config",
    "slice_width",
    "sliced_add",
    "sliced_sub",
    "split_value",
]
