"""Partial-address load–store disambiguation.

The bit-serial early load–store disambiguation of paper §5.1 /
Figure 2: how many low-order address bits a load must compare against
the prior stores in its queue window before its fate is known.
"""

from repro.lsq.disambiguation import (
    FIRST_COMPARE_BIT,
    LSDCategory,
    bits_to_disambiguate,
    classify_disambiguation,
)

__all__ = [
    "FIRST_COMPARE_BIT",
    "LSDCategory",
    "bits_to_disambiguate",
    "classify_disambiguation",
]
