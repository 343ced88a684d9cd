"""Figure 6 and §5.3: early branch misprediction detection.

Runs the Table 2 front end (64k gshare) over a trace and, for every
conditional-branch misprediction, records how many low-order operand
bits must be examined before the misprediction is detectable.  Also
collects the §5.3 statistics: the fraction of dynamic branches and of
mispredictions contributed by ``beq``/``bne`` (the early-resolvable
types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.branch.early import ALL_BITS, bits_to_detect_mispredict
from repro.branch.gshare import GsharePredictor
from repro.emulator.trace import as_trace


@dataclass
class BranchCharacterization:
    """Cumulative-detection curve for one benchmark (one Figure 6 line)."""

    benchmark: str = ""
    branches: int = 0
    mispredictions: int = 0
    eq_type_branches: int = 0         # dynamic beq/bne
    eq_type_mispredictions: int = 0
    #: histogram: bits needed (1..32) -> misprediction count.
    needed_bits: dict[int, int] = field(default_factory=dict)

    def detected_fraction(self, bits: int) -> float:
        """Fraction of all mispredictions detectable with the low
        *bits* operand bits (one point of a Figure 6 curve)."""
        if not self.mispredictions:
            return 0.0
        detected = sum(n for b, n in self.needed_bits.items() if b <= bits)
        return detected / self.mispredictions

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredictions / self.branches if self.branches else 0.0

    @property
    def eq_type_branch_fraction(self) -> float:
        """Fraction of dynamic conditional branches that are beq/bne
        (paper §5.3: 61% on average)."""
        return self.eq_type_branches / self.branches if self.branches else 0.0

    @property
    def eq_type_mispredict_fraction(self) -> float:
        """Fraction of mispredictions on beq/bne (paper: 48% average)."""
        return self.eq_type_mispredictions / self.mispredictions if self.mispredictions else 0.0


def characterize_branches(
    trace,
    benchmark: str = "",
    gshare_entries: int = 64 * 1024,
    warmup: int = 0,
) -> BranchCharacterization:
    """Run the Figure 6 study over *trace* (a
    :class:`~repro.emulator.trace.Trace`, read by column, or records).

    The first *warmup* instructions train the predictor without being
    counted (cold-start control, as the paper's long runs amortize).
    """
    trace = as_trace(trace)
    predictor = GsharePredictor(gshare_entries)
    result = BranchCharacterization(benchmark=benchmark)
    branch = [inst.mnemonic if inst.is_branch else None for inst in trace.statics]
    pcs = trace.pc
    taken = trace.taken
    for i, s in enumerate(islice(trace.static, len(trace))):
        m = branch[s]
        if m is None:
            continue
        pc = pcs[i]
        actual = taken[i]
        predicted = predictor.predict(pc)
        predictor.update(pc, actual)
        if i < warmup:
            continue
        result.branches += 1
        is_eq_type = m in ("beq", "bne")
        if is_eq_type:
            result.eq_type_branches += 1
        if predicted == actual:
            continue
        result.mispredictions += 1
        if is_eq_type:
            result.eq_type_mispredictions += 1
        needed = bits_to_detect_mispredict(m, trace.rs_val[i], trace.rt_val[i], predicted, actual)
        assert needed is not None
        result.needed_bits[needed] = result.needed_bits.get(needed, 0) + 1
    return result


def average_detected_fraction(results: list[BranchCharacterization], bits: int) -> float:
    """Benchmark-mean of the detection fraction at *bits* (the paper's
    "on average ... after analyzing 8 bits" headline)."""
    vals = [r.detected_fraction(bits) for r in results if r.mispredictions]
    return sum(vals) / len(vals) if vals else 0.0


__all__ = [
    "ALL_BITS",
    "BranchCharacterization",
    "average_detected_fraction",
    "characterize_branches",
]
