"""gshare direction predictor (McFarling), paper Table 2: 64k entries.

A global history register is XORed with the branch PC to index a table
of 2-bit saturating counters.  The paper uses a "very large 64k-entry
gshare" for the Figure 6 characterization and the Table 2 machine.
"""

from __future__ import annotations


class GsharePredictor:
    """2-bit-counter gshare with *entries* counters (power of two)."""

    def __init__(self, entries: int = 64 * 1024, history_bits: int | None = None) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.history_bits = self.index_bits if history_bits is None else history_bits
        self.index_mask = entries - 1
        self.history_mask = (1 << self.history_bits) - 1
        self.history = 0
        # Counters start weakly taken (2), the usual initialization.
        self.table = bytearray([2] * entries)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at *pc*."""
        return self.table[((pc >> 2) ^ self.history) & self.index_mask] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Train on the resolved outcome; returns whether the prediction was correct.

        The counter is updated and the outcome is shifted into the
        global history (speculative history update is not modeled; the
        characterization and timing model train at resolution).  The
        warm variant of the block compiler inlines this method
        (:meth:`repro.emulator.blocks.BlockEngine._codegen`).
        """
        history = self.history
        index = ((pc >> 2) ^ history) & self.index_mask
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        elif counter:
            self.table[index] = counter - 1
        self.history = ((history << 1) | taken) & self.history_mask
        return (counter >= 2) == taken
