"""Combined front-end predictor: gshare + BTB + RAS (paper Table 2).

Conditional branches take their direction from gshare; their targets
are encoded in the instruction and therefore exact once decoded.
Register-indirect jumps predict through the RAS (returns, i.e.
``jr $ra``) or the BTB (other ``jr``/``jalr``); direct jumps are always
correct.  The predictor is trained at resolution, matching how the
characterization and the timing model consume it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack
from repro.emulator.trace import TraceRecord


def mispredicted(predicted_taken: bool, predicted_target: int, taken: bool, target: int) -> bool:
    """True when fetch would have gone down the wrong path."""
    if predicted_taken != taken:
        return True
    return taken and predicted_target != target


@dataclass(frozen=True)
class PredictionOutcome:
    """Front-end prediction versus architectural outcome for one
    control instruction."""

    predicted_taken: bool
    predicted_target: int
    actual_taken: bool
    actual_target: int

    @property
    def mispredicted(self) -> bool:
        """True when fetch would have gone down the wrong path."""
        return mispredicted(
            self.predicted_taken, self.predicted_target, self.actual_taken, self.actual_target
        )


class FrontEndPredictor:
    """gshare + BTB + RAS, with paper Table 2 defaults."""

    def __init__(
        self,
        gshare_entries: int = 64 * 1024,
        btb_entries: int = 512,
        btb_assoc: int = 4,
        ras_depth: int = 8,
    ) -> None:
        self.gshare = GsharePredictor(gshare_entries)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.ras = ReturnAddressStack(ras_depth)
        self.control_count = 0
        self.cond_count = 0
        self.cond_mispredicts = 0
        self.indirect_mispredicts = 0

    def predict_and_train(self, record: TraceRecord) -> PredictionOutcome:
        """Predict the control instruction in *record*, then train on
        its outcome.  Non-control records raise ``ValueError``."""
        taken = record.taken
        target = record.next_pc
        return PredictionOutcome(*self.predict(record.pc, record.inst, taken, target), taken, target)

    def predict(self, pc: int, inst, taken: bool, target: int) -> tuple[bool, int]:
        """Predict control instruction *inst* at *pc*, then train on its
        outcome (*taken*, successor *target*); returns the predicted
        ``(taken, target)``.  Non-control instructions raise ``ValueError``."""
        self.control_count += 1

        if inst.is_branch:
            predicted_taken = self.gshare.predict(pc)
            predicted_target = pc + 4 + (inst.imm << 2) if predicted_taken else pc + 4
            self.cond_count += 1
            self.gshare.update(pc, taken)
            if mispredicted(predicted_taken, predicted_target, taken, target):
                self.cond_mispredicts += 1
            return predicted_taken, predicted_target

        m = inst.mnemonic
        if m in ("j", "jal"):
            if m == "jal":
                self.ras.push(pc + 4)
            return True, ((pc + 4) & 0xF000_0000) | (inst.target << 2)
        if m == "jalr":
            predicted = self.btb.lookup(pc)
            self.btb.update(pc, target)
            self.ras.push(pc + 4)
        elif m == "jr":
            if inst.rs == 31:  # return: predict through the RAS
                predicted = self.ras.pop()
            else:
                predicted = self.btb.lookup(pc)
                self.btb.update(pc, target)
        else:
            raise ValueError(f"not a control instruction: {m!r}")
        predicted_target = predicted if predicted is not None else pc + 4
        if mispredicted(True, predicted_target, taken, target):
            self.indirect_mispredicts += 1
        return True, predicted_target

    @property
    def direction_accuracy(self) -> float:
        """Conditional-branch direction accuracy (Table 1's metric)."""
        return 1.0 - self.cond_mispredicts / self.cond_count if self.cond_count else 0.0
