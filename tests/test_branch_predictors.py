"""gshare, BTB and RAS unit behaviour."""

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack

# ---------------------------------------------------------------- gshare


def test_gshare_learns_always_taken():
    p = GsharePredictor(1024)
    pc = 0x400100
    for _ in range(8):
        p.update(pc, True)
    assert p.predict(pc) is True


def test_gshare_learns_not_taken():
    p = GsharePredictor(1024)
    pc = 0x400100
    for _ in range(8):
        p.update(pc, False)
    assert p.predict(pc) is False


def test_gshare_counters_saturate():
    p = GsharePredictor(64, history_bits=0)
    pc = 0x400000
    for _ in range(100):
        p.update(pc, True)
    # One not-taken outcome must not flip a saturated counter.
    p.update(pc, False)
    assert p.predict(pc) is True


def test_gshare_accuracy_stat():
    """update() reports whether the prediction it trains away was right."""
    p = GsharePredictor(1024)
    correct = 0
    for i in range(100):
        predicted = p.predict(0x400000)
        right = p.update(0x400000, True)
        assert right == predicted
        correct += right
    assert correct > 90


def test_gshare_history_distinguishes_patterns():
    """With history, an alternating branch becomes predictable."""
    p = GsharePredictor(4096)
    pc = 0x400040
    outcome = True
    for _ in range(400):
        p.update(pc, outcome)
        outcome = not outcome
    correct = 0
    for _ in range(100):
        if p.predict(pc) == outcome:
            correct += 1
        p.update(pc, outcome)
        outcome = not outcome
    assert correct > 90


def test_gshare_requires_power_of_two():
    with pytest.raises(ValueError):
        GsharePredictor(1000)


def test_gshare_update_trains_table_and_history():
    """One update moves the indexed counter one step and shifts the
    outcome into the history, masked to its width."""
    p = GsharePredictor(64, history_bits=2)
    p.update(0x10, True)            # index (0x10 >> 2) ^ 0 = 4
    assert p.table[4] == 3 and p.history == 0b1
    p.update(0x10, False)           # index 4 ^ 0b1 = 5
    assert p.table[5] == 1 and p.history == 0b10
    p.update(0x10, True)            # index 4 ^ 0b10 = 6
    assert p.table[6] == 3 and p.history == 0b01


# ------------------------------------------------------------------- BTB


def test_btb_miss_then_hit():
    btb = BranchTargetBuffer(512, 4)
    assert btb.lookup(0x400000) is None
    btb.update(0x400000, 0x400100)
    assert btb.lookup(0x400000) == 0x400100


def test_btb_update_replaces_target():
    btb = BranchTargetBuffer(512, 4)
    btb.update(0x400000, 0x1)
    btb.update(0x400000, 0x2)
    assert btb.lookup(0x400000) == 0x2


def test_btb_lru_within_set():
    btb = BranchTargetBuffer(8, 2)  # 4 sets, 2 ways
    sets = btb.num_sets
    # Three PCs mapping to set 0.
    pcs = [0x400000 + i * 4 * sets for i in range(3)]
    btb.update(pcs[0], 0xA)
    btb.update(pcs[1], 0xB)
    btb.lookup(pcs[0])          # touch A
    btb.update(pcs[2], 0xC)     # evicts B
    assert btb.lookup(pcs[0]) == 0xA
    assert btb.lookup(pcs[1]) is None


def test_btb_geometry_validation():
    with pytest.raises(ValueError):
        BranchTargetBuffer(510, 4)
    with pytest.raises(ValueError):
        BranchTargetBuffer(12, 4)  # 3 sets: not a power of two


def test_btb_hit_rate():
    btb = BranchTargetBuffer(512, 4)
    btb.update(0x400000, 1)
    btb.lookup(0x400000)
    btb.lookup(0x400004)
    assert btb.hit_rate == 0.5


# ------------------------------------------------------------------- RAS


def test_ras_lifo():
    ras = ReturnAddressStack(8)
    ras.push(1)
    ras.push(2)
    assert ras.pop() == 2
    assert ras.pop() == 1
    assert ras.pop() is None


def test_ras_overflow_wraps():
    ras = ReturnAddressStack(2)
    ras.push(1)
    ras.push(2)
    ras.push(3)  # overwrites 1
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None


def test_ras_peek():
    ras = ReturnAddressStack(4)
    assert ras.peek() is None
    ras.push(7)
    assert ras.peek() == 7
    assert len(ras) == 1


def test_ras_depth_validation():
    with pytest.raises(ValueError):
        ReturnAddressStack(0)
