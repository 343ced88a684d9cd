"""Seeded fault injection with golden-model cross-checking.

The paper's premise is that a sliced datapath must provably agree with
full-width architectural execution.  This engine actively attacks that
agreement: it flips single bits in (1) instruction operands, (2) slice
results, and (3) serialized trace fields, then cross-checks the sliced
computation (:mod:`repro.core.slicing`) against the full-width
architectural result and classifies every injected fault:

* **detected** — the cross-check (or the trace checksum) observed a
  divergence from the golden model;
* **masked** — the corrupted value is architecturally invisible (e.g. a
  flipped operand bit that an AND with zero annihilates, or flipping
  one of several differing bits under an equality test);
* **silent** — the corruption changed the outcome *and* no check caught
  it.  A correct implementation reports **zero** silent corruptions,
  and the campaign is the executable proof.

Campaigns are fully deterministic given their seed, so a campaign
failure in CI is reproducible bit-for-bit.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from repro.core.slicing import (
    join_slices,
    sliced_add,
    sliced_logic,
    sliced_sub,
    split_value,
)
from repro.harness.errors import TraceCorruption

_M = 0xFFFFFFFF

#: Fault kinds a campaign draws from (with their relative weights).
FAULT_KINDS = ("operand", "slice", "trace")
_KIND_WEIGHTS = (5, 3, 2)

#: Mnemonic → abstract op for two-register sliceable instructions.
_TWO_REG_OPS = {
    "addu": "add", "add": "add", "subu": "sub", "sub": "sub",
    "and": "and", "or": "or", "xor": "xor", "nor": "nor",
    "beq": "eq", "bne": "eq",
}
#: Immediate forms: only the register operand is a fault target.
_IMM_SIGNED_OPS = {"addiu": "add", "addi": "add"}
_IMM_LOGIC_OPS = {"andi": "and", "ori": "or", "xori": "xor"}


@dataclass(frozen=True)
class _Candidate:
    """One sliceable dynamic instruction usable as a fault target."""

    op: str                 # "add" | "sub" | "and" | "or" | "xor" | "nor" | "eq"
    a: int
    b: int
    mutable: tuple[int, ...]  # operand indices a fault may flip (0 = a, 1 = b)
    pc: int


def _full(op: str, a: int, b: int) -> int:
    """Full-width architectural result — the golden model."""
    if op == "add":
        return (a + b) & _M
    if op == "sub":
        return (a - b) & _M
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "nor":
        return ~(a | b) & _M
    if op == "eq":
        return int(a == b)
    raise ValueError(f"unknown op {op!r}")


def _slices(op: str, a: int, b: int, num_slices: int) -> tuple[int, ...]:
    """Per-slice result values of the sliced datapath."""
    if op == "add":
        return sliced_add(a, b, num_slices)[0]
    if op == "sub":
        return sliced_sub(a, b, num_slices)[0]
    return sliced_logic(op, a, b, num_slices)


def _sliced(op: str, a: int, b: int, num_slices: int) -> int:
    """The sliced datapath's full result, reassembled."""
    if op == "eq":
        a_s, b_s = split_value(a, num_slices), split_value(b, num_slices)
        return int(all(x == y for x, y in zip(a_s, b_s)))
    return join_slices(_slices(op, a, b, num_slices))


def candidates(trace) -> list[_Candidate]:
    """Extract every sliceable dynamic instruction from *trace*."""
    out: list[_Candidate] = []
    for r in trace:
        m = r.inst.mnemonic
        if m in _TWO_REG_OPS:
            out.append(_Candidate(_TWO_REG_OPS[m], r.rs_val, r.rt_val, (0, 1), r.pc))
        elif m in _IMM_SIGNED_OPS:
            out.append(_Candidate(_IMM_SIGNED_OPS[m], r.rs_val, r.inst.imm & _M, (0,), r.pc))
        elif m in _IMM_LOGIC_OPS:
            out.append(_Candidate(_IMM_LOGIC_OPS[m], r.rs_val, r.inst.imm & 0xFFFF, (0,), r.pc))
    return out


@dataclass
class KindStats:
    """Outcome counters for one fault kind."""

    injected: int = 0
    detected: int = 0
    masked: int = 0
    silent: int = 0


@dataclass
class CampaignReport:
    """Aggregate outcome of one fault-injection campaign."""

    seed: int
    slice_counts: tuple[int, ...]
    stats: dict[str, KindStats] = field(default_factory=dict)
    silent_examples: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(s.injected for s in self.stats.values())

    @property
    def detected_total(self) -> int:
        return sum(s.detected for s in self.stats.values())

    @property
    def masked_total(self) -> int:
        return sum(s.masked for s in self.stats.values())

    @property
    def silent_total(self) -> int:
        return sum(s.silent for s in self.stats.values())

    @property
    def clean(self) -> bool:
        """True when every fault was detected or architecturally masked."""
        return self.silent_total == 0

    def rows(self) -> list[tuple]:
        out = [
            (kind, s.injected, s.detected, s.masked, s.silent)
            for kind, s in sorted(self.stats.items())
        ]
        out.append(("total", self.total, self.detected_total, self.masked_total, self.silent_total))
        return out

    def render(self) -> str:
        from repro.experiments.ascii_plot import render_table

        table = render_table(
            ["Fault kind", "Injected", "Detected", "Masked", "Silent"],
            self.rows(),
            title=f"Fault-injection campaign (seed {self.seed}, slices {self.slice_counts})",
        )
        verdict = (
            "verdict: OK — every fault detected or architecturally masked"
            if self.clean
            else f"verdict: FAILED — {self.silent_total} silent corruption(s)!\n"
            + "\n".join(f"  {e}" for e in self.silent_examples[:10])
        )
        return f"{table}\n{verdict}"


def run_campaign(
    trace,
    n_faults: int = 200,
    seed: int = 2003,
    slice_counts: tuple[int, ...] = (2, 4),
    kinds: tuple[str, ...] = FAULT_KINDS,
) -> CampaignReport:
    """Inject *n_faults* seeded single-bit faults and classify each one.

    Args:
        trace: iterable of :class:`~repro.emulator.trace.TraceRecord`
            to draw fault targets from.
        n_faults: campaign size.
        seed: RNG seed — identical seeds give identical campaigns.
        slice_counts: datapath slicings to cross-check (paper: x2, x4).
        kinds: subset of :data:`FAULT_KINDS` to draw from.

    Raises:
        ValueError: the trace contains no sliceable instructions.
    """
    # Imported here, their only user: a sweep worker unpickles a
    # ProcessFaultPlan from this module and needs no trace packing.
    from repro.emulator.tracefile import pack_trace, unpack_trace

    records = list(trace)
    cands = candidates(records)
    if not cands:
        raise ValueError("trace contains no sliceable instructions to inject faults into")
    slice_cands = [c for c in cands if c.op != "eq"]
    rng = random.Random(seed)
    weights = [_KIND_WEIGHTS[FAULT_KINDS.index(k)] for k in kinds]
    packed = pack_trace(records[: min(len(records), 256)])
    trace_fields = [k for k in packed if packed[k].size]
    report = CampaignReport(seed=seed, slice_counts=tuple(slice_counts))
    for k in kinds:
        report.stats[k] = KindStats()

    for _ in range(n_faults):
        kind = rng.choices(kinds, weights=weights)[0]
        st = report.stats[kind]
        st.injected += 1
        num_slices = rng.choice(slice_counts)

        if kind == "operand":
            c = rng.choice(cands)
            which = rng.choice(c.mutable)
            bit = rng.randrange(32)
            a, b = c.a, c.b
            if which == 0:
                a ^= 1 << bit
            else:
                b ^= 1 << bit
            golden = _full(c.op, c.a, c.b)
            full_faulty = _full(c.op, a, b)
            sliced_faulty = _sliced(c.op, a, b, num_slices)
            if sliced_faulty != full_faulty:
                st.silent += 1
                report.silent_examples.append(
                    f"operand fault at pc={c.pc:#x} op={c.op} bit={bit}: "
                    f"sliced {sliced_faulty:#x} != full {full_faulty:#x}"
                )
            elif full_faulty != golden:
                st.detected += 1
            else:
                st.masked += 1

        elif kind == "slice":
            c = rng.choice(slice_cands)
            width = 32 // num_slices
            k = rng.randrange(num_slices)
            bit = rng.randrange(width)
            corrupted = list(_slices(c.op, c.a, c.b, num_slices))
            corrupted[k] ^= 1 << bit
            golden = _full(c.op, c.a, c.b)
            if join_slices(corrupted) != golden:
                st.detected += 1
            else:
                st.silent += 1
                report.silent_examples.append(
                    f"slice fault at pc={c.pc:#x} op={c.op} slice={k} bit={bit}: "
                    f"corrupted slice reassembled to the golden value"
                )

        else:  # trace-field fault
            arrays = {name: arr.copy() for name, arr in packed.items()}
            fname = rng.choice(trace_fields)
            buf = arrays[fname].view("uint8")
            byte = rng.randrange(buf.size)
            buf[byte] ^= 1 << rng.randrange(8)
            try:
                unpack_trace(arrays)
            except TraceCorruption:
                st.detected += 1
            else:
                st.silent += 1
                report.silent_examples.append(
                    f"trace fault in field {fname!r} byte {byte}: "
                    f"corrupted arrays unpacked without a checksum error"
                )

    return report


# --------------------------------------------------------------------------
# Process-level fault injection (chaos testing for the sweep supervisor)
# --------------------------------------------------------------------------

#: Environment variable carrying a :class:`ProcessFaultPlan` spec into
#: worker processes and CLI subprocesses (``scripts/chaos_sweep.py``).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Faults a worker can suffer, in the order the decision roll consumes
#: its probability mass.
PROCESS_FAULT_KINDS = ("kill", "corrupt")


@dataclass(frozen=True)
class ProcessFaultPlan:
    """Seeded plan of process-level faults for chaos-testing a sweep.

    Unlike the single-bit data faults above, these attack the *worker
    processes* of a supervised sweep: ``kill`` SIGKILLs the worker
    before it touches the cell (the supervisor sees pipe EOF), and
    ``corrupt`` flips one byte of the serialized result payload after
    its checksum was computed (so the parent's integrity check must
    reject it).

    Decisions are a pure function of ``(seed, cell id, attempt)``, so a
    campaign replays bit-for-bit — and a cell that was killed on its
    first attempt rolls fresh dice on the retry, which is what lets a
    chaotic sweep still converge to the clean run's exact results.
    """

    seed: int = 2003
    kill_rate: float = 0.0
    corrupt_rate: float = 0.0

    def decide(self, cell_id: str, attempt: int) -> str | None:
        """The fault (if any) this worker suffers on this attempt."""
        roll = random.Random(f"{self.seed}|{cell_id}|{attempt}").random()
        if roll < self.kill_rate:
            return "kill"
        if roll < self.kill_rate + self.corrupt_rate:
            return "corrupt"
        return None

    def corrupt_byte(self, cell_id: str, attempt: int, size: int) -> tuple[int, int]:
        """Deterministic (offset, xor-mask) for a ``corrupt`` fault."""
        rng = random.Random(f"{self.seed}|{cell_id}|{attempt}|corrupt")
        return rng.randrange(max(size, 1)), 1 << rng.randrange(8)

    # ------------------------------------------------------------- spec IO

    def to_spec(self) -> str:
        """Compact ``key=value,...`` form for ``$REPRO_CHAOS``."""
        return f"seed={self.seed},kill={self.kill_rate:g},corrupt={self.corrupt_rate:g}"

    @classmethod
    def from_spec(cls, spec: str) -> "ProcessFaultPlan":
        """Parse a ``key=value,...`` spec.

        Raises:
            ValueError: an unknown key or a value of the wrong type,
                named in one line.
        """
        plan = cls()
        fields_by_key = {
            "seed": ("seed", int),
            "kill": ("kill_rate", float),
            "corrupt": ("corrupt_rate", float),
        }
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            if key not in fields_by_key:
                raise ValueError(
                    f"{CHAOS_ENV_VAR}: unknown key {key!r}; expected one of "
                    f"{', '.join(fields_by_key)}"
                )
            name, cast = fields_by_key[key]
            try:
                plan = replace(plan, **{name: cast(value)})
            except ValueError:
                raise ValueError(
                    f"{CHAOS_ENV_VAR}: {key}={value!r}: expected {cast.__name__}"
                ) from None
        return plan

    @classmethod
    def from_env(cls) -> "ProcessFaultPlan | None":
        """The plan carried by ``$REPRO_CHAOS``, or ``None`` if unset."""
        spec = os.environ.get(CHAOS_ENV_VAR, "").strip()
        return cls.from_spec(spec) if spec else None


@dataclass
class CampaignSuite:
    """Per-benchmark campaign reports, renderable like an experiment."""

    reports: dict[str, CampaignReport]

    @property
    def silent_total(self) -> int:
        return sum(r.silent_total for r in self.reports.values())

    @property
    def clean(self) -> bool:
        return self.silent_total == 0

    def rows(self) -> list[tuple]:
        return [
            (bench, kind, injected, detected, masked, silent)
            for bench, report in sorted(self.reports.items())
            for kind, injected, detected, masked, silent in report.rows()
        ]

    def render(self) -> str:
        parts = [f"== {bench} ==\n{report.render()}" for bench, report in sorted(self.reports.items())]
        return "\n\n".join(parts)


__all__ = [
    "CHAOS_ENV_VAR",
    "FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "CampaignReport",
    "CampaignSuite",
    "KindStats",
    "ProcessFaultPlan",
    "candidates",
    "run_campaign",
]
