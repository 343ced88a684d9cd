"""Cycle-accounting CPI stacks.

The metrics layer records *what* happened (``sim.*`` counters, cycle
events); this module records *where the cycles went*.  Every committed
instruction's commit-to-commit gap is attributed to exactly one cause,
so the per-component cycle counts decompose total cycles the way the
paper's Figures 10–12 arguments do — and the decomposition carries an
enforced invariant: **the components sum exactly to the measured
cycles** (:meth:`CPIStack.check`), the property that makes a CPI stack
trustworthy for regression triage instead of merely suggestive.

Accounting model (timestamp simulator)
--------------------------------------

Commit times are monotone, so per-window cycles telescope into
per-instruction deltas ``commit[i] - commit[i-1]``.  While scheduling
instruction *i* the simulator records bounded *claims* — cycles it can
prove were spent waiting on a specific mechanism (a mispredict
redirect, RUU/LSQ occupancy, store-address disambiguation, a way
mispredict's verify+replay, cache-miss latency, a carry/shift chain).
At commit the delta is split across the claims in a fixed priority
order (:data:`CPI_COMPONENTS` order), each claim clamped to the cycles
actually remaining; whatever no mechanism claims is *base* — issue,
bandwidth and single-cycle execution making normal progress.  Clamping
is what turns overlapping per-mechanism waits (a load can wait on
disambiguation *and* hide an I-cache miss underneath) into a stack that
still sums exactly.

Branch-recovery cycles are *net* of §5.3 early resolution: the redirect
claim measures blocked fetch from the actual (possibly early) resolve
time, and the cycles early resolution saved are reported separately in
``extra["early_branch_saved_cycles"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The stack components, in waterfall (attribution-priority) order.
#: ``base`` is last: it absorbs whatever no mechanism claimed.
#: Each entry: (key, SimStats field, dotted metric, description).
CPI_COMPONENTS: tuple[tuple[str, str, str, str], ...] = (
    (
        "branch_recovery",
        "cpi_branch_recovery",
        "sim.cpi.branch_recovery",
        "fetch blocked on mispredict resolution (net of §5.3 early resolution)",
    ),
    (
        "ruu_stall",
        "cpi_ruu_stall",
        "sim.cpi.ruu_stall",
        "dispatch blocked on RUU occupancy",
    ),
    (
        "lsq_stall",
        "cpi_lsq_stall",
        "sim.cpi.lsq_stall",
        "dispatch blocked on LSQ occupancy",
    ),
    (
        "lsd_wait",
        "cpi_lsd_wait",
        "sim.cpi.lsd_wait",
        "loads held for older-store address disambiguation (§5.1)",
    ),
    (
        "ptm_replay",
        "cpi_ptm_replay",
        "sim.cpi.ptm_replay",
        "partial-tag way-mispredict verification + replay penalty (§5.2)",
    ),
    (
        "memory",
        "cpi_memory",
        "sim.cpi.memory",
        "cache/memory latency beyond the L1 hit path (I-side and D-side)",
    ),
    (
        "slice_wait",
        "cpi_slice_wait",
        "sim.cpi.slice_wait",
        "inter-slice carry/shift-chain and slice-operand waits (Figure 8)",
    ),
    (
        "base",
        "cpi_base",
        "sim.cpi.base",
        "issue/commit bandwidth and single-cycle execution (residual)",
    ),
)

#: Component keys in waterfall order.
COMPONENT_KEYS: tuple[str, ...] = tuple(c[0] for c in CPI_COMPONENTS)

#: Component key → SimStats field name.
STAT_FIELDS: dict[str, str] = {c[0]: c[1] for c in CPI_COMPONENTS}

#: Component key → dotted metric name (the ``sim.cpi.*`` namespace).
METRIC_NAMES: dict[str, str] = {c[0]: c[2] for c in CPI_COMPONENTS}

#: Component key → human description.
DESCRIPTIONS: dict[str, str] = {c[0]: c[3] for c in CPI_COMPONENTS}

#: One-character glyph per component for ASCII stacked bars.
GLYPHS: dict[str, str] = {
    "base": "#",
    "branch_recovery": "B",
    "ruu_stall": "R",
    "lsq_stall": "Q",
    "lsd_wait": "D",
    "ptm_replay": "W",
    "memory": "M",
    "slice_wait": "S",
}


class AttributionError(AssertionError):
    """A CPI stack failed its components-sum-to-cycles invariant."""


def attribute_delta(stats, delta: int, claims: tuple[int, ...]) -> None:
    """Split one commit-to-commit *delta* across *claims* into *stats*.

    *claims* are the non-base claim amounts in :data:`CPI_COMPONENTS`
    order (branch, ruu, lsq, lsd, ptm, memory, slice).  Each is clamped
    to the cycles still unattributed; the remainder is base.  The
    reference timing loop calls it; the fast path
    (:func:`repro.timing.fastpath.run_fast`) inlines the same waterfall.
    """
    rem = delta
    for (key, fld, _, _), claim in zip(CPI_COMPONENTS, claims):
        if claim <= 0 or rem <= 0:
            continue
        take = claim if claim < rem else rem
        setattr(stats, fld, getattr(stats, fld) + take)
        rem -= take
    if rem > 0:
        stats.cpi_base += rem


def split_claims(delta: int, claims: tuple[int, ...]) -> list[int]:
    """The :func:`attribute_delta` waterfall, returned instead of folded.

    Splits one commit-to-commit *delta* across *claims* (non-base
    amounts in :data:`CPI_COMPONENTS` order) with the identical clamp
    semantics and returns the per-component amounts as a list in
    :data:`COMPONENT_KEYS` order, base last.  Used by the guest
    profiler's per-PC CPI stacks, which must decompose the same cycles
    the ``SimStats`` stack does.
    """
    parts = [0] * len(CPI_COMPONENTS)
    rem = delta
    for i, claim in enumerate(claims):
        if claim <= 0 or rem <= 0:
            continue
        take = claim if claim < rem else rem
        parts[i] = take
        rem -= take
    if rem > 0:
        parts[-1] = rem
    return parts


@dataclass
class CPIStack:
    """One run's cycle decomposition, with the exact-sum invariant."""

    config_name: str = ""
    benchmark: str = ""
    instructions: int = 0
    cycles: int = 0
    #: component key → attributed cycles (all keys always present).
    components: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in COMPONENT_KEYS:
            self.components.setdefault(key, 0)

    # ---------------------------------------------------------- builders

    @classmethod
    def from_stats(cls, stats, benchmark: str = "") -> "CPIStack":
        """Build from a :class:`repro.timing.stats.SimStats`."""
        return cls(
            config_name=stats.config_name,
            benchmark=benchmark,
            instructions=stats.instructions,
            cycles=stats.cycles,
            components={key: getattr(stats, fld) for key, fld in STAT_FIELDS.items()},
        )

    @classmethod
    def from_metrics_dump(cls, dump: dict, config_name: str = "") -> "CPIStack":
        """Build from a metrics dump (``--metrics-out``) payload.

        Reads the ``sim.cpi.*`` counters plus ``sim.cycles`` and
        ``sim.instructions``; raises ``ValueError`` when the dump
        carries no attribution counters (pre-CPI artifact).
        """
        metrics = dump.get("metrics", {})
        if METRIC_NAMES["base"] not in metrics:
            raise ValueError("metrics dump has no sim.cpi.* attribution counters")

        def value(name: str) -> int:
            entry = metrics.get(name)
            return int(entry["value"]) if entry else 0

        return cls(
            config_name=config_name,
            instructions=value("sim.instructions"),
            cycles=value("sim.cycles"),
            components={key: value(metric) for key, metric in METRIC_NAMES.items()},
        )

    # --------------------------------------------------------- invariant

    @property
    def total(self) -> int:
        """Sum of the attributed components."""
        return sum(self.components.values())

    def check(self) -> "CPIStack":
        """Enforce components == cycles; returns self for chaining.

        Raises:
            AttributionError: the stack does not sum to the cycle count.
        """
        if self.total != self.cycles:
            detail = ", ".join(f"{k}={v}" for k, v in self.components.items() if v)
            raise AttributionError(
                f"CPI stack for {self.config_name or '?'}"
                f"{f'/{self.benchmark}' if self.benchmark else ''} sums to "
                f"{self.total}, expected cycles={self.cycles} ({detail})"
            )
        return self

    # -------------------------------------------------------------- math

    def cpi(self, key: str) -> float:
        """Per-instruction cycles attributed to one component."""
        return self.components[key] / self.instructions if self.instructions else 0.0

    @property
    def total_cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def fraction(self, key: str) -> float:
        """Share of total cycles attributed to one component."""
        return self.components[key] / self.cycles if self.cycles else 0.0

    def merge(self, other: "CPIStack") -> "CPIStack":
        """Cycle-weighted aggregate of two windows (commutative)."""
        return CPIStack(
            config_name=self.config_name
            if self.config_name == other.config_name
            else f"{self.config_name}+{other.config_name}",
            benchmark=self.benchmark if self.benchmark == other.benchmark else "*",
            instructions=self.instructions + other.instructions,
            cycles=self.cycles + other.cycles,
            components={
                key: self.components[key] + other.components[key]
                for key in COMPONENT_KEYS
            },
        )

    # ------------------------------------------------------------ export

    def to_dict(self) -> dict:
        return {
            "config_name": self.config_name,
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "components": dict(self.components),
            "cpi": {key: self.cpi(key) for key in COMPONENT_KEYS},
        }

    def render(self, width: int = 60) -> str:
        """One stack as an ASCII bar plus a per-component legend."""
        label = self.config_name or "?"
        if self.benchmark:
            label = f"{self.benchmark}/{label}"
        lines = [
            f"{label}: CPI {self.total_cpi:.3f} "
            f"({self.cycles} cycles / {self.instructions} instructions)",
            "  [" + stack_bar(self, width) + "]",
        ]
        for key in COMPONENT_KEYS:
            cycles = self.components[key]
            if not cycles:
                continue
            lines.append(
                f"  {GLYPHS[key]} {key:<16s} {self.cpi(key):7.3f} CPI "
                f"({self.fraction(key):6.1%})  {DESCRIPTIONS[key]}"
            )
        return "\n".join(lines)


def stack_bar(stack: CPIStack, width: int = 60) -> str:
    """The stack as one fixed-width run of component glyphs."""
    if not stack.cycles:
        return " " * width
    cells: list[str] = []
    carry = 0.0
    for key in COMPONENT_KEYS:
        exact = stack.fraction(key) * width + carry
        n = int(round(exact))
        carry = exact - n
        cells.append(GLYPHS[key] * n)
    bar = "".join(cells)[:width]
    return bar.ljust(width)


def render_stacks(stacks: list[CPIStack], width: int = 60, title: str = "") -> str:
    """Several stacks as aligned bars on a shared CPI scale.

    The bar length is proportional to each stack's total CPI (worst
    stack spans *width*), so both the mix *and* the magnitude compare
    across configurations — the Figure 11 reading of a CPI stack.
    """
    if not stacks:
        return "(no CPI stacks)"
    worst = max(s.total_cpi for s in stacks) or 1.0
    label_w = max(
        len(f"{s.benchmark}/{s.config_name}" if s.benchmark else s.config_name)
        for s in stacks
    )
    lines = []
    if title:
        lines.append(title)
    for s in stacks:
        label = f"{s.benchmark}/{s.config_name}" if s.benchmark else s.config_name
        bar_w = max(1, int(round(width * s.total_cpi / worst))) if s.cycles else 0
        lines.append(f"{label:<{label_w}}  {s.total_cpi:6.3f} |{stack_bar(s, bar_w)}")
    legend = "  ".join(f"{GLYPHS[k]}={k}" for k in COMPONENT_KEYS)
    lines.append(f"{'':<{label_w}}  legend: {legend}")
    return "\n".join(lines)


__all__ = [
    "AttributionError",
    "COMPONENT_KEYS",
    "CPI_COMPONENTS",
    "CPIStack",
    "DESCRIPTIONS",
    "GLYPHS",
    "METRIC_NAMES",
    "STAT_FIELDS",
    "attribute_delta",
    "render_stacks",
    "split_claims",
    "stack_bar",
]
