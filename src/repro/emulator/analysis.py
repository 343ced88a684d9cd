"""Trace analysis utilities.

Workload-validation helpers used to check that the synthetic kernels
behave like their SPEC namesakes: instruction-mix breakdowns, register
dependence distances (how far apart producer and consumer are — what
determines how much a pipelined EX hurts), working-set estimation, and
branch-behaviour summaries.  Also the static call graph the guest
profiler keys flamegraphs on: function entries recovered from ``jal``
targets and program symbols, with deterministic entry→function paths
for collapsed-stack output.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.isa.encoding import EncodingError, decode
from repro.isa.opclass import OpClass, op_class
from repro.isa.registers import NUM_EXT_REGS


@dataclass
class TraceProfile:
    """Aggregate statistics of one dynamic trace."""

    instructions: int = 0
    class_counts: Counter = field(default_factory=Counter)
    mnemonic_counts: Counter = field(default_factory=Counter)
    #: dependence distance (in dynamic instructions) histogram,
    #: capped at 64.
    dependence_distances: Counter = field(default_factory=Counter)
    #: distinct 64-byte data lines touched.
    data_lines: int = 0
    #: distinct 64-byte instruction lines touched.
    text_lines: int = 0
    branches: int = 0
    taken_branches: int = 0

    @property
    def load_fraction(self) -> float:
        return self.class_counts[OpClass.LOAD] / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        return self.class_counts[OpClass.STORE] / self.instructions if self.instructions else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.instructions if self.instructions else 0.0

    @property
    def taken_rate(self) -> float:
        return self.taken_branches / self.branches if self.branches else 0.0

    @property
    def data_working_set(self) -> int:
        """Approximate data working set in bytes (64B line granularity)."""
        return self.data_lines * 64

    def mean_dependence_distance(self) -> float:
        """Average producer→consumer distance (short distances are what
        make EX-stage pipelining expensive)."""
        total = sum(d * n for d, n in self.dependence_distances.items())
        count = sum(self.dependence_distances.values())
        return total / count if count else 0.0

    def short_dependence_fraction(self, within: int = 2) -> float:
        """Fraction of register reads whose producer is within *within*
        dynamic instructions."""
        count = sum(self.dependence_distances.values())
        if not count:
            return 0.0
        short = sum(n for d, n in self.dependence_distances.items() if d <= within)
        return short / count

    def summary(self) -> str:
        lines = [
            f"instructions        : {self.instructions}",
            f"loads / stores      : {self.load_fraction:.1%} / {self.store_fraction:.1%}",
            f"branches (taken)    : {self.branch_fraction:.1%} ({self.taken_rate:.0%} taken)",
            f"data working set    : ~{self.data_working_set // 1024} KB",
            f"text footprint      : ~{self.text_lines * 64} B",
            f"mean dep. distance  : {self.mean_dependence_distance():.1f} instructions",
            f"dep. within 2 instr : {self.short_dependence_fraction(2):.1%}",
        ]
        top = ", ".join(f"{m} {n}" for m, n in self.mnemonic_counts.most_common(8))
        lines.append(f"top mnemonics       : {top}")
        return "\n".join(lines)


def profile_trace(trace, distance_cap: int = 64) -> TraceProfile:
    """Build a :class:`TraceProfile` from an iterable of trace records."""
    profile = TraceProfile()
    last_writer = [-(10**9)] * NUM_EXT_REGS
    data_lines: set[int] = set()
    text_lines: set[int] = set()
    i = 0
    for record in trace:
        inst = record.inst
        profile.instructions += 1
        klass = op_class(inst.mnemonic)
        profile.class_counts[klass] += 1
        profile.mnemonic_counts[inst.mnemonic] += 1
        text_lines.add(record.pc >> 6)
        if record.mem_addr >= 0:
            data_lines.add(record.mem_addr >> 6)
        if inst.is_branch:
            profile.branches += 1
            if record.taken:
                profile.taken_branches += 1
        for r in inst.src_regs():
            if r == 0:
                continue
            distance = i - last_writer[r]
            if distance <= distance_cap:
                profile.dependence_distances[distance] += 1
            else:
                profile.dependence_distances[distance_cap + 1] += 1
        for r in inst.dst_regs():
            last_writer[r] = i
        i += 1
    profile.data_lines = len(data_lines)
    profile.text_lines = len(text_lines)
    return profile


# ---------------------------------------------------------- call graph

@dataclass
class StaticCallGraph:
    """Function partition of a program's text plus its static call edges.

    Function entries are the program entry, the text base (covering any
    startup stub before ``main``), and every in-text ``jal`` target;
    each PC belongs to the nearest entry at or below it.  Names come
    from the program's symbol table when a label sits exactly on the
    entry, else a synthetic ``fn_0x...``.  Edges connect the function
    containing each ``jal`` site to its target, which is what the guest
    profiler's collapsed-stack flamegraph output walks.
    """

    base: int
    limit: int                      # one past the last text byte
    entries: list[int]              # sorted function entry PCs
    names: dict[int, str]           # entry PC → function name
    calls: dict[int, tuple[int, ...]]  # entry PC → sorted callee entries
    root: int                       # entry PC of the program-entry function
    _stacks: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def function_of(self, pc: int) -> int | None:
        """Entry PC of the function containing *pc* (None if outside text)."""
        if not self.base <= pc < self.limit:
            return None
        i = bisect_right(self.entries, pc)
        return self.entries[i - 1] if i else None

    def stack_of(self, entry: int) -> tuple[str, ...]:
        """Deterministic root→function name path for one function entry.

        The shortest static call path from the root, ties broken by
        entry order (BFS over sorted callee lists); functions the
        static graph cannot reach from the root stand alone.
        """
        if not self._stacks:
            self._stacks[self.root] = (self.names[self.root],)
            queue = deque([self.root])
            while queue:
                caller = queue.popleft()
                path = self._stacks[caller]
                for callee in self.calls.get(caller, ()):
                    if callee not in self._stacks:
                        self._stacks[callee] = path + (self.names[callee],)
                        queue.append(callee)
        stack = self._stacks.get(entry)
        if stack is None:
            stack = self._stacks[entry] = (self.names[entry],)
        return stack


def static_call_graph(program) -> StaticCallGraph:
    """Recover the static call graph of *program* (see :class:`StaticCallGraph`)."""
    base = program.text_base
    size = len(program.text)
    limit = base + 4 * size
    entry_set = {base}
    if base <= program.entry < limit:
        entry_set.add(program.entry)
    call_sites: list[tuple[int, int]] = []
    for i, word in enumerate(program.text):
        try:
            inst = decode(word)
        except EncodingError:
            continue
        if inst.mnemonic == "jal":
            pc = base + 4 * i
            target = ((pc + 4) & 0xF000_0000) | (inst.target << 2)
            if base <= target < limit:
                entry_set.add(target)
                call_sites.append((pc, target))
    labels: dict[int, str] = {}
    for name in sorted(program.symbols):
        labels.setdefault(program.symbols[name], name)
    entries = sorted(entry_set)
    names = {e: labels.get(e, f"fn_{e:#x}") for e in entries}
    calls: dict[int, set[int]] = {e: set() for e in entries}
    for pc, target in call_sites:
        i = bisect_right(entries, pc)
        caller = entries[i - 1]
        if target != caller:
            calls[caller].add(target)
    root_i = bisect_right(entries, program.entry if base <= program.entry < limit else base)
    return StaticCallGraph(
        base=base,
        limit=limit,
        entries=entries,
        names=names,
        calls={e: tuple(sorted(c)) for e, c in calls.items()},
        root=entries[root_i - 1],
    )


def collapsed_stacks(graph: StaticCallGraph, counts: dict[int, int]) -> dict[str, int]:
    """Fold per-PC counts into collapsed-stack lines keyed on the call graph.

    Returns ``{"main;compress;deflate": 12345, ...}`` — the
    semicolon-separated format flamegraph.pl / speedscope consume.  PCs
    outside the text segment (e.g. the profiler's synthetic shortfall
    line) fold under a single ``?`` frame.
    """
    out: dict[str, int] = {}
    for pc, count in counts.items():
        entry = graph.function_of(pc)
        key = "?" if entry is None else ";".join(graph.stack_of(entry))
        out[key] = out.get(key, 0) + count
    return out


def write_collapsed_stacks(path, stacks: dict[str, int]) -> int:
    """Write collapsed stacks one per line (sorted); returns line count."""
    lines = [f"{key} {count}" for key, count in sorted(stacks.items())]
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def compare_profiles(a: TraceProfile, b: TraceProfile) -> str:
    """Side-by-side comparison of two profiles (mix validation aid)."""
    rows = [
        ("loads", a.load_fraction, b.load_fraction),
        ("stores", a.store_fraction, b.store_fraction),
        ("branches", a.branch_fraction, b.branch_fraction),
        ("taken rate", a.taken_rate, b.taken_rate),
        ("short deps", a.short_dependence_fraction(2), b.short_dependence_fraction(2)),
    ]
    out = [f"{'metric':<12} {'A':>8} {'B':>8}"]
    for name, va, vb in rows:
        out.append(f"{name:<12} {va:>8.1%} {vb:>8.1%}")
    return "\n".join(out)
