"""Block-compiled execution: the emulator's production tier.

The per-instruction handlers (:mod:`repro.emulator.dispatch`) make each
retired instruction one indirect call; this module removes even that.
At decode time the text segment is partitioned into basic blocks
(leaders = the entry point, every branch/jump target, every index after
a control transfer or system instruction).  A lightweight
execution-count profile — a per-leader countdown in the dispatch table
— triggers compilation of hot leaders into specialized Python
functions, each item expanded from its row of the semantics table
(:data:`~repro.emulator.dispatch.OPS`) that the handlers are generated
from too:

* guest registers live in host locals for the whole block (registers
  are loaded from ``R[n]`` only if read before written, and stored
  back once per exit),
* immediates, branch targets, PCs and next-PC values are
  constant-folded into the source,
* loads and stores index the memory's page store inline in the run and
  warm variants (an aligned access never crosses a 4 KiB page) and call
  the scalar accessors in the trace variant and on a misaligned address,
* superblocks extend through unconditional ``j``/``jal`` *and* through
  conditional branches: backward branches continue along the taken
  edge (unrolling tight loops up to ``MAX_BLOCK_LEN`` instructions),
  forward branches continue along the fallthrough edge, and the cold
  direction becomes a side exit that commits and returns early.

Each block compiles to three variants.  The *run* variant returns a
packed ``(next_leader_index + 1) << 8 | retired_count`` so the
machine's chain loop can jump compiled-block-to-compiled-block without
re-deriving the PC.  The *trace* variant builds the exact
:class:`~repro.emulator.trace.TraceRecord` list the reference
interpreter would emit — byte-identical traces, so the SHA-256 trace
cache, packed transport and all downstream timing machinery are
untouched.  The *warm* variant is the run variant plus the
functional-warming hooks of :meth:`Machine.run_warm`.

Fault discipline — resume at the fault.  A compiled body mutates no
architectural state (registers, PC, instret) until a commit point (a
side exit or the block end), and each item faults before it writes.
If anything raises inside a compiled body (alignment trap, illegal
access), :meth:`BlockEngine.replay` reads the body's frame from the
traceback — the faulting item from its line number, the register
values from its locals, the retired records from the trace variant's
list — commits that state and runs the faulting instruction's handler,
which raises the reference exception: same partial trace, same
exception, same registers and memory at the faulting instruction.
Nothing on the non-faulting path pays for this.

Everything that is not a hot compiled block — cold code, syscalls,
``break``, undecodable words, the tail of a bounded run — falls back
to the per-instruction handlers.

``cross_check_blocks`` is the differential harness: a blocks-mode
machine and the golden reference run in lockstep (states align at
block exits) and any record or final-state mismatch raises
:class:`DispatchDivergence`.
"""

from __future__ import annotations

import time
import weakref

from repro.context import current as _run_context
from repro.emulator.dispatch import (
    ACCESS,
    ADDR,
    BRANCH,
    CONSTS,
    DESTS,
    HELPERS,
    IJUMP,
    JUMP,
    LOAD,
    OPS,
    READS,
    SIGNED,
    STORE,
    SYSTEM,
    WRITES,
    DispatchDivergence,
    sext,
    sgn,
)

_M = 0xFFFFFFFF

#: Fetch-line granularity of the warm variant's I-side touches (64-byte
#: lines, matching the Table 2 L1I).  ``warm_instruction`` deduplicates
#: by its own line size, so a mismatch only costs extra calls.
_ILINE_SHIFT = 6

#: What a warm variant binds from the machine's warming sink: the
#: hierarchy's data and I-side hooks, the L1D's sets and geometry, the
#: gshare predictor with its table and masks, and the BTB/RAS hooks.
_WARM_NAMES = (
    "_wd", "_d1s", "_d1o", "_d1m", "_d1t", "_wi",
    "_gs", "_gt", "_gim", "_ghm", "_btu", "_rpu", "_rpo",
)

#: Executions of a leader before its block compiles, so cold code never
#: pays ``compile`` (costed by ``scripts/bench_host_ops.py``).  Tests
#: and cross_check pass ``block_threshold=0``: compile on first entry.
DEFAULT_THRESHOLD = 8

#: Superblock growth cap (instructions per compiled function).  Must
#: stay below 256: the run variant packs the retired count into the
#: low byte of its return value.
MAX_BLOCK_LEN = 64

#: Blocks shorter than this stay on pre-bound dispatch: the per-block
#: call + commit overhead eats the per-instruction saving (see the
#: host-op cost table in docs/performance.md).  Two instructions is the
#: break-even point; hot 2-instruction chunks (e.g. the argument setup
#: before a syscall) are common enough to matter.
MIN_BLOCK_LEN = 2


def _kinds(*kinds) -> frozenset:
    return frozenset(mn for mn, row in OPS.items() if row.kind in kinds)


_BRANCHES = _kinds(BRANCH)
_JUMPS = _kinds(JUMP)
_INDIRECT = _kinds(IJUMP)
_UNSUPPORTED = _kinds(SYSTEM)


# ------------------------------------------------------------------- stats

#: Block-engine counters.  Each lives in the run context as
#: ``compiler.<key>``: the engine counts at every compile, the machine's
#: interpreter loop at every exit.
_STAT_KEYS = (
    "blocks_compiled",
    "superblocks",
    "compile_seconds",
    "block_execs",
    "block_insts",
    "fallback_insts",
    "replays",
    "side_exits",      # compiled execs that left a superblock early
    "cache_binds",     # compile_block calls served by the code cache
)

#: Span lane for JIT compile instants in the Perfetto timeline — far
#: from the low lane numbers the sweep orchestrator assigns to cells,
#: so compile marks always render on their own track.
JIT_LANE = 90


def stats() -> dict:
    """The block-engine counters of the run context (the manifest's
    ``compiler`` block carries them as its ``stats``; see
    :func:`telemetry`)."""
    counters = _run_context().counters
    return {
        key: counters.get(f"compiler.{key}", 0.0 if key == "compile_seconds" else 0)
        for key in _STAT_KEYS
    }


def telemetry() -> dict | None:
    """Manifest-ready "Compiler telemetry" block, or ``None``.

    ``None`` when the blocks tier never compiled anything in this run
    (e.g. a ``REPRO_DISPATCH=reference`` run) — manifests gate the
    section on data presence.
    """
    s = stats()
    if not s["blocks_compiled"]:
        return None
    execs = s["block_execs"]
    total_insts = s["block_insts"] + s["fallback_insts"]
    return {
        "stats": s,
        "side_exit_rate": s["side_exits"] / execs if execs else 0.0,
        "block_inst_fraction": s["block_insts"] / total_insts if total_insts else 0.0,
    }


#: Per-program cache of compiled code objects, keyed ``id(program)``
#: then ``(leader_index, variant)`` → ``(n_inst, code, insts, unwind,
#: superblock)`` or ``None`` (rejected).  CPython's ``compile``
#: dominates block-compilation cost; the code object is
#: machine-independent (machine state binds at ``exec`` time), so every
#: later Machine over the same Program — repeat bench iterations, sweep
#: cells, workers — skips straight to the cheap bind.  Entries die with their Program
#: (``weakref.finalize``); Program is an unhashable dataclass, hence
#: the id key.
_CODE_CACHE: dict[int, dict] = {}


def _program_code_cache(program) -> dict:
    key = id(program)
    cache = _CODE_CACHE.get(key)
    if cache is None:
        cache = _CODE_CACHE[key] = {}
        weakref.finalize(program, _CODE_CACHE.pop, key, None)
    return cache


class _Block:
    __slots__ = ("items", "superblock")

    def __init__(self, items, superblock):
        # items: list of (text_index, Instruction, continue_direction)
        # where continue_direction is "taken"/"fall" for control
        # transfers the superblock extends through, None otherwise.
        self.items = items
        self.superblock = superblock


class BlockEngine:
    """Per-machine block discovery, profiling, and lazy compilation.

    The engine owns three dispatch tables indexed like the machine's
    bound-handler list.  A table entry is ``None`` (never compile —
    not a leader, or block rejected), an ``int`` countdown (leader
    profile: executions left before compiling), or a ``(max_inst, fn)``
    tuple once compiled.  ``tables["run"]`` holds the index-chaining
    variants, ``tables["trace"]`` the record-building variants and
    ``tables["warm"]`` the functional-warming ones.
    """

    def __init__(self, machine, threshold: int | None = None) -> None:
        self.m = machine
        self.decoded = machine.decoded
        self.base = machine.program.text_base
        self.threshold = DEFAULT_THRESHOLD if threshold is None else max(0, threshold)
        self.max_len = MAX_BLOCK_LEN
        self.min_len = MIN_BLOCK_LEN
        self._compiled: dict[tuple, tuple | None] = {}
        self._extents: dict[int, _Block | None] = {}
        self._counted: set[int] = set()

        size = len(self.decoded)
        initial = max(1, self.threshold)
        run_table: list = [None] * size
        trace_table: list = [None] * size
        warm_table: list = [None] * size
        for idx in self._leaders():
            inst = self.decoded[idx]
            if inst is not None and inst.mnemonic not in _UNSUPPORTED:
                run_table[idx] = initial
                trace_table[idx] = initial
                warm_table[idx] = initial
        self.tables = {"run": run_table, "trace": trace_table, "warm": warm_table}

    # -------------------------------------------------------------- discovery

    def _leaders(self) -> set:
        decoded = self.decoded
        base = self.base
        size = len(decoded)
        leaders = set()
        entry_idx = (self.m.program.entry - base) >> 2
        if 0 <= entry_idx < size:
            leaders.add(entry_idx)
        for idx, inst in enumerate(decoded):
            if inst is None:
                continue
            mn = inst.mnemonic
            if mn in _BRANCHES:
                pc = base + 4 * idx
                ti = (((pc + 4 + (inst.imm << 2)) & _M) - base) >> 2
                if 0 <= ti < size:
                    leaders.add(ti)
            elif mn in _JUMPS:
                pc = base + 4 * idx
                ti = ((((pc + 4) & 0xF000_0000) | (inst.target << 2)) - base) >> 2
                if 0 <= ti < size:
                    leaders.add(ti)
            elif mn not in _INDIRECT and mn not in _UNSUPPORTED:
                continue
            if idx + 1 < size:
                leaders.add(idx + 1)
        return leaders

    def _extent(self, index: int) -> _Block | None:
        """Trace-style superblock growth from leader *index*.

        Follows straight-line code, unconditional jumps, and the
        likely-hot edge of conditional branches (taken for backward —
        loop back-edges, so tight loops unroll — fallthrough for
        forward), until an indirect jump, a system instruction, an
        undecodable word, or the length cap.
        """
        decoded = self.decoded
        size = len(decoded)
        base = self.base
        max_len = self.max_len
        items: list = []
        superblock = False
        idx = index
        while 0 <= idx < size and len(items) < max_len:
            inst = decoded[idx]
            if inst is None:
                break
            mn = inst.mnemonic
            if mn in _UNSUPPORTED:
                break
            if mn in _INDIRECT:
                items.append((idx, inst, None))
                break
            if mn in _BRANCHES:
                pc = base + 4 * idx
                ti = (((pc + 4 + (inst.imm << 2)) & _M) - base) >> 2
                if len(items) < max_len - 1:
                    if ti <= idx and 0 <= ti:  # backward: loop edge, follow taken
                        items.append((idx, inst, "taken"))
                        superblock = True
                        idx = ti
                        continue
                    if ti > idx and idx + 1 < size:  # forward: follow fallthrough
                        items.append((idx, inst, "fall"))
                        superblock = True
                        idx += 1
                        continue
                items.append((idx, inst, None))
                break
            if mn in _JUMPS:
                pc = base + 4 * idx
                ti = ((((pc + 4) & 0xF000_0000) | (inst.target << 2)) - base) >> 2
                if 0 <= ti < size and len(items) < max_len - 1:
                    items.append((idx, inst, "taken"))
                    superblock = True
                    idx = ti
                    continue
                items.append((idx, inst, None))
                break
            items.append((idx, inst, None))
            idx += 1
        if len(items) < self.min_len:
            return None
        return _Block(items, superblock)

    # ------------------------------------------------------------ compilation

    def compile_block(self, index: int, variant: str) -> None:
        """Compile (or reject) one variant of the block at *index*.

        *variant* is ``"run"``, ``"trace"``, or ``"warm"``.  Variants
        compile lazily and independently — a pure :meth:`run` workload
        never pays for trace-variant compilation (CPython's ``compile``
        dominates the cost) — and code objects are shared across
        machines through the per-program cache, so only the first
        machine over a program pays ``compile`` at all.
        """
        key = (index, variant)
        if key not in self._compiled:
            t0 = time.perf_counter()
            context = _run_context()
            code_cache = _program_code_cache(self.m.program)
            cached = code_cache.get(key, False)
            from_code_cache = cached is not False
            if cached is False:
                if index in self._extents:
                    block = self._extents[index]
                else:
                    block = self._extents[index] = self._extent(index)
                if block is None:
                    cached = None
                else:
                    code, insts, unwind = self._codegen(block, variant)
                    cached = (len(block.items), code, insts, unwind, block.superblock)
                code_cache[key] = cached
            if cached is None:
                entry = None
                superblock = False
            else:
                n_inst, code, insts, unwind, superblock = cached
                entry = (n_inst, self._bind(code, insts, unwind))
                if from_code_cache:
                    context.count("compiler.cache_binds")
                if index not in self._counted:  # once per block, not per variant
                    self._counted.add(index)
                    context.count("compiler.blocks_compiled")
                    if superblock:
                        context.count("compiler.superblocks")
            seconds = time.perf_counter() - t0
            context.count("compiler.compile_seconds", seconds)
            self._compiled[key] = entry
            if entry is not None and context.tracer is not None:
                pc = self.base + 4 * index
                context.tracer.mark(
                    f"jit.compile {pc:#x}",
                    category="jit",
                    lane=JIT_LANE,
                    pc=pc,
                    n_inst=entry[0],
                    superblock=superblock,
                    seconds=seconds,
                    cache_hit=from_code_cache,
                    variant=variant,
                )
        self.tables[variant][index] = self._compiled[key]

    def reset_variant(self, variant: str) -> None:
        """Drop compiled entries of *variant* so they rebind on next use.

        Needed when the bindings a variant closes over change — e.g.
        attaching a new functional-warming sink to the machine: warm
        bodies bind the sink's methods directly, so previously bound
        entries would keep warming the old one.
        """
        table = self.tables[variant]
        for index in list(self._compiled):
            if index[1] == variant:
                del self._compiled[index]
        for idx, entry in enumerate(table):
            if entry is not None:
                # 1, not the profiling threshold: the leader is already
                # known-hot, so recompile on its next execution.
                table[idx] = 1

    def _codegen(self, block: _Block, variant: str):
        """Emit and exec-compile one variant of *block* from :data:`OPS`.

        Each item expands its table row: value rows compute their
        template into the destination local, loads and stores access
        memory at ``{a} + {imm}`` with the row's width, branches and
        jumps exit or continue the superblock.  The generated function
        loads every register that is read before being written into a
        local, executes the superblock with all constants folded in,
        and commits registers / PC / instret only at exit points (side
        exits and the block end).

        The ``warm`` variant is the run variant plus functional-warming
        hooks: every memory operand touches the data cache (``_wd``,
        called only off the L1D set's MRU way), fetch-line transitions
        touch the I-cache (``_wi``), conditional branches train the
        gshare table and history inline, and jumps train the BTB and
        RAS (``_btu`` / ``_rpu`` / ``_rpo``) — so statistical-sampling
        fast-forward spans keep the microarchitectural state a detailed
        window adopts continuously warm, at block-compiled speed.

        Returns the code object, the block's instructions and its
        unwind table ``(item position per source line, item PCs)``,
        which :meth:`replay` reads when the body raises.
        """
        trace = variant == "trace"
        warm = variant == "warm"
        base = self.base
        size = len(self.decoded)
        items = block.items
        n = len(items)
        defined: set = set()     # registers with a local already assigned
        commits: list = []       # written registers, in first-write order
        body: list = []
        starts: list = []        # (first body line, item position) per emitted item
        warm_iline = [-1]        # static fetch line of the previous item

        def wd() -> None:
            if warm:
                # SetAssociativeCache.is_mru, inline: an access that
                # hits its L1D set's MRU way changes no state, so only
                # the others call the hierarchy.
                body.append("    _s = _d1s[(_ma >> _d1o) & _d1m]")
                body.append("    if not _s or _s[0] != _ma >> _d1t:")
                body.append("        _wd(_ma)")

        def wi(pc: int) -> None:
            if warm:
                iline = pc >> _ILINE_SHIFT
                if iline != warm_iline[0]:
                    warm_iline[0] = iline
                    body.append(f"    _wi({pc})")

        def reg(rn: int) -> str:
            if rn == 0:
                return "0"
            if rn not in defined:
                defined.add(rn)
                # Load at first use (always generated at top level, before
                # the consuming line) rather than at function entry, so a
                # side exit skips the loads of everything past it.
                body.append(f"    r{rn} = R[{rn}]")
            return f"r{rn}"

        def mark_write(rn: int) -> str:
            defined.add(rn)
            if rn not in commits:
                commits.append(rn)
            return f"r{rn}"

        def wreg(rn: int, expr: str, indent: str = "    ") -> None:
            body.append(f"{indent}{mark_write(rn)} = {expr}")

        def operands(row, inst, a: str, b: str) -> dict:
            """Source text per placeholder: reads load first, then writes."""
            ops = {"a": a, "b": b}
            writes = []
            for name in row.names:
                if name in ops:
                    continue
                if name in CONSTS:
                    ops[name] = str(CONSTS[name](inst))
                elif name in WRITES:
                    writes.append(name)
                else:
                    base_name = SIGNED.get(name, name)
                    if base_name not in ops:
                        ops[base_name] = reg(READS[base_name](inst))
                    if base_name != name:
                        ops[name] = sgn(ops[base_name])
            for name in writes:
                ops[name] = mark_write(WRITES[name])
            return ops

        def rec(pc, k, a, b, res, addr, taken, npc, indent: str = "    ") -> None:
            if trace:
                body.append(
                    f"{indent}_ap(_TR({pc}, _I[{k}], {a}, {b}, {res}, {addr}, {taken}, {npc}))"
                )

        def enc(ni: int, cnt: int) -> int:
            if not 0 <= ni < size:
                ni = -1
            return ((ni + 1) << 8) | cnt

        def exit_lines(npc, cnt: int, ni, indent: str = "    ") -> None:
            """Commit and return at an exit point.

            *npc* is an int or expression string for the next PC; *ni*
            is the constant next leader index (or -1) or an expression
            string producing the packed return value.
            """
            for rn in commits:
                body.append(f"{indent}R[{rn}] = r{rn}")
            body.append(f"{indent}m.pc = {npc}")
            body.append(f"{indent}m.instret += {cnt}")
            if trace:
                body.append(f"{indent}return _rec")
            elif isinstance(ni, str):
                body.append(f"{indent}return {ni}")
            else:
                body.append(f"{indent}return {enc(ni, cnt)}")

        for k, (idx, inst, cont) in enumerate(items):
            starts.append((len(body), k))
            row = OPS[inst.mnemonic]
            kind = row.kind
            pc = base + 4 * idx
            npc = (pc + 4) & _M
            reads = row.reads
            a = reg(inst.rs) if trace or "a" in reads else "_unused_rs"
            b = reg(inst.rt) if trace or "b" in reads else "_unused_rt"
            last = k == n - 1
            wi(pc)

            ops = operands(row, inst, a, b)
            expr = row.expr.format_map(ops)
            rn = DESTS[row.dest](inst) if row.dest else 0  # 0: no write

            if kind == BRANCH:
                tk_pc = (pc + 4 + (inst.imm << 2)) & _M
                ti = (tk_pc - base) >> 2
                fi = idx + 1
                body.append(f"    _tk = {expr}")
                if warm:
                    # GsharePredictor.update, inline (its return value
                    # is not needed): step the indexed 2-bit counter
                    # toward the outcome and shift it into the history.
                    body.append("    _h = _gs.history")
                    body.append(f"    _gi = ({pc >> 2} ^ _h) & _gim")
                    body.append("    _c = _gt[_gi]")
                    body.append("    if _tk:")
                    body.append("        if _c < 3:")
                    body.append("            _gt[_gi] = _c + 1")
                    body.append("    elif _c:")
                    body.append("        _gt[_gi] = _c - 1")
                    body.append("    _gs.history = ((_h << 1) | _tk) & _ghm")
                if last or cont is None:
                    # terminal branch: return on both edges
                    if trace:
                        body.append(f"    _npc = {tk_pc} if _tk else {npc}")
                        rec(pc, k, a, b, 0, -1, "_tk", "_npc")
                        exit_lines("_npc", k + 1, -1)
                    else:
                        exit_lines(
                            f"{tk_pc} if _tk else {npc}",
                            k + 1,
                            f"{enc(ti, k + 1)} if _tk else {enc(fi, k + 1)}",
                        )
                elif cont == "taken":
                    body.append("    if not _tk:")
                    rec(pc, k, a, b, 0, -1, False, npc, indent="        ")
                    exit_lines(npc, k + 1, fi, indent="        ")
                    rec(pc, k, a, b, 0, -1, True, tk_pc)
                else:  # cont == "fall"
                    body.append("    if _tk:")
                    rec(pc, k, a, b, 0, -1, True, tk_pc, indent="        ")
                    exit_lines(tk_pc, k + 1, ti, indent="        ")
                    rec(pc, k, a, b, 0, -1, False, npc)
                continue

            link = row.dest is not None
            if kind == JUMP:
                target = (((pc + 4) & 0xF000_0000) | (inst.target << 2)) & _M
                ti = (target - base) >> 2
                rec(pc, k, a, b, pc + 4 if link else 0, -1, True, target)
                if link:
                    if warm:
                        body.append(f"    _rpu({(pc + 4) & _M})")
                    wreg(rn, str(pc + 4))
                if last or cont is None:
                    exit_lines(target, k + 1, ti)
                continue

            if kind == IJUMP:
                body.append(f"    _npc = {expr}")
                if warm:
                    if link:
                        body.append(f"    _btu({pc}, _npc)")
                        body.append(f"    _rpu({(pc + 4) & _M})")
                    elif inst.rs == 31:  # return: maintain the RAS
                        body.append("    _rpo()")
                    else:
                        body.append(f"    _btu({pc}, _npc)")
                rec(pc, k, a, b, pc + 4 if link else 0, -1, True, "_npc")
                if rn:
                    wreg(rn, str(pc + 4))
                if trace:
                    exit_lines("_npc", k + 1, -1)
                else:
                    for r in commits:
                        body.append(f"    R[{r}] = r{r}")
                    body.append("    m.pc = _npc")
                    body.append(f"    m.instret += {k + 1}")
                    body.append(f"    _t = _npc - {base}")
                    body.append(
                        f"    return ((((_t >> 2) + 1) << 8) | {k + 1})"
                        f" if (0 <= _t < {4 * size} and not _t & 3) else {k + 1}"
                    )
                continue

            if kind == LOAD:
                width = row.width
                read = f"_r{ACCESS[width][0]}(_ma)"
                body.append(f"    _ma = {ADDR.format_map(ops)}")
                wd()
                if trace:
                    if row.signed:
                        body.append(f"    _t = {read}")
                        read = sext("_t", width)
                    body.append(f"    _v = {read}")
                    rec(pc, k, a, b, "_v", "_ma", False, npc)
                    if rn:
                        wreg(rn, "_v")
                else:
                    # Run and warm variants: the page store is read
                    # inline (an aligned access never crosses a 4 KiB page).  A
                    # misaligned address calls the scalar accessor, which
                    # raises AlignmentError; a load into $zero keeps only
                    # that fault.
                    if width > 1:
                        body.append(f"    if _ma & {width - 1}:")
                        body.append(f"        {read}")
                    if rn:
                        body.append("    _pg = _pgs.get(_ma >> 12)")
                        if width == 1:
                            value = "_pg[_ma & 4095] if _pg is not None else 0"
                        else:
                            body.append("    _o = _ma & 4095")
                            parts = ["_pg[_o]"]
                            parts += [f"(_pg[_o + {i}] << {8 * i})" for i in range(1, width)]
                            value = f"({' | '.join(parts)}) if _pg is not None else 0"
                        if row.signed:
                            body.append(f"    _t = {value}")
                            value = sext("_t", width)
                        wreg(rn, value)
            elif kind == STORE:
                width = row.width
                body.append(f"    _ma = {ADDR.format_map(ops)}")
                wd()
                write = f"_w{ACCESS[width][0]}(_ma, {expr})"
                if trace:
                    body.append(f"    {write}")
                    image = expr if width == 4 else f"({expr} & {(1 << 8 * width) - 1})"
                    rec(pc, k, a, b, image, "_ma", False, npc)
                else:
                    # Run and warm variants: the page store is written
                    # inline (an aligned access never crosses a 4 KiB page).  A
                    # misaligned address calls the scalar accessor, which
                    # raises AlignmentError; a missing page allocates.
                    if width > 1:
                        body.append(f"    if _ma & {width - 1}:")
                        body.append(f"        {write}")
                    body.append("    _pg = _pgs.get(_ma >> 12)")
                    body.append("    if _pg is None:")
                    body.append(f"        {write}")
                    body.append("    else:")
                    if width == 1:
                        body.append(f"        _pg[_ma & 4095] = {expr} & 255")
                    else:
                        body.append("        _o = _ma & 4095")
                        body.append(f"        _pg[_o] = {expr} & 255")
                        for i in range(1, width):
                            body.append(f"        _pg[_o + {i}] = ({expr} >> {8 * i}) & 255")
            else:  # value kinds
                for line in row.pre:
                    body.append(f"    {line.format_map(ops)}")
                if trace:
                    if not row.direct:
                        body.append(f"    _v = {expr}")
                        expr = "_v"
                    rec(pc, k, a, b, expr, -1, False, npc)
                if rn:
                    wreg(rn, expr)
            if last:
                exit_lines(npc, n, idx + 1)

        params = (
            "R", "_pgs", "_rw", "_ww", "_rh", "_wh", "_rb", "_wb",
            "_TR", "_I", "_f32", "_b32", "_fsqrt", "_fcvtws",
            "_isnan", "_cs", "_nan", "_inf", "_abs", "_flt",
        )
        if warm:
            params += _WARM_NAMES
        lines = ["def _blk(m, " + ", ".join(f"{p}={p}" for p in params) + "):"]
        if trace:
            lines.append("    _rec = []")
            lines.append("    _ap = _rec.append")
        # Source line -> position of the item that emitted it (the line
        # numbers are 1-based; the header lines map to item 0).
        owner = [0] * (len(lines) + 1)
        for (first, pos), (end, _) in zip(starts, starts[1:] + [(len(body), None)]):
            owner.extend([pos] * (end - first))
        lines.extend(body)
        src = "\n".join(lines) + "\n"

        entry_pc = base + 4 * items[0][0]
        pcs = tuple(base + 4 * idx for idx, _, _ in items)
        return (
            compile(src, f"<block:{variant}@{entry_pc:#x}>", "exec"),
            tuple(inst for _, inst, _ in items),
            (tuple(owner), pcs),
        )

    def _bind(self, code, insts, unwind) -> object:
        """Exec a cached block code object against this machine's state.

        Binding is ~100x cheaper than compiling, which is what makes
        the per-program code cache pay off across machines.
        """
        machine = self.m
        mem = machine.memory
        env = dict(HELPERS)
        env.update({
            "R": machine.regs,
            "_pgs": mem._pages,
            "_rw": mem.read_word, "_ww": mem.write_word,
            "_rh": mem.read_half, "_wh": mem.write_half,
            "_rb": mem.read_byte, "_wb": mem.write_byte,
            "_I": insts,
            "_UNWIND": unwind,
        })
        sink = machine._warm_sink
        if sink is not None:
            # Bound per machine, never folded into the source: the code
            # object is shared by every machine over the program, and a
            # warm variant bound without a sink fails its exec loudly.
            hierarchy, predictor = sink
            l1d, gshare = hierarchy.l1d, predictor.gshare
            env.update({
                "_wd": hierarchy.warm_data,
                "_d1s": l1d._sets, "_d1o": l1d._off, "_d1m": l1d._mask, "_d1t": l1d._tshift,
                "_wi": hierarchy.warm_instruction,
                "_gs": gshare, "_gt": gshare.table,
                "_gim": gshare.index_mask, "_ghm": gshare.history_mask,
                "_btu": predictor.btb.update,
                "_rpu": predictor.ras.push,
                "_rpo": predictor.ras.pop,
            })
        exec(code, env)
        return env["_blk"]

    # ----------------------------------------------------------------- replay

    def replay(self, machine, original):
        """Resume a compiled body that raised at its faulting instruction.

        A body commits nothing before it raises, and executing an item
        never writes before its own fault point, so the body's frame
        (still reachable from *original*'s traceback) holds the
        reference state at the fault: its line number names the
        faulting item through the codegen's unwind table, its live
        ``r<N>`` locals are the register values, and the trace
        variant's ``_rec`` holds the records retired so far.  This
        commits those registers, sets ``pc``/``instret`` to the
        faulting item and yields the record of each retired
        instruction (``None`` outside the trace variant); then the
        faulting item's bound handler re-raises the
        reference exception.  If it does not raise, the compiled body
        disagreed with the handlers, which is a divergence, not a
        guest fault.
        """
        _run_context().count("compiler.replays")
        tb = original.__traceback__
        while tb is not None and not tb.tb_frame.f_code.co_filename.startswith("<block:"):
            tb = tb.tb_next
        if tb is None:
            raise DispatchDivergence(
                f"compiled block raised {original!r} outside its body"
            ) from original
        frame = tb.tb_frame
        owner, pcs = frame.f_globals["_UNWIND"]
        retired = owner[tb.tb_lineno]
        local = frame.f_locals
        regs = machine.regs
        for name, value in local.items():
            if name[0] == "r" and name[1:].isdigit():
                regs[int(name[1:])] = value
        machine.pc = pcs[retired]
        machine.instret += retired
        records = local.get("_rec")
        for i in range(retired):
            yield None if records is None else records[i]
        machine._bound[(machine.pc - self.base) >> 2](machine, True)
        raise DispatchDivergence(
            f"compiled block raised {original!r} but its faulting instruction did not"
        ) from original


# ------------------------------------------------------------- cross-check

def cross_check_blocks(program, max_steps: int = 100_000, threshold: int = 0):
    """Differentially execute *program*: blocks tier vs golden reference.

    The blocks machine streams records through its trace generator
    (architecturally it runs ahead to the next block exit); the
    reference machine steps one instruction per record.  Every
    :class:`TraceRecord` and the final architectural state must match.

    Returns the number of instructions compared.

    Raises:
        DispatchDivergence: first record (or final state) mismatch.
    """
    from repro.emulator.machine import Machine

    blk = Machine(program, dispatch="blocks", block_threshold=threshold)
    gold = Machine(program, dispatch="reference")
    stream = blk.trace(max_steps)
    n = 0
    while not gold.halted and n < max_steps:
        want = gold.step_reference()
        got = next(stream, None)
        if want != got:
            raise DispatchDivergence(
                f"step {n}: blocks tier produced {got!r}, reference produced {want!r}"
            )
        n += 1
    stream.close()
    if blk.regs != gold.regs:
        raise DispatchDivergence("final register files differ")
    if blk.pc != gold.pc or blk.halted != gold.halted or blk.output != gold.output:
        raise DispatchDivergence("final machine state differs")
    return n


__all__ = [
    "BlockEngine",
    "cross_check_blocks",
    "stats",
    "telemetry",
    "DEFAULT_THRESHOLD",
    "JIT_LANE",
    "MAX_BLOCK_LEN",
    "MIN_BLOCK_LEN",
]
