"""Workload registry.

Maps the paper's Table 1 benchmark names to synthetic workload builders
and exposes uniform construction, tracing and scaling helpers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache

from repro.isa.assembler import Program, assemble, program_digest
from repro.workloads.calibration import CALIBRATION

#: Iteration counts of the two calibration runs the skip fit uses.
CALIBRATION_ITERS: tuple[int, int] = (1, 2)

#: Input profiles (the SPEC test/train/ref analogue): name → footprint
#: divisor.  Workloads with intrinsic sizes (go's 19x19 board, vpr's
#: grid) clamp the divisor to what their kernel supports.
PROFILES: dict[str, int] = {"test": 4, "train": 2, "ref": 1}

#: The 11 benchmark names from the paper's Table 1, in table order.
BENCHMARK_NAMES: tuple[str, ...] = (
    "bzip", "gcc", "go", "gzip", "ijpeg", "li",
    "mcf", "parser", "twolf", "vortex", "vpr",
)

_DESCRIPTIONS: dict[str, str] = {
    "bzip": "run-length coding over a byte buffer (compression)",
    "gcc": "token scanner + symbol hash table (compiler front end)",
    "go": "board-position heuristic evaluation (game tree leaf)",
    "gzip": "LZ77 window matching with a hash head table (deflate)",
    "ijpeg": "8x8 integer block transform + quantization (image codec)",
    "li": "cons-cell interpreter with mark/sweep GC (lisp)",
    "mcf": "network-arc reduced-cost relaxation (min-cost flow)",
    "parser": "dictionary hash lookup with string compares (link parser)",
    "twolf": "annealing-style cell swap/cost evaluation (placement)",
    "vortex": "pointer-rich object store traversal (OO database)",
    "vpr": "wavefront grid expansion (FPGA routing)",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark: name, provenance, and a parameterized builder."""

    name: str
    description: str
    default_iters: int

    def source(self, iters: int | None = None, profile: str = "ref") -> str:
        """Assembly source with the given iteration count and profile."""
        return _source(self.name, iters if iters is not None else self.default_iters, profile)

    def build(self, iters: int | None = None, profile: str = "ref") -> Program:
        """Assemble this workload (cached per iteration count/profile)."""
        return _build_cached(
            self.name, iters if iters is not None else self.default_iters, profile
        )

    def run(self, iters: int | None = None, max_steps: int = 50_000_000, profile: str = "ref"):
        """Run to completion; returns the finished machine (self-check aid)."""
        from repro.emulator.machine import Machine

        machine = Machine(self.build(iters, profile))
        machine.run(max_steps)
        return machine

    def run_checked(
        self,
        iters: int | None = None,
        max_steps: int = 50_000_000,
        profile: str = "ref",
        wall_timeout: float | None = None,
    ):
        """Run to completion under a watchdog and verify the self-check.

        Returns the finished machine.

        Raises:
            RunawayExecution: the guest did not halt within *max_steps*
                or *wall_timeout* seconds.
            GuestSelfCheckFailure: the guest halted without printing its
                ``<name>:<checksum>`` banner.
        """
        from repro.emulator.machine import Machine
        from repro.harness.errors import RunawayExecution
        from repro.harness.selfcheck import verify_guest_output
        from repro.harness.watchdog import Watchdog

        machine = Machine(self.build(iters, profile))
        watchdog = (
            Watchdog(max_seconds=wall_timeout, label=f"run[{self.name}]")
            if wall_timeout is not None
            else None
        )
        machine.run(max_steps, watchdog=watchdog)
        if not machine.halted:
            raise RunawayExecution(
                f"{self.name}: guest still running after {max_steps} instructions"
            )
        verify_guest_output(machine, self.name)
        return machine

    @property
    def skip_hint(self) -> int:
        """Dynamic instructions spent in one-time initialization.

        The paper fast-forwards a fixed count past program startup
        before measuring; this is the equivalent knob at our scale.
        With T(i) = init + i*per_iteration, the init cost is
        2*T(1) - T(2).  The value is committed per workload and profile
        (:mod:`repro.workloads.calibration`) and served while the two
        calibration images still match their recorded digests; an
        edited workload or assembler re-runs the two-run fit instead.
        """
        return _skip_hint_cached(self.name, "ref")

    def iters_for_budget(self, budget: int, profile: str = "ref") -> int:
        """Iteration count scaled so the guest outlives *budget*.

        Long-horizon variant knob for the statistical-sampling gate
        set: returns an iteration count at which the workload retires
        at least ``init + budget`` dynamic instructions before halting,
        from the same committed (or, on a digest mismatch, re-fitted)
        calibration that backs :attr:`skip_hint` (T(i) = init +
        i*per_iteration).  One extra iteration of margin absorbs
        calibration rounding, so a sampled run over *budget* post-skip
        instructions never falls off the end of the guest.
        """
        init, per_iter = _iter_costs_cached(self.name, profile)
        need = -(-budget // per_iter) + 1  # ceil + margin
        return max(self.default_iters, need)

    def trace(
        self,
        max_steps: int,
        iters: int | None = None,
        skip: int | None = None,
        profile: str = "ref",
        watchdog=None,
    ):
        """Steady-state trace: skips initialization by default.

        *watchdog* (a :class:`~repro.harness.watchdog.Watchdog`) bounds
        the skip fast-forward and the traced window together.
        """
        from repro.emulator.machine import Machine
        from repro.obs.guestprof import suspended_guest_profile

        machine = Machine(self.build(iters, profile))
        if skip is None:
            skip = _skip_hint_cached(self.name, profile)
        # The fast-forward stays out of any active guest profile: the
        # profile covers exactly the traced window, so a cold collection
        # and a cache-hit replay count the same instructions.
        with suspended_guest_profile():
            machine.run(skip, watchdog=watchdog)
        yield from machine.trace(max_steps, watchdog=watchdog)


def _divisor(profile: str) -> int:
    try:
        return PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}") from None


def _source(name: str, iters: int, profile: str) -> str:
    module = importlib.import_module(f"repro.workloads.{name}")
    return module.source(iters, footprint_divisor=_divisor(profile))


@lru_cache(maxsize=128)
def _build_cached(name: str, iters: int, profile: str = "ref") -> Program:
    return assemble(_source(name, iters, profile))


@lru_cache(maxsize=None)
def _iter_costs_cached(name: str, profile: str = "ref") -> tuple[int, int]:
    """Calibrated ``(init, per_iteration)`` dynamic instruction costs.

    Both the skip hint (init) and the long-horizon budget scaling
    (per_iteration) derive from this one cached lookup.  It returns the
    committed pair from :mod:`repro.workloads.calibration` when both
    recorded image digests match freshly assembled calibration images,
    and otherwise runs :func:`fit_iter_costs`: a stale or missing entry
    costs time, never a different result.
    """
    entry = CALIBRATION.get((name, profile))
    if entry is not None and entry[2:] == calibration_digests(name, profile):
        return entry[:2]
    return fit_iter_costs(name, profile)


def fit_iter_costs(name: str, profile: str = "ref") -> tuple[int, int]:
    """Fit ``(init, per_iteration)`` by running the guest to completion.

    Two runs, at ``iters=1`` and ``iters=2``, fit T(i) = init +
    i*per_iteration, so init = 2*T(1) - T(2).  This is the estimator
    behind every committed calibration entry and its oracle
    (``scripts/calibrate_workloads.py`` regenerates the table with it).
    """
    from repro.emulator.machine import Machine
    from repro.obs.guestprof import suspended_guest_profile

    lengths = []
    # Calibration runs are bookkeeping, not the measured window — keep
    # them out of any active guest profile.
    with suspended_guest_profile():
        for iters in CALIBRATION_ITERS:
            machine = Machine(_build_cached(name, iters, profile))
            machine.run(20_000_000)
            lengths.append(machine.instret)
    init = max(0, 2 * lengths[0] - lengths[1])
    per_iter = max(1, lengths[1] - lengths[0])
    return init, per_iter


def calibration_digests(name: str, profile: str = "ref") -> tuple[str, ...]:
    """SHA-256 image digests of the two calibration programs.

    Assembled afresh and dropped at once, so checking a committed entry
    leaves no image behind in :func:`_build_cached`.
    """
    return tuple(
        program_digest(assemble(_source(name, iters, profile)))
        for iters in CALIBRATION_ITERS
    )


def _skip_hint_cached(name: str, profile: str = "ref") -> int:
    return _iter_costs_cached(name, profile)[0]


def skip_hint(name: str, profile: str = "ref") -> int:
    """Public skip-hint lookup (initialization instructions to skip)."""
    return _iter_costs_cached(name, profile)[0]


@lru_cache(maxsize=None)
def get_workload(name: str) -> Workload:
    """Look up a workload by benchmark name."""
    if name not in BENCHMARK_NAMES:
        raise KeyError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    module = importlib.import_module(f"repro.workloads.{name}")
    return Workload(name=name, description=_DESCRIPTIONS[name], default_iters=module.DEFAULT_ITERS)


def iter_workloads():
    """Yield all 11 workloads in Table 1 order."""
    for name in BENCHMARK_NAMES:
        yield get_workload(name)


def build_program(name: str, iters: int | None = None) -> Program:
    """Assemble benchmark *name* (convenience wrapper)."""
    return get_workload(name).build(iters)
