#!/usr/bin/env python
"""Generate a paper-fidelity regression report (``repro-report``).

Usage::

    python scripts/fidelity_report.py [-b li mcf] [-n 4000]
        [--out-md report.md] [--out-html report.html] [--no-fail]

Regenerates Figures 1, 2, 4, 6, 11, 12 and Table 1 at a small budget,
scores each paper claim against its tolerance band, renders CPI stacks
for the headline configurations, and, given ``--bench-dir DIR``, appends
run-over-run trend deltas from DIR's ``BENCH_*.json`` perf snapshots.
Exits 1 when any figure is out
of tolerance (the CI fidelity gate), unless ``--no-fail`` is given.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.report import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
