"""``scripts/layer_table.py``: the performance doc's layer table, rendered
from perfbench's traced run records."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layer_table.py"
HOST = {"nproc": 2, "cpu": "Test CPU", "python": "3.11.7", "numpy": "2.4.6", "platform": "x"}


def _script():
    spec = importlib.util.spec_from_file_location("layer_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(directory: Path, name: str, workload: str, seed: int, layers: dict, mtime: float):
    path = directory / name
    path.write_text(json.dumps({"workload": workload, "seed": seed, "host": HOST,
                                "layers": layers}))
    os.utime(path, (mtime, mtime))


def test_renders_the_newest_traced_run_of_each_workload(tmp_path, capsys):
    _record(tmp_path, "sampled_sweep-seed3-trace1-20260101T000000-1.json", "sampled_sweep", 3,
            {"traced_wall.s": 9.0, "emulator.run_warm.s": 9.0}, mtime=1_000)
    _record(tmp_path, "sampled_sweep-seed7-trace1-20260102T000000-2.json", "sampled_sweep", 7,
            {"traced_wall.s": 2.0, "emulator.run_warm.s": 0.5, "sampling.sample.s": 0.001,
             "supervisor.worker_start.s": 0.26, "import.s": 0.1}, mtime=2_000)
    _record(tmp_path, "report_warm-seed1-trace1-20260101T000000-3.json", "report_warm", 1,
            {"traced_wall.s": 1.0, "tracefile.load.s": 0.01, "tracefile.unpack.s": 0.007,
             "characterization.lsq.s": 0.02, "characterization.tags.s": 0.015}, mtime=1_500)
    _record(tmp_path, "report_warm-seed1-trace0-20260103T000000-4.json", "report_warm", 1,
            {}, mtime=3_000)

    assert _script().main(["--results", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("Traced runs: report_warm seed 1, sampled_sweep seed 7 "
                        "(2-vCPU Test CPU, CPython 3.11.7, numpy 2.4.6).")
    assert lines[2] == "| layer | `report_warm` (1.00 s) | `sampled_sweep` (2.00 s) |"
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[4:]]
    rows = {label: values for label, *values in cells}
    assert rows["functional warming (`emulator.run_warm`)"] == ["—", "25%"]
    assert rows["characterization (Figures 2/4/6)"] == ["3.5%", "—"]
    assert rows["trace-cache read / write"] == ["1.7% / —", "— / —"]
    assert rows["sampling bookkeeping / worker start"] == ["— / —", "0.05% / 13%"]
    assert rows["imports"] == ["—", "5.0%"]
    assert len(rows) == len(_script().ROWS)


def test_no_traced_record_exits_1(tmp_path, capsys):
    assert _script().main(["--results", str(tmp_path)]) == 1
    assert "no traced perfbench run record" in capsys.readouterr().err
