"""Child bootstrap for the traced run of one workload.

Usage::

    python3 perfbench/traced.py MARKFILE OUTFILE CALIBRATE MODULE [ARG ...]

Like ``entry.py``, but after the mark it wraps every layer entry point
(:mod:`layers`), computes the skip hints of the comma-separated CALIBRATE
benchmarks up front through the public ``skip_hint()`` (calibration
otherwise runs inside a private helper; the result is memoised per process,
so the work is the same), runs ``MODULE.main([ARG ...])`` and writes the
recorder's spans plus a few in-process facts to OUTFILE as JSON lines.

A spawned sweep worker re-imports this file as ``__mp_main__``; it then
installs the same wrappers, and its spans reach the orchestrator through
the program's own ``--trace-spans`` transport.
"""

import json
import sys

from entry import write_mark


def main() -> int:
    mark_path, out_path, calibrate, module_name, *argv = sys.argv[1:]
    __import__(module_name)
    module = sys.modules[module_name]
    write_mark(mark_path)

    import layers
    from repro.experiments import supervisor, trace_cache
    from repro.workloads import suite

    recorder = layers.install()
    for name in filter(None, calibrate.split(",")):
        suite.skip_hint(name)
    calibrations = suite._iter_costs_cached.cache_info().misses
    sys.argv = [module_name, *argv]
    status = module.main(argv)

    report = supervisor.last_report()
    facts = {
        # Calibrations that ran inside main(), outside any calibrate span.
        "hidden_calibrations": suite._iter_costs_cached.cache_info().misses - calibrations,
        "trace_cache": trace_cache.stats(),
        "supervisor": report.to_dict() if report is not None else None,
    }
    with open(out_path, "w") as fh:
        fh.write(json.dumps({"facts": facts}) + "\n")
        for span in recorder.own:
            fh.write(json.dumps(span.to_dict()) + "\n")
    return status


if __name__ == "__mp_main__":
    import layers

    layers.install()
elif __name__ == "__main__":
    sys.exit(main())
