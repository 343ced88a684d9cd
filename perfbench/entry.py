"""Child bootstrap for one untraced workload run.

Usage::

    python3 perfbench/entry.py MARKFILE MODULE [ARG ...]

Imports MODULE (a program entry point such as ``repro.experiments.report``),
writes the mark -- the monotonic clock and the process's own CPU time at that
moment -- to MARKFILE, then calls ``MODULE.main([ARG ...])`` exactly as the
installed console script would.  The mark splits the run into set-up
(interpreter start plus imports) and the rest.  With the single argument
``--import-only`` the child exits right after the mark.

Only ``os``, ``sys`` and ``time`` are imported before MODULE, so the mark
measures the program's own start-up.  Spawned sweep workers re-import this
file as ``__mp_main__``; the ``__main__`` guard keeps that import inert.
"""

import os
import sys
import time


def write_mark(path: str) -> None:
    """Record the end of set-up: monotonic time and CPU time so far."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, f"{time.monotonic()!r} {time.process_time()!r}\n".encode())
    finally:
        os.close(fd)


def main() -> int:
    mark_path, module_name, *argv = sys.argv[1:]
    __import__(module_name)
    module = sys.modules[module_name]
    write_mark(mark_path)
    if argv == ["--import-only"]:
        return 0
    sys.argv = [module_name, *argv]
    return module.main(argv)


if __name__ == "__main__":
    sys.exit(main())
