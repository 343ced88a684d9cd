"""Run manifests and perf snapshots.

Every observability artifact (metrics dump, event trace, results
archive) is only comparable across runs if we know *what* ran: this
module stamps runs with their provenance — config, seed, git SHA,
package versions, host — and writes the ``BENCH_<run>.json`` perf
snapshot (per-benchmark IPC, host-side simulation throughput, wall
time) that populates the repo's perf trajectory and makes regressions
diffable, in the spirit of uops.info's versioned artifact sets.

Nothing here hard-requires git or any package: provenance fields that
cannot be determined degrade to ``None`` rather than failing a run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.atomicio import atomic_write_json

#: Format tags embedded in the artifacts.
MANIFEST_FORMAT = 1
BENCH_SNAPSHOT_FORMAT = 1

#: Packages whose versions are provenance-relevant for a run.
_TRACKED_PACKAGES = ("numpy", "scipy", "pytest", "hypothesis", "pytest-benchmark")


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The commit SHA of the checkout containing *cwd*.

    Defaults to the directory of this source file — the SHA of the code
    that ran, regardless of where the driver was invoked from — and
    degrades to ``None`` for non-git installs.
    """
    if cwd is None:
        cwd = Path(__file__).parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def package_versions(names: tuple[str, ...] = _TRACKED_PACKAGES) -> dict[str, str]:
    """Installed versions of provenance-relevant packages (absent → skipped)."""
    from importlib import metadata

    versions: dict[str, str] = {}
    for name in names:
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            continue
    return versions


def build_manifest(
    config: dict | None = None,
    seed: int | None = None,
    argv: list[str] | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the provenance manifest for one run."""
    from repro import __version__

    manifest = {
        "format": MANIFEST_FORMAT,
        "created_unix": time.time(),
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "packages": package_versions(),
        "config": config or {},
        "seed": seed,
        "argv": list(argv) if argv is not None else list(sys.argv),
    }
    if extra:
        manifest.update(extra)
    return manifest


def validate_manifest(manifest: dict) -> None:
    """Raise ``ValueError`` unless *manifest* has the required shape."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a dict")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported manifest format {manifest.get('format')!r}")
    required = ("created_unix", "repro_version", "python", "platform", "packages", "config", "argv")
    for key in required:
        if key not in manifest:
            raise ValueError(f"manifest missing required key {key!r}")
    if "git_sha" not in manifest:
        raise ValueError("manifest missing 'git_sha' (use None when unknown)")
    if not isinstance(manifest["packages"], dict) or not isinstance(manifest["config"], dict):
        raise ValueError("manifest 'packages' and 'config' must be mappings")


# ------------------------------------------------------------ perf snapshot

def bench_snapshot(run: str, benchmarks: dict[str, dict], manifest: dict) -> dict:
    """Build a ``BENCH_<run>`` payload.

    *benchmarks* maps benchmark name → per-benchmark record; each record
    should carry ``ipc`` (per-config mapping or scalar),
    ``wall_seconds`` and ``instructions_per_second``.
    """
    total_wall = sum(float(b.get("wall_seconds", 0.0)) for b in benchmarks.values())
    return {
        "format": BENCH_SNAPSHOT_FORMAT,
        "kind": "bench-snapshot",
        "run": run,
        "manifest": manifest,
        "benchmarks": benchmarks,
        "totals": {"wall_seconds": total_wall, "benchmarks": len(benchmarks)},
    }


def validate_bench_snapshot(payload: dict) -> None:
    """Raise ``ValueError`` unless *payload* is a well-formed snapshot."""
    if not isinstance(payload, dict) or payload.get("kind") != "bench-snapshot":
        raise ValueError("not a bench-snapshot payload")
    if payload.get("format") != BENCH_SNAPSHOT_FORMAT:
        raise ValueError(f"unsupported bench-snapshot format {payload.get('format')!r}")
    validate_manifest(payload.get("manifest", {}))
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise ValueError("bench-snapshot missing 'benchmarks' mapping")
    for name, record in benchmarks.items():
        if not isinstance(record, dict):
            raise ValueError(f"benchmark {name!r}: record must be a mapping")
        for key in ("ipc", "wall_seconds", "instructions_per_second"):
            if key not in record:
                raise ValueError(f"benchmark {name!r}: record missing {key!r}")


def write_bench_snapshot(
    directory: str | Path,
    run: str,
    benchmarks: dict[str, dict],
    manifest: dict,
) -> Path:
    """Atomically write ``BENCH_<run>.json`` into *directory*; returns its path.

    An existing snapshot is never replaced: the name is reserved with an
    exclusive create, and a taken name moves the run to the first free
    ``<run>-<n>`` (``n`` from 2), so runs that end in the same second
    keep one snapshot each.
    """
    payload = bench_snapshot(run, benchmarks, manifest)
    validate_bench_snapshot(payload)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name, n = run, 1
    while True:
        path = directory / f"BENCH_{name}.json"
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            break
        except FileExistsError:
            n += 1
            name = f"{run}-{n}"
    payload["run"] = name
    try:
        atomic_write_json(path, payload)
    except BaseException:
        path.unlink(missing_ok=True)  # free the reserved name
        raise
    return path


def load_bench_snapshot(path: str | Path) -> dict:
    """Read and validate a snapshot file."""
    payload = json.loads(Path(path).read_text())
    validate_bench_snapshot(payload)
    return payload


__all__ = [
    "BENCH_SNAPSHOT_FORMAT",
    "MANIFEST_FORMAT",
    "bench_snapshot",
    "build_manifest",
    "git_sha",
    "load_bench_snapshot",
    "package_versions",
    "validate_bench_snapshot",
    "validate_manifest",
    "write_bench_snapshot",
]
