"""Hierarchical metrics registry.

Components register metrics by dotted name (``sim.l1d.hits``,
``emulate.instructions``) into a :class:`MetricsRegistry`.  Two metric
kinds cover every count the repo produces:

* :class:`Counter` — monotonically increasing event count;
* :class:`Histogram` — fixed log2 buckets (bucket *k* holds values
  ``2**(k-1) < v <= 2**k``), the right shape for sizes that span
  orders of magnitude.

Where the time went is the span tracer's job (:mod:`repro.obs.tracing`),
and what ran is the run manifest's (:mod:`repro.obs.manifest`), so the
registry holds neither clocks nor copies of manifest fields.  It
serializes to a flat, sorted, schema-validated dict (see
:data:`METRICS_DUMP_FORMAT` and :func:`validate_metrics_dump`) so dumps
from different runs diff cleanly line-by-line.
"""

from __future__ import annotations

import json

#: Format tag embedded in every metrics dump.
METRICS_DUMP_FORMAT = 1

#: Number of log2 buckets (covers values up to 2**62, plus overflow).
HISTOGRAM_BUCKETS = 64

#: Metric kind → the fields its dump entry carries.
_DUMP_FIELDS = {"counter": ("value",), "histogram": ("count", "total", "buckets")}


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed log2-bucket histogram (bucket k: 2**(k-1) < v <= 2**k)."""

    __slots__ = ("name", "help", "buckets", "count", "total")
    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.buckets = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        iv = int(value)
        k = (iv - 1).bit_length() if iv > 0 else 0
        if k >= HISTOGRAM_BUCKETS:
            k = HISTOGRAM_BUCKETS - 1
        self.buckets[k] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def nonzero_buckets(self) -> dict[str, int]:
        """Sparse view: ``"<=2**k"`` → count, only occupied buckets."""
        return {f"le_2**{k}": c for k, c in enumerate(self.buckets) if c}

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "count": self.count,
            "total": self.total,
            "buckets": self.nonzero_buckets(),
        }


def _check_name(name: str) -> None:
    if not name or any(not part for part in name.split(".")):
        raise ValueError(f"metric name must be non-empty dotted segments, got {name!r}")


class MetricsRegistry:
    """Get-or-create store of metrics addressed by dotted name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    def _get_or_create(self, cls, name: str, help: str):
        _check_name(name)
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str):
        return self._metrics.get(name)

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict:
        """Schema-stable dump: sorted names, per-kind payloads."""
        return {
            "format": METRICS_DUMP_FORMAT,
            "metrics": {name: m.to_dict() for name, m in sorted(self._metrics.items())},
        }

    def to_json(self, manifest: dict | None = None) -> str:
        payload = self.to_dict()
        if manifest is not None:
            payload["manifest"] = manifest
        return json.dumps(payload, indent=2, sort_keys=True)


def validate_metrics_dump(payload: dict) -> None:
    """Validate a metrics dump against the expected schema.

    Raises:
        ValueError: wrong format tag, malformed names, unknown metric
            kinds, or missing per-kind fields.
    """
    if not isinstance(payload, dict):
        raise ValueError("metrics dump must be a dict")
    if payload.get("format") != METRICS_DUMP_FORMAT:
        raise ValueError(f"unsupported metrics dump format {payload.get('format')!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics dump missing 'metrics' mapping")
    for name, entry in metrics.items():
        _check_name(name)
        kind = entry.get("kind")
        if kind not in _DUMP_FIELDS:
            raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
        for field in _DUMP_FIELDS[kind]:
            if field not in entry:
                raise ValueError(f"metric {name!r}: {kind} entry missing {field!r}")


__all__ = [
    "Counter",
    "Histogram",
    "HISTOGRAM_BUCKETS",
    "METRICS_DUMP_FORMAT",
    "MetricsRegistry",
    "validate_metrics_dump",
]
