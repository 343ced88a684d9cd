"""The run context's telemetry transport: one delta per drain, one merge.

A sweep worker drains its context into every reply and the orchestrator
merges each delta; these tests run both ends in one process.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import context
from repro.emulator import blocks
from repro.experiments import runner
from repro.obs.guestprof import GuestProfileCollector
from repro.obs.tracing import Tracer


def test_deltas_add_up_and_merging_them_reproduces_the_producer():
    producer = context.reset(
        tracer=Tracer(process="worker-1"), collector=GuestProfileCollector()
    )
    consumer = context.RunContext(tracer=Tracer(), collector=GuestProfileCollector())
    spans, traces, deltas = [], [], []
    for n in (1_000, 2_500):
        traces.append(runner.collect_trace("go", n, iters=1, skip=0))
        spans.extend(span.to_dict() for span in producer.tracer)
        engine = blocks.stats()
        deltas.append(producer.drain())
        assert blocks.stats() == engine  # a drain ships growth, never zeroes
        consumer.merge(deltas[-1])
    runner.clear_trace_cache()

    assert producer.counters["emulate.collections"] == 2
    assert producer.counters["compiler.blocks_compiled"] > 0
    total = Counter()
    for delta in deltas:
        total.update(delta["counters"])
    assert dict(total) == pytest.approx(producer.counters)
    assert consumer.counters == pytest.approx(producer.counters)

    assert spans and [span.to_dict() for span in consumer.tracer] == spans
    (profile,) = consumer.collector.benchmarks.values()
    assert profile.retired == sum(len(trace) for trace in traces)
    assert profile.counts == Counter(pc for trace in traces for pc in trace.pc[: len(trace)])

    # Nothing new since the last drain: no spans, no buckets, no growth.
    assert producer.drain() == {"spans": []}
    assert not producer.collector.benchmarks


def test_merge_folds_counters_without_recorders():
    """An orchestrator whose tracer and collector are off still counts
    its workers' work; an empty delta changes nothing."""
    consumer = context.RunContext()
    consumer.merge({"spans": [], "counters": {"emulate.collections": 1}})
    consumer.merge({"counters": {"emulate.collections": 2, "trace_cache.hits": 1}})
    consumer.merge(None)
    consumer.merge({})
    assert consumer.counters == {"emulate.collections": 3, "trace_cache.hits": 1}
    assert consumer.drain() == {"counters": consumer.counters}
    assert consumer.drain() == {}
