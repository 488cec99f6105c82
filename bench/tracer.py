"""Host-time spans around each layer's public entry points, installed from outside.

The program carries no tracing code: :meth:`Tracer.install` replaces each
target function or method with a wrapper that records a span (name, start,
end, parent) and a few counts, and :meth:`Tracer.uninstall` puts the
originals back.  Objects bind methods at call time, so installing between
operations traces exactly the operations that run while installed.

Spans are recorded on the main thread only.  Calls made from the shard
threads of the P=2 pump are counted, and their time stays inside the
enclosing main-thread span, so self times never overlap.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter
from time import perf_counter

#: (module, class or None, function, span name): one public entry point per layer.
TARGETS = (
    ("repro.workloads.aol", "AolWorkload", "columnar", "workloads.generate"),
    ("repro.benchmark.sender", "DataSender", "send", "sender.send"),
    ("repro.broker.producer", "Producer", "send_values", "broker.append"),
    ("repro.broker.consumer", "Consumer", "poll", "broker.poll"),
    ("repro.broker.consumer", "Consumer", "poll_values", "broker.poll_values"),
    ("repro.broker.consumer", "Consumer", "acknowledge", "broker.acknowledge"),
    ("repro.beam.io.kafka", "KafkaRead", "read_records", "beam.kafkaio_read"),
    ("repro.beam.runners.util", "DoFnAdapter", "process_batch", "beam.dofn"),
    ("repro.beam.pipeline", "Pipeline", "run", "beam.pipeline"),
    ("repro.engines.common.pump", "StreamPump", "run", "engines.pump"),
    ("repro.engines.common.sharded", "ShardedPump", "process_chunk", "engines.sharded_chunk"),
    ("repro.engines.common.io", "KafkaWriter", "write_chunk", "engines.emit"),
    ("repro.dataflow.compiler", None, "lower_stage", "dataflow.lower"),
    ("repro.benchmark.result_calculator", "ResultCalculator", "measure", "result_calculator.measure"),
    ("repro.benchmark.capacity", None, "run_probe", "capacity.probe"),
    ("repro.benchmark.loadgen", "LoadGenerator", "run", "loadgen.run"),
    ("repro.benchmark.parallel", "MatrixRunner", "run_cell", "parallel.cell"),
)

#: A producer append is ingest under these spans and emit under ``engines.emit``.
INGEST_PARENTS = ("sender.send", "loadgen.run")
EMIT_PARENT = "engines.emit"


def _count_append(counts, args, kwargs, result):
    values = args[2] if len(args) > 2 else kwargs["values"]
    counts["broker.append_calls"] += 1
    counts["broker.append_records"] += len(values)


def _count_lowering(counts, args, kwargs, result):
    counts["dataflow.lower_calls"] += 1
    counts["dataflow.lowered"] += result is not None


def _count_probe(counts, args, kwargs, result):
    counts["capacity.probes"] += 1
    counts["capacity.sustainable"] += result.sustainable


def _counter(key, size=False):
    def count(counts, args, kwargs, result):
        counts[key] += len(result) if size else 1

    return count


HOOKS = {
    "broker.append": _count_append,
    "broker.poll": _counter("broker.poll_records", size=True),
    "broker.poll_values": _counter("broker.poll_values_calls"),
    "beam.kafkaio_read": _counter("beam.kafka_records", size=True),
    "sender.send": _counter("sender.sends"),
    "engines.sharded_chunk": _counter("engines.sharded_chunk_calls"),
    "dataflow.lower": _count_lowering,
    "capacity.probe": _count_probe,
    "parallel.cell": _counter("parallel.cells"),
}


class Tracer:
    """Spans and counts of every traced call, kept in memory."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        #: ``(name, start, end, parent index or -1)``, in start order.
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list = []

    def install(self) -> None:
        for module, cls, attr, name in self.targets:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _span_name(self, name: str) -> str:
        if name != "broker.append":
            return name
        for _, parent in reversed(self._stack):
            if parent == EMIT_PARENT:
                return "broker.append_emit"
            if parent in INGEST_PARENTS:
                return "broker.append_ingest"
        return "broker.append_other"

    def _wrap(self, fn, name, hook):
        spans, stack, counts, lock = self.spans, self._stack, self.counts, self._lock
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                result = fn(*args, **kwargs)
                if hook is not None:
                    with lock:
                        hook(counts, args, kwargs, result)
                return result
            span = self._span_name(name)
            index = len(spans)
            spans.append(None)
            stack.append((index, span))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, stack[-1][0] if stack else -1)
            if hook is not None:
                with lock:
                    hook(counts, args, kwargs, result)
            return result

        return traced


def self_times(spans: list, lo: int, hi: int) -> dict[str, float]:
    """Self seconds per span name over ``spans[lo:hi]``.

    A span's self time is its duration minus its direct children's; the
    range must hold whole span trees (an operation's spans do).
    """
    own = [end - start for _, start, end, _ in spans[lo:hi]]
    for index in range(lo, hi):
        parent = spans[index][3]
        if parent >= lo:
            own[parent - lo] -= spans[index][2] - spans[index][1]
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans[lo:hi], own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals
