"""KafkaIO: reading from and writing to the broker (paper Figure 13).

Mirrors the Java KafkaIO surface the paper describes: ``read()`` creates a
Read PTransform producing ``KafkaRecord`` elements; calling
``without_metadata()`` on it appends the ParDo that drops the Kafka
metadata, leaving KV pairs; ``write()`` expands into a ParDo ensuring KV
shape followed by the write primitive.  Those extra ParDos are precisely
the ``ParDoTranslation.RawParDo`` operators visible in the paper's Beam
execution plan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterator, Sequence

from repro.beam.errors import BeamError
from repro.beam.pvalue import PBegin, PCollection, PDone, PValue
from repro.beam.transforms.core import DoFn, ParDo, PTransform
from repro.broker import BrokerCluster, Consumer, RecordSlice, TopicPartition
from repro.dataflow.kernels import KernelSpec, RecordColumn


@dataclass(frozen=True, slots=True)
class KafkaRecord:
    """A record as produced by the Read transform (with metadata)."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    key: Any
    value: Any

    def kv(self) -> tuple[Any, Any]:
        """The (key, value) view used by ``withoutMetadata``."""
        return (self.key, self.value)


class KafkaRecordColumn(RecordColumn):
    """The Read transform's output: KafkaRecords kept as broker column slices.

    An immutable sequence over the per-partition slices a columnar poll
    returned, partition-major in offset order.  A :class:`KafkaRecord`
    is built only when an element is indexed or iterated, so every path
    that reads records — the reference tier, the DirectRunner, recovery,
    a DoFn reading ``record.offset`` — still gets real ones.  A
    contiguous slice is a sub-column over the same slices, and
    ``withoutMetadata``'s kernel zips :meth:`kv_slices` without building
    any record at all.
    """

    __slots__ = ("_slices", "_starts", "_length")

    def __init__(self, slices: Sequence[RecordSlice]) -> None:
        self._slices = tuple(piece for piece in slices if len(piece))
        starts = []
        length = 0
        for piece in self._slices:
            starts.append(length)
            length += len(piece)
        self._starts = starts
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[KafkaRecord]:
        for piece in self._slices:
            yield from map(
                KafkaRecord,
                repeat(piece.topic),
                repeat(piece.partition),
                range(piece.offset, piece.offset + len(piece)),
                piece.timestamps,
                repeat(None) if piece.keys is None else piece.keys,
                piece.values,
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            return self._window(start, stop)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("KafkaRecordColumn index out of range")
        k = bisect_right(self._starts, index) - 1
        piece = self._slices[k]
        row = index - self._starts[k]
        return KafkaRecord(
            piece.topic,
            piece.partition,
            piece.offset + row,
            piece.timestamps[row],
            None if piece.keys is None else piece.keys[row],
            piece.values[row],
        )

    def _window(self, start: int, stop: int) -> "KafkaRecordColumn":
        """Elements ``[start, stop)`` as a sub-column."""
        pieces = []
        if start < stop:
            for k in range(bisect_right(self._starts, start) - 1, len(self._slices)):
                base = self._starts[k]
                if base >= stop:
                    break
                piece = self._slices[k]
                lo, hi = max(start - base, 0), min(stop - base, len(piece))
                whole = lo == 0 and hi == len(piece)
                pieces.append(piece if whole else piece.window(lo, hi))
        return KafkaRecordColumn(pieces)

    def kv_slices(self) -> list[tuple[Sequence[Any] | None, Sequence[Any]]]:
        return [(piece.keys, piece.values) for piece in self._slices]


class KafkaRead(PTransform):
    """The Read primitive: a root transform over a broker topic."""

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        bounded: bool = True,
        label: str | None = None,
    ) -> None:
        super().__init__(label or f"KafkaIO.Read({topic})")
        self.cluster = cluster
        self.topic = topic
        self.bounded = bounded

    def expand(self, input_value: PValue) -> PCollection:
        if not isinstance(input_value, PBegin):
            raise BeamError("KafkaIO.Read must be applied to the pipeline root")
        return PCollection(input_value.pipeline, is_bounded=self.bounded)

    def read_records(self) -> KafkaRecordColumn:
        """Everything currently in the topic, as a record column (used by runners).

        One consumer polls every partition in 10,000-record requests,
        building no per-record object; records come out partition-major
        in offset order.
        """
        cluster = self.cluster
        # A reader slot before the consumer, as a bounded reader takes:
        # client ids name the chaos retry streams, so every later client's
        # draws depend on how many ids this read registers.
        cluster.register_client()
        partitions = cluster.topic(self.topic).num_partitions
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition(self.topic, p) for p in range(partitions)])
        slices: list[RecordSlice] = []
        while True:
            batch = consumer.poll_columns(max_records=10_000)
            if not batch:
                break
            slices.extend(batch)
        consumer.close()
        return KafkaRecordColumn(slices)


class _DropMetadataDoFn(DoFn):
    """``withoutMetadata()``: KafkaRecord → (key, value)."""

    cost_weight = 0.2
    kernel_spec = KernelSpec.record_kv()

    def process(self, element: KafkaRecord) -> tuple[tuple[Any, Any], ...]:
        return (element.kv(),)

    def default_label(self) -> str:
        return "withoutMetadata"


class ReadFromKafka(PTransform):
    """Composite read: the Read primitive plus optional metadata dropping.

    ``read(...).without_metadata()`` mirrors the Java builder chain the
    paper walks through when explaining Figure 13.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        bounded: bool = True,
        label: str | None = None,
    ) -> None:
        super().__init__(label or f"ReadFromKafka({topic})")
        self.cluster = cluster
        self.topic = topic
        self.bounded = bounded
        self._without_metadata = False

    def without_metadata(self) -> "ReadFromKafka":
        """Drop Kafka metadata, producing KV pairs (returns self)."""
        self._without_metadata = True
        return self

    def expand(self, input_value: PValue) -> PCollection:
        pcoll = input_value.pipeline.apply(
            KafkaRead(self.cluster, self.topic, self.bounded, label=f"{self.label}/Read"),
            input_value,
        )
        if self._without_metadata:
            pcoll = input_value.pipeline.apply(
                ParDo(_DropMetadataDoFn(), label=f"{self.label}/withoutMetadata"),
                pcoll,
            )
        return pcoll


class _EnsureKvDoFn(DoFn):
    """``write()``'s input adapter: values become (None, value) pairs."""

    cost_weight = 0.2
    kernel_spec = KernelSpec.ensure_kv()

    def process(self, element: Any) -> tuple[tuple[Any, Any], ...]:
        if isinstance(element, tuple) and len(element) == 2:
            return (element,)
        return ((None, element),)

    def default_label(self) -> str:
        return "Kafka values to KV"


class KafkaWrite(PTransform):
    """The write primitive: terminal transform into a broker topic."""

    def __init__(self, cluster: BrokerCluster, topic: str, label: str | None = None) -> None:
        super().__init__(label or f"KafkaIO.Write({topic})")
        self.cluster = cluster
        self.topic = topic

    def expand(self, input_value: PValue) -> PDone:
        if not isinstance(input_value, PCollection):
            raise BeamError("KafkaIO.Write must be applied to a PCollection")
        return PDone(input_value.pipeline)


class WriteToKafka(PTransform):
    """Composite write: KV-shaping ParDo plus the write primitive."""

    def __init__(self, cluster: BrokerCluster, topic: str, label: str | None = None) -> None:
        super().__init__(label or f"WriteToKafka({topic})")
        self.cluster = cluster
        self.topic = topic

    def expand(self, input_value: PValue) -> PDone:
        pipeline = input_value.pipeline
        kvs = pipeline.apply(
            ParDo(_EnsureKvDoFn(), label=f"{self.label}/EnsureKV"), input_value
        )
        return pipeline.apply(
            KafkaWrite(self.cluster, self.topic, label=f"{self.label}/Write"), kvs
        )


def read(cluster: BrokerCluster, topic: str, bounded: bool = True) -> ReadFromKafka:
    """``kafka.read(...)``: builder-style entry point."""
    return ReadFromKafka(cluster, topic, bounded)


def write(cluster: BrokerCluster, topic: str) -> WriteToKafka:
    """``kafka.write(...)``: builder-style entry point."""
    return WriteToKafka(cluster, topic)
