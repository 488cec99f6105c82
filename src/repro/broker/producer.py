"""The producer: batching sends with acks, retries and idempotence."""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.broker.broker import BrokerCluster
from repro.broker.errors import ProducerClosedError, TimestampTypeError
from repro.broker.log import PartitionLog
from repro.broker.records import ProducerRecord, TimestampType
from repro.broker.retry import RetryPolicy, run_with_retries


@dataclass(frozen=True)
class RecordMetadata:
    """Broker-assigned position of a produced record."""

    topic: str
    partition: int
    offset: int
    timestamp: float


def _stable_hash(key: Any) -> int:
    """A deterministic hash for partitioning (``hash`` is salted for str)."""
    if isinstance(key, int):
        return key
    data = repr(key).encode("utf-8")
    value = 2166136261
    for byte in data:
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value


class Producer:
    """Sends records to a :class:`BrokerCluster`, batching like Kafka.

    ``acks`` mirrors the Kafka producer setting the paper's data sender
    exposes as a configuration parameter:

    * ``0`` — fire and forget: no acknowledgement wait is charged;
    * ``1`` — leader acknowledgement (default);
    * ``"all"`` — acknowledgement from every replica, charged at
      ``acks_all_factor`` times the leader cost.

    Records accumulate in per-partition batches and are appended to the
    broker when a batch reaches ``batch_size`` or on :meth:`flush`.  Batching
    amortises the per-request overhead, as in Kafka.

    **Resilience.**  ``retries``/``delivery_timeout`` (or a full
    :class:`RetryPolicy` via ``retry_policy``) make every append ride out
    :class:`~repro.broker.errors.RetriableBrokerError` faults with capped
    exponential backoff charged in simulated time.  ``idempotent`` enables
    Kafka-style idempotent produce: the producer holds a broker-assigned
    producer id and stamps each batch with a per-partition sequence number,
    so a batch whose acknowledgement was lost is deduplicated on retry
    instead of appended twice — exactly-once delivery through broker
    faults.  Both default to the cluster-wide settings installed by
    :meth:`BrokerCluster.attach_chaos`, so chaos experiments harden every
    client at once.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        acks: int | str = 1,
        batch_size: int = 500,
        retries: int | None = None,
        delivery_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        idempotent: bool | None = None,
    ) -> None:
        if acks not in (0, 1, "all"):
            raise ValueError(f"acks must be 0, 1 or 'all', got {acks!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if retries is not None and retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.cluster = cluster
        self.acks = acks
        self.batch_size = batch_size
        if retry_policy is None and (retries is not None or delivery_timeout is not None):
            base = cluster.default_retry_policy or RetryPolicy()
            retry_policy = RetryPolicy(
                max_retries=base.max_retries if retries is None else retries,
                backoff_initial=base.backoff_initial,
                backoff_max=base.backoff_max,
                multiplier=base.multiplier,
                jitter=base.jitter,
                delivery_timeout=(
                    base.delivery_timeout
                    if delivery_timeout is None
                    else delivery_timeout
                ),
            )
        self.retry_policy = (
            retry_policy if retry_policy is not None else cluster.default_retry_policy
        )
        self.idempotent = (
            idempotent if idempotent is not None else cluster.default_idempotence
        )
        self.producer_id = cluster.register_producer()
        #: Retry jitter draws, derived by the producer's stream name when a
        #: retry policy first runs (deriving the stream is the cost).
        self._retry_rng: random.Random | None = None
        self._sequences: dict[tuple[str, int], int] = {}
        self._batches: dict[tuple[str, int], list[ProducerRecord]] = {}
        self._round_robin = 0
        self._closed = False
        self.records_sent = 0
        self.retries_performed = 0
        self.duplicates_avoided = 0

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: int | None = None,
        timestamp: float | None = None,
    ) -> None:
        """Queue one record for sending; flushes its batch when full."""
        if self._closed:
            raise ProducerClosedError("producer is closed")
        record = ProducerRecord(topic, value, key, partition, timestamp)
        target = self._choose_partition(record)
        batch_key = (topic, target)
        batch = self._batches.setdefault(batch_key, [])
        batch.append(record)
        if len(batch) >= self.batch_size:
            self._flush_batch(batch_key)

    def send_values(
        self,
        topic: str,
        values: Sequence[Any],
        partition: int = 0,
        *,
        rate: float | None = None,
    ) -> None:
        """Bulk fast path: send keyless values to one partition and flush.

        Without ``rate`` the call is one produce request, equivalent to
        calling :meth:`send` per value followed by :meth:`flush`, including
        the charged costs, but without building per-record envelopes or
        copying ``values`` (the log copies them into its own column storage
        on append; the caller's sequence is only read, never retained — so
        full-scale ingestion holds one copy of the workload, not two).  A
        columnar-plane :class:`~repro.dataflow.kernels.SlabColumn` — the
        sender's window of the workload, or the window or row selection a
        query emitted — passes straight through to
        :meth:`PartitionLog.append_batch`, which *adopts* it zero-copy
        instead of extending its value list; charging, retries and
        idempotent sequencing are byte-for-byte the list path's (a
        deduplicated replay never reaches the append, so it can never widen
        an adopted column).  The log stores one LogAppendTime run for the
        request.  When :meth:`BrokerCluster.direct_log` finds that the
        request cannot branch (no chaos, the leader up, no retry policy, a
        non-idempotent producer) it is charged and appended without the
        guarded path's per-attempt closure; a full bounded log still
        raises :class:`~repro.broker.errors.QueueFullError` from its own
        capacity check, after the same request charge.  Only valid for
        ``LogAppendTime`` topics — a
        ``CreateTime`` topic raises :class:`TimestampTypeError` (use
        :meth:`send`, which preserves producer timestamps, instead).

        With ``rate`` (records per simulated second) ``values`` go out as
        rate-paced requests of :attr:`batch_size` records: before each, the
        clock advances by its record count over ``rate``, the time the
        records occupy on the timeline.  When
        :meth:`BrokerCluster.reliable_log` finds that no request can fail
        and the producer is not idempotent, no request can retry or be
        deduplicated either, so the requests' clock is replayed in one pass
        (the same float additions in the same order: pacing, then the
        request charge) and the log takes the whole column with one
        LogAppendTime run per request (:meth:`PartitionLog.append_requests`).
        Otherwise each request is sent in turn, as one request without
        ``rate``.  Values,
        stamps, the final clock and :attr:`records_sent` are the same
        either way.
        """
        if self._closed:
            raise ProducerClosedError("producer is closed")
        if rate is None:
            self._send_request(topic, partition, values)
        else:
            self._send_paced(topic, partition, values, rate)

    def _send_request(self, topic: str, partition: int, values: Sequence[Any]) -> None:
        """One produce request of keyless ``values`` (none if empty).

        When :meth:`BrokerCluster.direct_log` finds that the request cannot
        branch it is charged and appended directly, else it takes the
        guarded path; a full bounded log raises
        :class:`~repro.broker.errors.QueueFullError` after the request
        charge either way.
        """
        count = len(values)
        if not count:
            return
        cluster = self.cluster
        log = cluster.direct_log(topic, partition, self.retry_policy, self.idempotent)
        direct = log is not None
        if not direct:
            log = cluster.partition_log(topic, partition)
        if log.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            raise TimestampTypeError(
                topic,
                required=TimestampType.LOG_APPEND_TIME.value,
                actual=log.timestamp_type.value,
            )
        if direct:
            cluster.simulator.charge(self._request_charge(count))
            log.append_batch(values)
            self.records_sent += count
            return
        self._append_guarded(
            topic, partition, count, lambda log: log.append_batch(values)
        )

    def _send_paced(
        self, topic: str, partition: int, values: Sequence[Any], rate: float
    ) -> None:
        """The ``rate`` form of :meth:`send_values`."""
        batch_size, total = self.batch_size, len(values)
        log = None if self.idempotent else self.cluster.reliable_log(topic, partition)
        if log is None or log.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            for start in range(0, total, batch_size):
                batch = values[start : start + batch_size]
                self.cluster.simulator.charge(len(batch) / rate)
                self._send_request(topic, partition, batch)
            return
        clock = self.cluster.simulator.clock
        now = clock.now()
        stamps = array("d")
        pace, charge = batch_size / rate, self._request_charge(batch_size)
        for start in range(0, total, batch_size):
            count = total - start
            if count < batch_size:
                pace, charge = count / rate, self._request_charge(count)
            now += pace
            now += charge
            stamps.append(now)
        log.append_requests(values, batch_size, stamps)
        clock.advance_to(now)
        self.records_sent += total

    def flush(self) -> None:
        """Append every queued batch to the broker."""
        if self._closed:
            raise ProducerClosedError("producer is closed")
        for batch_key in list(self._batches):
            self._flush_batch(batch_key)

    def close(self) -> None:
        """Flush outstanding batches and mark the producer closed."""
        if not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "Producer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _choose_partition(self, record: ProducerRecord) -> int:
        topic = self.cluster.topic(record.topic)
        if record.partition is not None:
            topic.partition(record.partition)  # range check
            return record.partition
        if record.key is not None:
            return _stable_hash(record.key) % topic.num_partitions
        self._round_robin += 1
        return self._round_robin % topic.num_partitions

    def _flush_batch(self, batch_key: tuple[str, int]) -> None:
        batch = self._batches.pop(batch_key, [])
        if not batch:
            return
        topic_name, partition = batch_key

        def append(log: PartitionLog) -> None:
            if log.timestamp_type is TimestampType.LOG_APPEND_TIME:
                log.append_batch(
                    [record.value for record in batch],
                    [record.key for record in batch],
                )
            else:
                for record in batch:
                    log.append(record.value, record.key, record.timestamp)

        self._append_guarded(topic_name, partition, len(batch), append)

    def _append_guarded(
        self,
        topic: str,
        partition: int,
        count: int,
        append: Callable[[PartitionLog], None],
    ) -> None:
        """One produce request: guard, charge, append (deduped), ack.

        Each attempt re-charges the request cost (every wire request costs
        time, even a duplicate of one whose acknowledgement was lost).  With
        idempotence on, a retried batch is recognised by its sequence
        number and dropped instead of re-appended.
        """
        base_sequence = self._sequences.get((topic, partition), 0)
        charge = self._request_charge(count)

        def attempt() -> None:
            self.cluster.guard_request(topic, partition)
            log = self.cluster.partition_log(topic, partition)
            self.cluster.simulator.charge(charge)
            # A replay (the batch landed, its ack was lost) occupies no new
            # queue space: skip flow control entirely and just re-ack, or a
            # full queue would wedge the producer on its own records.
            if self.idempotent and log.is_replay(self.producer_id, base_sequence):
                self.duplicates_avoided += count
                self.cluster.post_append(topic, partition)
                return
            # Flow control for fresh batches: reject before the idempotence
            # check registers a sequence — a QueueFullError'd batch must
            # stay replayable verbatim, not look like a duplicate on retry.
            log.ensure_capacity(count)
            if self.idempotent:
                log.register_producer_batch(self.producer_id, base_sequence, count)
            append(log)
            self.cluster.post_append(topic, partition)

        if self.retry_policy is not None:
            if self._retry_rng is None:
                self._retry_rng = self.cluster.simulator.random.stream(
                    f"broker/retry/producer-{self.producer_id}"
                )
            run_with_retries(
                self.cluster.simulator,
                self.retry_policy,
                self._retry_rng,
                attempt,
                on_retry=self._count_retry,
            )
        else:
            attempt()
        if self.idempotent:
            self._sequences[(topic, partition)] = base_sequence + count
        self.records_sent += count

    def _request_charge(self, count: int) -> float:
        """Simulated seconds one produce request of ``count`` records costs."""
        costs = self.cluster.costs
        per_record = costs.append_per_record
        if self.acks == "all":
            per_record *= costs.acks_all_factor
        return (0.0 if self.acks == 0 else costs.request_overhead) + per_record * count

    def _count_retry(self, _err: Exception) -> None:
        self.retries_performed += 1
