"""The data sender (benchmark phase 1, paper Figure 5).

The paper's sender is a Scala program with configurable ingestion rate and
producer acknowledgement level; it pushes the workload into a
single-partition topic so Kafka's per-partition ordering guarantee yields a
globally ordered input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.broker import AdminClient, BrokerCluster, Producer, RetryPolicy


@dataclass(frozen=True, slots=True)
class SenderReport:
    """Summary of one ingestion phase."""

    topic: str
    records_sent: int
    started_at: float
    finished_at: float
    #: Produce-request re-attempts that rode out injected broker faults.
    retries: int = 0
    #: Records a lost acknowledgement would have duplicated, deduplicated
    #: by idempotent produce (always 0 for non-idempotent senders).
    duplicates_avoided: int = 0
    #: Load accounting shared with the open-loop generator's report: every
    #: record the load source offered, and the subset a shed policy
    #: dropped.  The closed-loop sender offers exactly what it sends, so
    #: ``records_offered == records_sent`` and ``records_shed == 0`` here;
    #: either way ``offered == accepted + shed`` reconciles exactly.
    records_offered: int = 0
    records_shed: int = 0

    @property
    def records_accepted(self) -> int:
        """Records that actually landed in the broker (== sent)."""
        return self.records_sent

    @property
    def duration(self) -> float:
        """Simulated seconds the ingestion took."""
        return self.finished_at - self.started_at

    @property
    def achieved_rate(self) -> float:
        """Records per simulated second (0.0 for an empty send)."""
        if self.duration <= 0:
            return 0.0
        return self.records_sent / self.duration


class DataSender:
    """Pushes records into a broker topic at a configured rate.

    ``ingestion_rate`` is in records per simulated second; the sender
    advances the clock accordingly so input records carry realistic,
    spread-out LogAppendTime stamps.  ``acks`` is forwarded to the producer
    (the paper exposes "the level of Kafka Producer acknowledgments" as a
    sender parameter), as are ``retry_policy`` and ``idempotent`` — with an
    attached chaos schedule the sender inherits the cluster's resilient
    defaults, so ingestion survives broker faults without duplicating
    input records.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        ingestion_rate: float = 100_000.0,
        acks: int | str = 1,
        batch_size: int = 1_000,
        create_topic: bool = True,
        replication_factor: int = 1,
        retry_policy: RetryPolicy | None = None,
        idempotent: bool | None = None,
    ) -> None:
        if ingestion_rate <= 0:
            raise ValueError(f"ingestion_rate must be > 0, got {ingestion_rate}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.cluster = cluster
        self.topic = topic
        self.ingestion_rate = ingestion_rate
        self.acks = acks
        self.batch_size = batch_size
        self.create_topic = create_topic
        self.replication_factor = replication_factor
        self.retry_policy = retry_policy
        self.idempotent = idempotent

    def send(self, records: Sequence[str]) -> SenderReport:
        """Ingest all ``records``; returns a :class:`SenderReport`.

        The topic is created (single partition — the paper's ordering
        setup — with ``replication_factor``, default one) unless it already
        exists and ``create_topic`` is False.

        Every ``batch_size`` records form one produce request, and rate
        pacing charges the request's ``batch / ingestion_rate`` seconds of
        the timeline before it lands in the log
        (:meth:`~repro.broker.producer.Producer.send_values` with a
        ``rate``).  On a reliable broker the producer replays that timeline
        in one pass and appends the whole workload at once, with one
        LogAppendTime run per request; with chaos attached, or an
        idempotent producer, each request goes through the guarded,
        retried produce path.

        ``records`` may be a plain list or a columnar-plane
        :class:`~repro.dataflow.kernels.SlabColumn`, which the broker
        adopts into its value column without materialising a single
        record string; batch boundaries, pacing charges and produce
        sequencing are identical to the list path — the resulting log
        differs only in its storage layout.  The workload is never
        duplicated in memory during ingestion.
        """
        if self.create_topic:
            AdminClient(self.cluster).recreate_topic(
                self.topic, replication_factor=self.replication_factor
            )
        started = self.cluster.simulator.now()
        producer = Producer(
            self.cluster,
            acks=self.acks,
            batch_size=self.batch_size,
            retry_policy=self.retry_policy,
            idempotent=self.idempotent,
        )
        total = len(records)
        producer.send_values(self.topic, records, rate=self.ingestion_rate)
        producer.close()
        return SenderReport(
            topic=self.topic,
            records_sent=total,
            started_at=started,
            finished_at=self.cluster.simulator.now(),
            retries=producer.retries_performed,
            duplicates_avoided=producer.duplicates_avoided,
            records_offered=total,
        )
