"""A Kafka-like message broker, simulated.

This package reproduces the parts of Apache Kafka the paper's benchmark
architecture relies on (Section III-A):

* partitioned, append-only topic logs with **offsets**;
* **LogAppendTime** timestamps — the broker stamps each record with the
  simulated time at which it was appended, which is exactly the timestamp
  source the paper uses to compute execution times in an application- and
  system-independent way;
* ordering guaranteed **within a partition only**, which is why the paper
  creates its input and output topics with a single partition;
* producers with configurable acknowledgement levels and batching, and
  consumers with offset tracking, seeking, and consumer groups.

The broker charges simulated time for appends and fetches through the shared
:class:`repro.simtime.Simulator`, so broker behaviour participates in the
measured execution times just as a real Kafka deployment would.
"""

from repro.broker.admin import AdminClient, TopicDescription
from repro.broker.broker import BrokerCluster, BrokerNode
from repro.broker.consumer import Consumer, ConsumerGroupCoordinator, TopicPartition
from repro.broker.errors import (
    BrokerError,
    BrokerUnavailableError,
    DeliveryTimeoutError,
    NotLeaderForPartitionError,
    PartitionOutOfRangeError,
    QueueFullError,
    RequestTimedOutError,
    RetriableBrokerError,
    TimestampTypeError,
    TopicAlreadyExistsError,
    UnknownTopicError,
)
from repro.broker.faults import ChaosSchedule, FaultPlan, NodeOutage
from repro.broker.log import PartitionLog
from repro.broker.producer import Producer, RecordMetadata
from repro.broker.records import (
    ConsumerRecord,
    ProducerRecord,
    RecordSlice,
    TimestampType,
)
from repro.broker.retry import RetryPolicy, run_with_retries
from repro.broker.topic import Topic, TopicConfig

__all__ = [
    "AdminClient",
    "TopicDescription",
    "BrokerCluster",
    "BrokerNode",
    "ChaosSchedule",
    "Consumer",
    "ConsumerGroupCoordinator",
    "TopicPartition",
    "BrokerError",
    "BrokerUnavailableError",
    "DeliveryTimeoutError",
    "FaultPlan",
    "NodeOutage",
    "NotLeaderForPartitionError",
    "QueueFullError",
    "RequestTimedOutError",
    "RetriableBrokerError",
    "RetryPolicy",
    "TimestampTypeError",
    "UnknownTopicError",
    "TopicAlreadyExistsError",
    "PartitionOutOfRangeError",
    "PartitionLog",
    "Producer",
    "RecordMetadata",
    "ConsumerRecord",
    "ProducerRecord",
    "RecordSlice",
    "TimestampType",
    "Topic",
    "TopicConfig",
    "run_with_retries",
]
