"""``repro.cluster`` — sharded multi-server conferencing.

The paper's Fig. 1 architecture has exactly one interaction server as
the hub of the star network, which caps the reproduction at a single
node's throughput. This package splices a cluster tier between the
clients and the rooms/DB without changing the client protocol:

* :mod:`repro.cluster.ring` — a consistent-hash ring shards rooms across
  server nodes with bounded movement on membership change;
* :mod:`repro.cluster.gateway` — the :class:`Gateway` routing core:
  it owns client-facing links, routes each message to the owning shard,
  parks and retries ops a failover has made briefly unroutable, and
  fences shards declared dead;
* :mod:`repro.cluster.shard` — a :class:`ShardServer` wraps a full
  :class:`~repro.server.interaction.InteractionServer` behind a
  bounded-capacity service queue and ships its room ops to replicas;
* :mod:`repro.cluster.replication` — primary→replica log shipping with
  acked sequence numbers; replicas replay ops into shadow servers;
* :mod:`repro.cluster.failover` — simclock-driven heartbeats and the
  failure detector that triggers deterministic promotion;
* :mod:`repro.cluster.gatewaytier` — the gateway tier, the cluster's
  only topology: N >= 1 :class:`GatewayNode` access points with
  per-client homing and route caches, plus the
  :class:`GatewayDirectory` control plane that detects shard and
  gateway failures, orders promotions, and re-homes clients;
* :mod:`repro.cluster.admission` — the one admission gate every shard
  service queue and gateway routing queue is entered through, and the
  :class:`AdmissionController` policy behind it: priority lanes
  (control never shed, JOINs deferred before data drops) and typed
  ``RETRY_AFTER`` bounces so overload degrades into bounded-latency
  deferral instead of unbounded queueing;
* :mod:`repro.cluster.config` — :class:`ClusterConfig`, the named
  topology configuration all of the above is built from;
* :mod:`repro.cluster.harness` — one-call wiring of a whole cluster.

Everything runs on the existing ``repro.net`` simulated network and the
shared :class:`~repro.net.simclock.SimClock`, so cluster behaviour —
including failover — is deterministic and byte-accounted.
"""

from repro.cluster.admission import (
    AdmissionConfig,
    AdmissionController,
    lane_of,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.failover import FailureDetector, schedule_periodic
from repro.cluster.gateway import Gateway
from repro.cluster.gatewaytier import GatewayDirectory, GatewayNode
from repro.cluster.harness import ClusterHarness
from repro.cluster.replication import LogEntry, ReplicaState, ShipLog
from repro.cluster.ring import HashRing, ring_hash
from repro.cluster.shard import ServiceQueue, ShardServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ClusterConfig",
    "ClusterHarness",
    "FailureDetector",
    "Gateway",
    "GatewayDirectory",
    "GatewayNode",
    "HashRing",
    "LogEntry",
    "ReplicaState",
    "ServiceQueue",
    "ShardServer",
    "ShipLog",
    "lane_of",
    "ring_hash",
    "schedule_periodic",
]
