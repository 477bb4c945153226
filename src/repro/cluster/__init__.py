"""Cluster lifecycle: membership, churn, rebalancing, admission, SLOs.

The fleet-scale robustness layer over the Presto simulator (ROADMAP item
2): worker churn as first-class kernel processes, hashring-driven shard
rebalancing with cold-cache warmup, coordinator admission control under
overload, and the recovery SLOs the churn soak benchmark asserts.

- :mod:`~repro.cluster.membership` -- the one write path to the hash
  ring; every transition is counted, timestamped, and measured for key
  movement.
- :mod:`~repro.cluster.lifecycle` -- ties membership to live workers,
  the coordinator's executor pool, warmup, and health tracking.
- :mod:`~repro.cluster.churn` -- churn schedules (correlated AZ
  failure) and the driver process.
- :mod:`~repro.cluster.rebalance` -- prefetch/migrate warmup for keys
  that changed owner.
- :mod:`~repro.cluster.admission` -- bounded-queue admission with load
  shedding and degrade-to-remote.
- :mod:`~repro.cluster.slo` -- hit-ratio recovery time and phase p99s.
"""

from repro.cluster.admission import AdmissionController, AdmissionTicket
from repro.cluster.churn import ChurnAction, ChurnDriver, correlated_failure
from repro.cluster.lifecycle import ClusterLifecycle
from repro.cluster.membership import ClusterMembership, NodeState
from repro.cluster.rebalance import ShardRebalancer
from repro.cluster.slo import (
    PhasePercentiles,
    RecoveryReport,
    hit_ratio_recovery,
    phase_p99,
)

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "ChurnAction",
    "ChurnDriver",
    "ClusterLifecycle",
    "ClusterMembership",
    "NodeState",
    "PhasePercentiles",
    "RecoveryReport",
    "ShardRebalancer",
    "correlated_failure",
    "hit_ratio_recovery",
    "phase_p99",
]
