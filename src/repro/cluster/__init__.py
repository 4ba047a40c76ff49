"""Sharded diagnosis cluster: a consistent-hash gateway over replicas.

``repro cluster --replicas N`` runs N ``repro serve`` subprocesses and
one :class:`ClusterGateway` front door speaking the same HTTP/JSON API.
Requests shard by job content hash (:class:`HashRing`), failures route
around dead replicas while the :class:`ReplicaManager` restarts them,
and learned experience circulates between replicas through the
gateway's :class:`ExperienceGossip` ledger.
"""

from repro.cluster.gateway import ClusterConfig, ClusterGateway, run
from repro.cluster.gossip import ExperienceGossip
from repro.cluster.replicas import ReplicaManager, ReplicaProcess, StaticFleet
from repro.cluster.ring import HashRing

__all__ = [
    "ClusterConfig",
    "ClusterGateway",
    "ExperienceGossip",
    "HashRing",
    "ReplicaManager",
    "ReplicaProcess",
    "StaticFleet",
    "run",
]
