"""Cluster: a set of named PostgresInstances sharing a clock and network.

Provides node lifecycle (add/remove/fail), HA standby management and the
failover orchestration described in §3.9: each node may have a hot standby
replicating its WAL; on failure, the orchestrator promotes the standby by
replaying the replicated WAL into a fresh instance and updating the node
map ("updates the Citus metadata, DNS record, or virtual IP"). Synchronous
replication loses nothing; asynchronous replication may lose a configurable
tail of the WAL.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import InstanceSpec, PostgresInstance
from ..errors import NodeUnavailable
from .clock import SimClock
from .network import Network, NetworkSpec, RemoteConnection


@dataclass
class StandbyConfig:
    mode: str = "synchronous"  # synchronous | asynchronous
    async_lag_records: int = 5  # WAL records that may be lost when async


class Cluster:
    def __init__(self, spec: InstanceSpec | None = None,
                 network_spec: NetworkSpec | None = None,
                 max_connections: int = 300):
        self.clock = SimClock()
        self.network = Network(self.clock, network_spec)
        self.spec = spec or InstanceSpec()
        self.max_connections = max_connections
        self.nodes: dict[str, PostgresInstance] = {}
        self._standbys: dict[str, StandbyConfig] = {}
        self.failover_log: list[dict] = []

    # ------------------------------------------------------------- nodes

    def add_node(self, name: str, spec: InstanceSpec | None = None) -> PostgresInstance:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        instance = PostgresInstance(
            name, spec or self.spec, max_connections=self.max_connections, clock=self.clock
        )
        self.nodes[name] = instance
        return instance

    def node(self, name: str) -> PostgresInstance:
        instance = self.nodes.get(name)
        if instance is None:
            raise NodeUnavailable(f"unknown node {name!r}")
        return instance

    def node_names(self) -> list[str]:
        return list(self.nodes)

    def connect(self, node_name: str, application_name: str = "") -> RemoteConnection:
        instance = self.node(node_name)
        if not instance.is_up:
            raise NodeUnavailable(f"node {node_name!r} is down")
        session = instance.connect(application_name)
        return RemoteConnection(node_name, session, self.network)

    # ---------------------------------------------------------------- HA

    def enable_standby(self, node_name: str, config: StandbyConfig | None = None) -> None:
        self.node(node_name)  # validate
        self._standbys[node_name] = config or StandbyConfig()

    def fail_node(self, name: str) -> None:
        """Hard-fail a node: sessions die, in-flight transactions roll back."""
        self.node(name).crash()

    def promote_standby(self, name: str) -> PostgresInstance:
        """Failover: replace a failed node with its promoted standby.

        The paper reports the whole process takes 20–30 s, during which
        distributed transactions involving the node roll back; we advance
        the simulated clock accordingly.
        """
        config = self._standbys.get(name)
        if config is None:
            raise NodeUnavailable(f"node {name!r} has no standby configured")
        old = self.node(name)
        wal = old.wal.clone(lose=config.async_lag_records
                            if config.mode == "asynchronous" else 0)
        replacement = PostgresInstance(
            name, old.spec, max_connections=old.max_connections, clock=self.clock
        )
        replacement.wal = wal
        replacement.hooks = old.hooks  # extensions stay installed
        replacement.restart()
        self.nodes[name] = replacement
        self.clock.advance(25.0)  # failover window
        self.failover_log.append({"node": name, "mode": config.mode, "at": self.clock.now()})
        return replacement

    # ------------------------------------------------------------- stats

    def total_memory_gb(self) -> float:
        return sum(n.spec.memory_gb for n in self.nodes.values())

    def total_data_bytes(self) -> int:
        return sum(n.total_data_bytes() for n in self.nodes.values())
