"""First-principles throughput/latency model behind each paper figure.

Every function takes a :class:`ClusterShape` (or iterates the four paper
setups) and returns the modeled metric. The common machinery:

- throughput is the min of the I/O-bound rate (IOPS budget / page misses
  per op), the CPU-bound rate (cores / CPU per op), and the closed-loop
  client limit (clients / response time) — whichever resource saturates
  first is the bottleneck, which is how the paper explains every figure
  ("the single server is I/O bottlenecked while the Citus cluster is only
  CPU bottlenecked");
- response time is service time plus network round trips plus an M/M/c-ish
  queueing inflation as utilization approaches 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import calibration as cal
from .resources import ClusterShape, cache_miss_fraction, paper_setups


@dataclass
class Throughput:
    setup: str
    value: float  # ops/sec unless stated
    response_time_ms: float
    bottleneck: str


def _closed_loop(clients: int, service_s: float, network_s: float,
                 io_rate: float, cpu_rate: float) -> tuple[float, float, str]:
    """Closed-loop throughput with capacity limits.

    Returns (throughput, response_time_s, bottleneck).
    """
    base_response = service_s + network_s
    demand = clients / base_response if base_response > 0 else float("inf")
    capacity = min(io_rate, cpu_rate)
    if demand <= capacity * 0.98:
        return demand, base_response, "clients"
    # Saturated: throughput pinned at capacity; queueing inflates response.
    throughput = capacity
    response = clients / throughput
    bottleneck = "disk I/O" if io_rate < cpu_rate else "CPU"
    return throughput, response, bottleneck


# --------------------------------------------------------------- Figure 6


def model_tpcc(shape: ClusterShape, p: cal.Tpcc = cal.TPCC) -> Throughput:
    """HammerDB TPC-C NOPM."""
    miss = cache_miss_fraction(p.data_bytes, shape.total_memory)
    io_pages_per_txn = p.page_accesses_per_txn * miss + p.page_writes_per_txn
    if shape.is_distributed:
        # Metadata/catalog lookups add a small per-transaction I/O tax —
        # this is the Citus 0+1 regression the paper shows.
        io_pages_per_txn *= 1.0 + p.distributed_overhead * 0.5
    io_rate = shape.total_iops / max(io_pages_per_txn, 0.1)
    cpu_rate = shape.total_cores / p.cpu_s_per_txn
    if shape.is_distributed:
        cpu_rate /= 1.0 + p.distributed_overhead
    service = p.cpu_s_per_txn + io_pages_per_txn / shape.node.disk_iops
    # Every client-visible statement is a driver round trip (the response
    # time of a TPC-C transaction is dominated by these).
    network = p.statements_per_txn * shape.network.rtt_seconds
    if shape.is_distributed:
        # Cross-shard transactions pay coordinator→worker round trips per
        # statement plus the 2PC exchange (§4.1: "response time ... is
        # dominated by network round-trips for individual statements").
        network += p.cross_shard_fraction * (
            (p.statements_per_txn + 2) * shape.network.rtt_seconds
        )
    network += p.sleep_s  # keying time behaves like think time
    txn_rate, response, bottleneck = _closed_loop(
        p.vusers, service, network, io_rate, cpu_rate
    )
    nopm = txn_rate * 60 * p.new_order_fraction
    return Throughput(shape.name, nopm, response * 1000, bottleneck)


def figure6() -> list[Throughput]:
    return [model_tpcc(shape) for shape in paper_setups()]


# --------------------------------------------------------------- Figure 7


def model_copy(shape: ClusterShape, p: cal.RealTime = cal.REALTIME) -> Throughput:
    """Fig 7(a): single-session COPY duration (seconds; lower is better)."""
    if not shape.is_distributed:
        rate = p.copy_core_bytes_per_s  # one backend does parse + index upkeep
        bottleneck = "single core"
    else:
        # Index maintenance parallelizes across shards (async per-shard
        # streams); the coordinator's single-core parse/route rate caps it.
        if shape.data_nodes == 1:
            # Citus 0+1: shard streams share the coordinator's box (cores,
            # one disk), so parallelism is modest.
            shard_parallelism = 3.0
        else:
            shard_parallelism = min(shape.total_cores / 2.0, 64)
        shard_rate = p.copy_core_bytes_per_s * shard_parallelism
        rate = min(shard_rate, p.coordinator_copy_bytes_per_s)
        bottleneck = "coordinator core" if rate >= p.coordinator_copy_bytes_per_s \
            else "shard writes"
    duration = p.copy_bytes / rate
    return Throughput(shape.name, duration, duration * 1000, bottleneck)


def model_dashboard_query(shape: ClusterShape, p: cal.RealTime = cal.REALTIME) -> Throughput:
    """Fig 7(b): dashboard GIN query runtime (seconds; in-memory, CPU bound)."""
    bytes_scanned = p.table_bytes * p.dashboard_selectivity
    if not shape.is_distributed:
        cores = 2.0  # limited PostgreSQL parallel query on one backend
    else:
        cores = shape.total_cores * 0.75  # parallel shard tasks
    duration = bytes_scanned / (p.dashboard_core_bytes_per_s * cores)
    return Throughput(shape.name, duration, duration * 1000, "CPU")


def model_insert_select(shape: ClusterShape, p: cal.RealTime = cal.REALTIME) -> Throughput:
    """Fig 7(c): INSERT..SELECT transformation runtime (seconds)."""
    bytes_processed = p.table_bytes * p.transform_input_fraction
    if not shape.is_distributed:
        cores = 1.0  # single backend does it all
    else:
        cores = shape.total_cores * 0.8  # co-located per-shard pipelines
    duration = bytes_processed / (p.transform_core_bytes_per_s * cores)
    return Throughput(shape.name, duration, duration * 1000, "CPU")


def figure7() -> dict[str, list[Throughput]]:
    shapes = paper_setups()
    return {
        "copy": [model_copy(s) for s in shapes],
        "dashboard": [model_dashboard_query(s) for s in shapes],
        "insert_select": [model_insert_select(s) for s in shapes],
    }


# --------------------------------------------------------------- Figure 8


def model_tpch(shape: ClusterShape, p: cal.Tpch = cal.TPCH) -> Throughput:
    """TPC-H queries per hour over a single session."""
    bytes_per_query = p.data_bytes * p.scan_fraction_per_query
    miss = cache_miss_fraction(p.data_bytes, shape.total_memory)
    if shape.is_distributed:
        cores = shape.total_cores * 0.85
        scan_bandwidth = shape.total_scan_bandwidth
    else:
        cores = p.pg_effective_cores
        scan_bandwidth = p.pg_single_stream_bandwidth
    cpu_time = bytes_per_query / (p.core_bytes_per_s * cores)
    io_time = bytes_per_query * miss / scan_bandwidth
    duration = cpu_time + io_time
    qph = 3600.0 / duration
    bottleneck = "disk I/O" if io_time > cpu_time else "CPU"
    return Throughput(shape.name, qph, duration * 1000, bottleneck)


def figure8() -> list[Throughput]:
    return [model_tpch(shape) for shape in paper_setups()]


# --------------------------------------------------------------- Figure 9


def model_pgbench_2pc(shape: ClusterShape, same_key: bool,
                      p: cal.Pgbench2pc = cal.PGBENCH) -> Throughput:
    """Two-update transactions/sec: co-located (same key) vs 2PC."""
    miss = cache_miss_fraction(p.data_bytes, shape.total_memory)
    pages = 2 * (p.read_pages_per_update * miss + p.amortized_write_pages)
    service = p.cpu_s_per_txn
    network = 0.0
    if shape.is_distributed:
        if same_key or shape.data_nodes == 1:
            network = p.rtts_single_node * shape.network.rtt_seconds
        else:
            # Different keys: usually two nodes → 2PC (on one node with
            # probability 1/n it degenerates to 1PC).
            n = shape.data_nodes
            p_two_nodes = 1.0 - 1.0 / n
            rtts = p.rtts_single_node + p_two_nodes * p.rtts_2pc_extra
            network = rtts * shape.network.rtt_seconds
            service += p_two_nodes * p.commit_record_cost_s
            # Phase-one PREPARE and the commit record flush cost extra
            # WAL/page writes on the participants — 2PC's I/O tax.
            pages += p_two_nodes * p.extra_2pc_io_pages
    io_rate = shape.total_iops / max(pages, 0.05)
    cpu_rate = shape.total_cores / p.cpu_s_per_txn
    tps, response, bottleneck = _closed_loop(
        p.connections, service, network, io_rate, cpu_rate
    )
    label = f"{shape.name} ({'same key' if same_key else 'different keys'})"
    return Throughput(label, tps, response * 1000, bottleneck)


def figure9() -> list[Throughput]:
    out = []
    for shape in paper_setups():
        if not shape.is_distributed:
            continue
        out.append(model_pgbench_2pc(shape, same_key=True))
        out.append(model_pgbench_2pc(shape, same_key=False))
    return out


# -------------------------------------------------------------- Figure 10


def model_ycsb(shape: ClusterShape, p: cal.Ycsb = cal.YCSB) -> Throughput:
    """YCSB workload A ops/sec; every node acts as a coordinator."""
    miss = cache_miss_fraction(p.data_bytes, shape.total_memory)
    pages_per_op = 0.5 * p.pages_per_read * miss + 0.5 * p.pages_per_update
    if shape.is_distributed:
        # Slight extra I/O and CPU per op for distributed planning/routing:
        # the "single server Citus performs slightly worse" effect.
        pages_per_op *= 1.0 + p.distributed_overhead * 0.4
    io_rate = shape.total_iops / max(pages_per_op, 0.05)
    cpu_per_op = p.cpu_s_per_op
    if shape.is_distributed:
        cpu_per_op *= 1.0 + p.distributed_overhead
    cpu_rate = shape.total_cores / cpu_per_op
    service = cpu_per_op + pages_per_op / shape.node.disk_iops
    network = shape.network.rtt_seconds if shape.is_distributed else 0.0
    ops, response, bottleneck = _closed_loop(
        p.threads, service, network, io_rate, cpu_rate
    )
    return Throughput(shape.name, ops, response * 1000, bottleneck)


def figure10() -> list[Throughput]:
    return [model_ycsb(shape) for shape in paper_setups()]


# ----------------------------------------------------------------- report


def format_table(rows: list[Throughput], metric: str = "throughput",
                 unit: str = "ops/s") -> str:
    lines = [f"{'setup':<28} {metric + ' (' + unit + ')':>22} {'p50 resp (ms)':>15} {'bottleneck':>12}"]
    for row in rows:
        lines.append(
            f"{row.setup:<28} {row.value:>22,.1f} {row.response_time_ms:>15,.2f}"
            f" {row.bottleneck:>12}"
        )
    return "\n".join(lines)


def speedup_over_postgres(rows: list[Throughput], higher_is_better: bool = True) -> dict:
    base = next(r.value for r in rows if r.setup.startswith("PostgreSQL"))
    out = {}
    for row in rows:
        out[row.setup] = (row.value / base) if higher_is_better else (base / row.value)
    return out
