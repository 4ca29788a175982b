"""Scaling curves: sweep the model over cluster sizes and workload knobs.

The paper's figures report four discrete points; these sweeps show where
each workload's scaling flattens and which resource takes over as the
bottleneck — the "shape" claims made explicit as curves. Used by the
scaling-curve bench and available for interactive exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import calibration as cal
from .model import (
    model_pgbench_2pc,
    model_tpcc,
    model_tpch,
    model_ycsb,
)
from .resources import ClusterShape


@dataclass
class CurvePoint:
    workers: int
    value: float
    bottleneck: str


def _shape(workers: int) -> ClusterShape:
    return ClusterShape(
        name=f"Citus {workers}+1" if workers else "Citus 0+1",
        data_nodes=max(workers, 1),
        is_distributed=True,
    )


def tpcc_scaling(max_workers: int = 16) -> list[CurvePoint]:
    """NOPM vs worker count. Expected shape: jump when the working set
    first fits in memory, then client-limited flattening."""
    points = []
    for workers in range(1, max_workers + 1):
        result = model_tpcc(_shape(workers))
        points.append(CurvePoint(workers, result.value, result.bottleneck))
    return points


def ycsb_scaling(max_workers: int = 16) -> list[CurvePoint]:
    """ops/s vs worker count. Expected: linear in I/O capacity until the
    closed-loop clients become the limit."""
    points = []
    for workers in range(1, max_workers + 1):
        result = model_ycsb(_shape(workers))
        points.append(CurvePoint(workers, result.value, result.bottleneck))
    return points


def tpch_scaling(max_workers: int = 16) -> list[CurvePoint]:
    """QPH vs worker count. Expected: superlinear until the data fits in
    cluster memory, linear (CPU) afterwards."""
    points = []
    for workers in range(1, max_workers + 1):
        result = model_tpch(_shape(workers))
        points.append(CurvePoint(workers, result.value, result.bottleneck))
    return points


def two_pc_penalty_vs_cross_fraction(workers: int = 8,
                                     steps: int = 11) -> list[tuple[float, float]]:
    """2PC cost as the multi-node fraction of transactions grows: what the
    paper's ~7% TPC-C cross-warehouse share costs at other mixes.

    Returns (fraction, throughput) pairs for a blended workload where
    ``fraction`` of transactions take the 2PC path.
    """
    shape = _shape(workers)
    same = model_pgbench_2pc(shape, same_key=True).value
    different = model_pgbench_2pc(shape, same_key=False).value
    out = []
    for i in range(steps):
        fraction = i / (steps - 1)
        # Harmonic blend: each class contributes its response time share.
        blended = 1.0 / ((1 - fraction) / same + fraction / different)
        out.append((fraction, blended))
    return out


def memory_fit_crossover(data_gb_range=(25, 400), step: int = 25) -> list[tuple]:
    """TPC-C NOPM at 4+1 as the database grows past cluster memory: the
    memory-fit cliff that explains Figure 6's 13x."""
    points = []
    gb = data_gb_range[0]
    while gb <= data_gb_range[1]:
        params = replace(cal.TPCC, data_bytes=gb * 1024**3)
        result = model_tpcc(_shape(4), params)
        points.append((gb, result.value, result.bottleneck))
        gb += step
    return points


def ascii_curve(points, label: str, width: int = 46) -> str:
    """Render (x, y) curve points as an ASCII bar chart."""
    values = [p.value if isinstance(p, CurvePoint) else p[1] for p in points]
    top = max(values) or 1.0
    lines = [label]
    for p in points:
        if isinstance(p, CurvePoint):
            x, y, note = p.workers, p.value, p.bottleneck
        else:
            x, y = p[0], p[1]
            note = p[2] if len(p) > 2 else ""
        bar = "#" * max(1, int(y / top * width))
        lines.append(f"  {x:>6} | {bar:<{width}} {y:>14,.0f}  {note}")
    return "\n".join(lines)
