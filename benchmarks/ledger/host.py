"""What the ledger measures about the host it runs on."""

from __future__ import annotations

import functools
import os
import resource
import subprocess
import time

#: The canary time that defines the reference host, in microseconds. Wall
#: metrics are scaled to the speed at which the canary takes this long.
CANARY_REFERENCE_US = 20_000.0


@functools.cache
def _probe() -> bytearray:
    """16 MB with every page touched: more than the share of cache a
    sandbox gets, so random reads of it feel the neighbours' memory traffic."""
    probe = bytearray(1 << 24)
    for page in range(0, len(probe), 4096):
        probe[page] = 1
    return probe


def canary_us() -> float:
    """Time a fixed pure-Python loop of arithmetic and random memory reads.

    The sandbox host slows by 10-40 % for seconds to a minute at a time,
    through both a slower interpreter loop and slower memory, and the
    slowdown hits this loop and the program alike. Workloads take a canary
    at every slice boundary; wall metrics are scaled by it (see
    ``metrics.py``), which roughly halves their run-to-run spread. An
    arithmetic-only loop tracked the program worse than this one in calm
    spells and over-corrected ``write_mix`` in rough ones. Nothing is
    filtered: every op counts.
    """
    probe = _probe()
    mask = len(probe) - 1
    j = total = 0
    start = time.perf_counter_ns()
    for i in range(100_000):
        j = (j * 1103515245 + 12345 + i) & mask
        total += probe[j]
    return (time.perf_counter_ns() - start) / 1e3


def host_speed(before_us: float, after_us: float) -> float:
    """The factor that puts a wall time measured between two canaries at
    reference speed: 0.8 when the host ran at four fifths of it."""
    return 2 * CANARY_REFERENCE_US / (before_us + after_us)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__) or ".",
            capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository
