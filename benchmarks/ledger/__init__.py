"""Layered performance ledger: the repo's benchmark.

Four workloads, end-to-end metrics on two clocks (host wall time and the
cluster's simulated time) and per-layer spans recorded from outside the
program. ``README.md`` in this directory is the manual.
"""
