"""Benchmark of the tracebench CLI: end-to-end runs and per-layer spans."""
