"""Tests of the benchmark's own arithmetic and instrumentation."""
