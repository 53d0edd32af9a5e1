"""Benchmark harness: regenerators for the paper's tables and figures."""
