"""Benchmark of the repro simulator; see README.md and run.py."""
