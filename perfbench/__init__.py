"""Benchmark of the quantes package; run it as ``python3 perfbench/run.py``."""
