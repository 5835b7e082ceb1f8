"""Benchmark of the mangeron solver; run ``python3 perfbench/run.py --help``."""
