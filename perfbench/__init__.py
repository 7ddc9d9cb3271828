"""Repository benchmark: see README.md; run with ``python3 perfbench/run.py``."""
