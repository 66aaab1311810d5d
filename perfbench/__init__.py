"""End-to-end campaign benchmark; ``python3 perfbench/run.py --help``."""
