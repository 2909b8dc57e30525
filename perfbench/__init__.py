"""The repo benchmark; see ``perfbench/README.md`` and ``perfbench/run.py``."""
