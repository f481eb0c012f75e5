"""Repository benchmark: seeded workloads, oracle gate and traced runs.

Run one workload with ``python3 perfbench/run.py --workload php-local
--seed 1 --seconds 20 --trace 0``; see ``perfbench/README.md``.
"""
