"""End-to-end and per-layer benchmark of the real sensing-to-action stack.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
