"""Benchmark of the PUSHtap reproduction, driven from outside the program.

``python3 perfbench/run.py --workload <oltp|olap|htap|cluster> --seed N
--seconds S --trace <0|1>``; see ``perfbench/README.md``.
"""
