"""The repository benchmark: serving and training driven through the front doors.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; see ``perfbench/README.md``.
"""
