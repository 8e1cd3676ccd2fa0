"""Seeded benchmark for motionrisk: four workloads, end-to-end metrics, and a
traced run that attributes request time to the library's modules.

Run it with ``python3 bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``bench/README.md``.
"""
