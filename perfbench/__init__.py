"""End-to-end benchmark for the HiPerRF reproduction.

Run it through ``python3 perfbench/run.py`` from the repository root;
``perfbench/README.md`` describes the workloads and metrics.
"""
