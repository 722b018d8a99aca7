"""The repo's end-to-end benchmark: six workloads, two clocks, per-layer probes.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
is the machine-readable contract.
"""
