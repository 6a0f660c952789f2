"""End-to-end benchmark of the Selection -> Conversion -> Extraction system.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the contract entry the driver calls (see ``BENCHMARK.json``);
``PYTHONPATH=src python -m benchmarks.e2e run`` runs all five workloads
with both passes and prints every metric.  See ``README.md`` here.
"""
