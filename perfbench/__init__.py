"""The repository's end-to-end and per-layer benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one FedTrip workload through the public
``ExperimentSpec`` front door and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and how to read a
traced run.
"""
