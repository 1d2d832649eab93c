"""The repository benchmark: end-to-end and per-layer timing of LazyCtrl replays.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`) in fresh child processes
(:mod:`perfbench.round`), checks every replay's simulated outputs
(:mod:`perfbench.digest`) and prints one JSON result line.  With ``--trace 1``
one extra round is traced from outside the program (:mod:`perfbench.spans`)
and the per-layer metrics of :mod:`perfbench.layers` are printed instead of
the end-to-end ones.
"""
