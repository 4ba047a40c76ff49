"""One benchmark harness for the FLAMES reproduction.

Four workloads (``paper-oneshot``, ``corpus-batch``, ``shop-serve``,
``stream-drift``) measured from outside the program: the harness times
calls into public functions and reads the span trees the engine
already returns.  See ``flamesbench/README.md`` for the workloads, the
metrics and the layer map, and ``python3 flamesbench/run.py --help``
for usage.
"""
