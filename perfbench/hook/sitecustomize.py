"""Start-up hook that traces a network worker process.

A traced run puts this directory on the ``PYTHONPATH`` of the loopback
workers it spawns and names a sink directory in ``PERFBENCH_TRACE_DIR``;
Python imports this module at interpreter start, before the worker's own
imports, so the wrappers are in place when the worker binds
``execute_task``.  Without the variable it does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    _root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(0, _root)
    from perfbench.tracer import SINK_ENV, Tracer, install_layers

    install_layers(Tracer(sink_dir=os.environ[SINK_ENV], in_worker=True), workers_only=True)
