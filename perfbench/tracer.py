"""In-memory span tracer wrapped around the public entry points of each layer.

A traced run installs :func:`install_layers` before it builds its engine.
Each wrapped call records one span ``(name, start, end, parent, trace,
work)``: ``parent`` is the index of the enclosing span in the same process
(``-1`` for a root), ``trace`` the round index the span belongs to (the
task's round inside client tasks, ``"setup"`` while building), and
``work`` the floating-point (or element) operations of an ``nn`` call.

Spans stay in memory, in batches whose parent indices are local to the
batch.  The main process writes its batches when the run ends.  A worker process
cannot be relied on to run exit hooks (pool workers are terminated), so a
worker writes each client task's spans as one JSON line to
``<sink_dir>/<pid>.jsonl`` when the task returns.  Process-pool
workers inherit the wrappers through ``fork``; network workers install
them from ``perfbench/hook/sitecustomize.py`` at interpreter start.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, start, end, parent, trace, work)
Span = Tuple[str, float, float, int, Any, float]

#: environment variable naming the directory worker processes write to.
SINK_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Records spans for every call made through its wrappers."""

    def __init__(self, sink_dir: Optional[str] = None,
                 in_worker: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        #: span batches closed by :meth:`cut`, kept until :meth:`dump`.
        self.batches: List[List[Span]] = []
        self.stack: List[int] = []
        self.trace: Any = None
        self.sink_dir = sink_dir
        self.in_worker = in_worker
        self._sink = None
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with the main process's spans and open
        # stack; neither belongs to it.
        self.spans = []
        self.batches = []
        self.stack = []
        self.in_worker = True
        self._sink = None

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn: Callable, *,
             work: Optional[Callable[[tuple, Any], float]] = None,
             trace: Optional[Callable[..., Any]] = None,
             flush: bool = False) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call.

        ``work(args, result)`` prices the call's operations; ``trace(*args)``
        sets the trace id before the call; ``flush`` makes a worker write
        its spans once this call returns with no span left open.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if trace is not None:
                tracer.trace = trace(*args)
            spans, stack = tracer.spans, tracer.stack
            trace_id = tracer.trace
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, trace_id, 0.0)
            if work is not None:
                spans[idx] = (name, t0, t1, parent, trace_id, float(work(args, out)))
            if flush and tracer.in_worker and not stack:
                tracer.flush()
            return out

        return traced

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper`` (undone by :meth:`unpatch`)."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ------------------------------------------------------------
    def cut(self) -> List[Span]:
        """Close the current batch of spans and start a new one; returns
        the closed batch, whose parent indices are local to it."""
        if self.stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        batch = self.spans
        self.batches.append(batch)  # type: ignore[arg-type]
        self.spans = []
        return batch  # type: ignore[return-value]

    def flush(self) -> None:
        """Write the spans recorded since the last flush to this worker's
        sink file as one JSON line, and forget them."""
        if not self.spans or self.sink_dir is None:
            return
        if self._sink is None:
            os.makedirs(self.sink_dir, exist_ok=True)
            path = os.path.join(self.sink_dir, f"{os.getpid()}.jsonl")
            self._sink = open(path, "a", encoding="utf-8")
        self._sink.write(json.dumps(self.cut()) + "\n")
        self._sink.flush()
        self.batches.clear()

    def dump(self, path: str) -> None:
        """Write every batch :meth:`cut` closed to ``path``, one JSON list
        of spans per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for batch in self.batches:
                fh.write(json.dumps(batch) + "\n")


def load_worker_batches(sink_dir: str) -> List[List[Span]]:
    """Every span batch the workers wrote under ``sink_dir``; parent indices
    are local to their batch."""
    batches: List[List[Span]] = []
    if not os.path.isdir(sink_dir):
        return batches
    for name in sorted(os.listdir(sink_dir)):
        with open(os.path.join(sink_dir, name), encoding="utf-8") as fh:
            for line in fh:
                batches.append([tuple(s) for s in json.loads(line)])
    return batches


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    kids: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return [
        (s[2] - s[1]) - covered(s[1], s[2], ((spans[k][1], spans[k][2]) for k in kids[i]))
        for i, s in enumerate(spans)
    ]


def roots(spans: Sequence[Span]) -> List[int]:
    """The index of each span's root span."""
    out = [0] * len(spans)
    for i, s in enumerate(spans):
        # Parents precede children, so the parent's root is already known.
        out[i] = i if s[3] < 0 else out[s[3]]
    return out


def tree_self_sums(spans: Sequence[Span]) -> Dict[int, float]:
    """Sum of self times over each root's tree, keyed by root index."""
    sums: Dict[int, float] = defaultdict(float)
    for r, st in zip(roots(spans), self_times(spans)):
        sums[r] += st
    return dict(sums)


class LayerTotals:
    """Per-name totals over the spans of a chosen set of traces."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)

    def add(self, spans: Sequence[Span], traces: Optional[set] = None) -> None:
        for s, st in zip(spans, self_times(spans)):
            if traces is not None and s[4] not in traces:
                continue
            name = s[0]
            self.count[name] += 1
            self.total_s[name] += s[2] - s[1]
            self.self_s[name] += st
            self.work[name] += s[5]


# ---------------------------------------------------------------------------
# the layer map
# ---------------------------------------------------------------------------

def _linear_fwd(args, out) -> float:
    m, x = args[0], args[1]
    return 2.0 * x.shape[0] * m.in_features * m.out_features


def _linear_bwd(args, out) -> float:
    m, dout = args[0], args[1]
    return 4.0 * dout.shape[0] * m.in_features * m.out_features


def _conv_fwd(args, out) -> float:
    m = args[0]
    return 2.0 * out.size * m.in_channels * m.kernel_size ** 2


def _conv_bwd(args, out) -> float:
    m, dout = args[0], args[1]
    return 4.0 * dout.size * m.in_channels * m.kernel_size ** 2


def _input_elems(args, out) -> float:
    return float(args[1].size)


def _output_elems(args, out) -> float:
    return float(out.size)


def install_layers(tracer: Tracer, workers_only: bool = False) -> None:
    """Wrap the public entry point of every ``repro`` layer the workloads
    cross; ``workers_only`` wraps only the layers a worker process runs.
    The wrappers only read the clock, so a traced run trains the same
    numbers as an untraced one."""
    from repro.algorithms.fedtrip import FedTrip
    from repro.fl import executor as fl_executor
    from repro.fl import process_executor
    from repro.nn import Conv2d, Linear, MaxPool2d, ReLU
    from repro.nn.losses import CrossEntropyLoss
    from repro.optim.sgd import SGD

    def method(owner, attr, name, **kw):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    if not workers_only:
        _install_main_layers(tracer, method)
    # one client task, wherever it runs; pool workers look the function up
    # in the process-executor module, everything else in repro.fl.executor.
    task = tracer.wrap(
        "client.task", fl_executor.execute_task,
        trace=lambda spec, *rest: spec.round_idx, flush=True,
    )
    tracer.patch(fl_executor, "execute_task", task)
    tracer.patch(process_executor, "execute_task", task)
    # strategy hooks and the local optimizer
    method(FedTrip, "on_round_start", "algorithms.round_start")
    method(FedTrip, "local_step", "algorithms.local_step")
    method(FedTrip, "modify_gradients", "algorithms.attach")
    method(SGD, "step", "optim.step")
    # nn kernels
    method(Conv2d, "forward", "nn.conv2d.fwd", work=_conv_fwd)
    method(Conv2d, "backward", "nn.conv2d.bwd", work=_conv_bwd)
    method(MaxPool2d, "forward", "nn.maxpool2d.fwd", work=_input_elems)
    method(MaxPool2d, "backward", "nn.maxpool2d.bwd", work=_output_elems)
    method(Linear, "forward", "nn.linear.fwd", work=_linear_fwd)
    method(Linear, "backward", "nn.linear.bwd", work=_linear_bwd)
    method(ReLU, "forward", "nn.relu.fwd", work=_input_elems)
    method(ReLU, "backward", "nn.relu.bwd", work=_input_elems)
    method(CrossEntropyLoss, "__call__", "nn.loss.fwd", work=_input_elems)


def _install_main_layers(tracer: Tracer, method) -> None:
    from repro.api import registry
    from repro.api.engine import Engine
    from repro.api.spec import ExperimentSpec
    from repro.fl import executor as fl_executor
    from repro.fl import process_executor
    from repro.fl.asyncfl.engine import AsyncFLEngine
    from repro.fl.net.coordinator import NetworkExecutor
    from repro.fl.server import Server

    # setup
    method(ExperimentSpec, "build_data", "data.build")
    method(registry, "build_mode", "api.engine_build")
    method(NetworkExecutor, "__init__", "net.fleet_ready")
    # engine rounds, evaluation, aggregation, the event loop
    round_of = lambda engine: engine.server.round_idx  # noqa: E731
    method(Engine, "run_round", "api.round", trace=round_of)
    method(AsyncFLEngine, "run_round", "api.round", trace=round_of)
    method(Engine, "evaluate_global", "eval.evaluate")
    method(Server, "apply_updates", "server.apply_updates")
    method(AsyncFLEngine, "_dispatch_wave", "asyncfl.dispatch")
    method(AsyncFLEngine, "_arrive", "asyncfl.arrive")
    # executors
    for cls in (fl_executor.SerialExecutor, process_executor.ProcessExecutor,
                NetworkExecutor):
        method(cls, "run", "executor.run")
        method(cls, "broadcast", "executor.broadcast")
