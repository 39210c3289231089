"""Process-pool execution with shared-memory weight broadcast.

Training a client round is dominated by pure-Python tape/optimizer work that
holds the GIL, so :class:`~repro.fl.executor.ThreadedExecutor` stops scaling
almost immediately.  :class:`ProcessExecutor` sidesteps the GIL entirely: it
trains clients in persistent worker processes, each reached through one
duplex pipe with at most one task in flight, and instead of pickling the
full global model into every client task it broadcasts the weights **once
per round** through a ``multiprocessing.shared_memory`` flat buffer:

* the server side does **one** ``np.copyto`` per round into the shared
  segment (:meth:`ProcessExecutor.broadcast`): the engine's
  :class:`~repro.fl.params.ParamPlane` and the segment share the same
  :class:`~repro.fl.params.WeightLayout`, so the whole model moves as a
  single flat byte copy;
* every worker holds *read-only* NumPy views into the same segment, so
  reading the global weights is zero-copy — ``set_weights`` copies them into
  the worker's model exactly as the in-process backends do.

Workers are initialized once per process from a picklable
:class:`ProcessWorkerSpec` (dataset, strategy, config, model registry name)
and rebuild their model/optimizer/clients locally with the same seeded RNG
streams as the engine, so a fixed seed produces byte-identical round records
across serial, threaded and process backends (asserted by tests).

Synchronization contract: the engine calls ``broadcast(weights)`` strictly
before ``run(tasks)`` and ``run`` is synchronous, so no worker ever reads
the segment while the parent writes it.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Strategy
from repro.data.federated import FederatedData
from repro.fl.client import Client
from repro.fl.executor import (
    ClientTaskSpec,
    TaskResult,
    TaskRuntime,
    WorkerContext,
    execute_task,
    make_optimizer,
)
from repro.fl.faults import FaultInjector, TaskFailure
# WeightLayout's home is repro.fl.params since the flat-parameter refactor;
# re-exported here for backward compatibility.
from repro.fl.params import ParamPlane, WeightLayout
from repro.fl.population import ClientDirectory, Population
from repro.fl.robust.adversaries import Adversary
from repro.fl.types import FLConfig
from repro.models import build_model
from repro.obs import WorkerShardRecorder
from repro.nn.losses import CrossEntropyLoss
from repro.utils.rng import RngStream

__all__ = ["WeightLayout", "ProcessWorkerSpec", "ProcessExecutor"]


@dataclass
class ProcessWorkerSpec:
    """Everything a worker process needs to rebuild its half of the engine.

    Must stay picklable: under ``spawn`` it crosses the process boundary
    once per worker start, as the worker's argument.
    """

    data: FederatedData
    strategy: Strategy
    config: FLConfig
    model_name: str
    opt_name: str
    fp_flops: float
    #: optional Byzantine adversary — picklable by construction (holds only
    #: plain numbers and its roster tuple); workers re-apply its data
    #: poisoning to their locally rebuilt clients.
    adversary: Optional[Adversary] = None
    #: optional virtual population — pure arithmetic (size, n_shards), so
    #: pickling it is free; workers rebuild a lazy ClientDirectory over it
    #: instead of an eager client list.  Client state still travels with
    #: each task, so worker-side directories only serve shards and RNG.
    population: Optional[Population] = None
    #: observability (repro.obs): when true, each pool worker builds a
    #: WorkerShardRecorder whose per-task metric deltas (and, with
    #: obs_spans, span records) pickle home on every TaskResult; the engine
    #: absorbs them in task order so merged metrics are deterministic.
    obs_enabled: bool = False
    obs_spans: bool = False
    #: optional deterministic fault injector (repro.fl.faults) — stateless
    #: (seed + name + kwargs), so pickling ships the exact coin streams the
    #: in-process backends draw from.  Workers flag ``in_pool_worker`` on
    #: their runtime so process-only faults (worker death) know they may
    #: actually kill the hosting process.
    fault_injector: Optional[FaultInjector] = None
    #: filled in by ProcessExecutor.__init__, never by the engine
    layout: Optional[WeightLayout] = None
    shm_name: str = ""


# Per-worker-process globals, populated by _init_worker.
_WORKER: Optional[WorkerContext] = None
_RUNTIME: Optional[TaskRuntime] = None
_SHM: Optional[shared_memory.SharedMemory] = None
#: (segment name, unpickled payload) — one unpickle per worker per round.
_PAYLOAD_CACHE: Tuple[Optional[str], Dict[str, Any]] = (None, {})


#: reference to a round's broadcast payload segment: (shm name, nbytes)
PayloadRef = Optional[Tuple[str, int]]


def _resolve_payload(ref: PayloadRef) -> Dict[str, Any]:
    """Fetch the round's server broadcast payload, caching per segment."""
    global _PAYLOAD_CACHE
    if ref is None:
        return {}
    name, nbytes = ref
    if _PAYLOAD_CACHE[0] != name:
        shm = shared_memory.SharedMemory(name=name)
        try:
            payload = pickle.loads(bytes(shm.buf[:nbytes]))
        finally:
            shm.close()
        _PAYLOAD_CACHE = (name, payload)
    return _PAYLOAD_CACHE[1]


def _init_worker(spec: ProcessWorkerSpec) -> None:
    """Pool initializer: attach the weight segment, rebuild model/clients."""
    global _WORKER, _RUNTIME, _SHM
    # Workers share the parent's resource tracker (multiprocessing hands the
    # tracker fd to fork and spawn children alike), so the attach below is a
    # no-op re-registration; only the creating process ever unlinks.
    _SHM = shared_memory.SharedMemory(name=spec.shm_name)
    views = spec.layout.views(_SHM.buf, writeable=False)
    # Packed layouts also expose the segment as one (P,) vector, so worker
    # models adopt each round's broadcast with a single flat copy.
    flat_view = (
        spec.layout.flat_view(_SHM.buf, writeable=False)
        if spec.layout.is_packed else None
    )

    data_spec = spec.data.spec
    root = RngStream(spec.config.seed)

    def model_fn():
        # Fresh child generator per call -> replicas get the exact initial
        # weights the engine's canonical model got.
        return build_model(
            spec.model_name,
            data_spec.input_shape,
            data_spec.num_classes,
            rng=root.child("model-init").generator,
        )

    model = model_fn()
    frozen = model_fn()
    frozen.eval()
    # Handing the model (not its parameter list) re-homes it onto weight/
    # grad planes and gives the optimizer the fused flat update path.
    _WORKER = WorkerContext(
        model, frozen, make_optimizer(spec.opt_name, model, spec.config),
        CrossEntropyLoss(),
    )
    if spec.population is not None:
        # Lazy roster in the worker too: only the clients this worker is
        # actually handed tasks for ever materialize.  No state factory —
        # strategy state arrives with each task and returns with its result.
        clients = ClientDirectory(
            spec.population, spec.data, seed=spec.config.seed
        )
    else:
        clients = [
            Client(k, spec.data.client_dataset(k), seed=spec.config.seed)
            for k in range(spec.data.n_clients)
        ]
        if spec.adversary is not None:
            # Same data poisoning the engine applied to its own client list;
            # deterministic, so both sides see identical shards.
            spec.adversary.poison_clients(clients, data_spec.num_classes)
    _RUNTIME = TaskRuntime(
        clients=clients,
        strategy=spec.strategy,
        config=spec.config,
        fp_flops=spec.fp_flops,
        global_weights=views,
        global_flat=flat_view,
        adversary=spec.adversary,
        fault_injector=spec.fault_injector,
        in_pool_worker=True,
    )
    if spec.obs_enabled:
        _RUNTIME.recorder = WorkerShardRecorder(with_spans=spec.obs_spans)


def _run_task(job: Tuple[ClientTaskSpec, PayloadRef]) -> TaskResult:
    """Run one client task; runs in the worker process."""
    assert _WORKER is not None and _RUNTIME is not None, "worker not initialized"
    task, payload_ref = job
    _RUNTIME.server_broadcast = _resolve_payload(payload_ref)
    result = execute_task(task, _WORKER, _RUNTIME)
    recorder = _RUNTIME.recorder
    if recorder.enabled:
        # Drain this worker's observability shard onto the result so the
        # engine can merge it at round end (plain dicts, cheap to pickle).
        result.obs = recorder.drain()
    return result


@dataclass
class _TaskError:
    """A task's exception on its way from a worker to the parent."""

    exc: Exception
    remote_traceback: str


def _worker_main(conn: Connection, spec: ProcessWorkerSpec,
                 parent_end: Connection) -> None:
    """Worker process body: build once, then answer one job per message.

    Every job gets exactly one reply: its :class:`TaskResult`, or the
    exception it raised (re-raised by the parent, chained to the worker's
    traceback).  ``None`` or a closed pipe ends the loop.
    """
    # A forked child inherits the parent's end of its own pipe; holding it
    # would keep this worker from ever seeing EOF if the parent dies.
    parent_end.close()
    _init_worker(spec)
    try:
        while True:
            job = conn.recv()
            if job is None:
                return
            try:
                reply: Any = _run_task(job)
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                reply = _TaskError(exc, traceback.format_exc())
                try:
                    pickle.dumps(exc)
                except Exception:  # noqa: BLE001 - keep its text instead
                    reply.exc = RuntimeError(repr(exc))
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent went away


def _worker_death(task: ClientTaskSpec) -> TaskResult:
    return TaskResult(
        update=None,
        state=None,
        failure=TaskFailure(
            kind="worker_death",
            client_id=task.client_id,
            round_idx=task.round_idx,
            attempt=task.attempt,
            detail="pool worker died before reporting",
        ),
    )


class ProcessExecutor:
    """Train client tasks in ``n_workers`` persistent worker processes.

    Each worker is a plain :class:`multiprocessing.Process` with one duplex
    :func:`~multiprocessing.Pipe` and at most one task in flight, so the
    parent always knows which task a worker holds: a worker that dies costs
    exactly that task (a ``worker_death`` failure) and is respawned at once.

    Parameters
    ----------
    spec:
        Picklable worker build recipe (``shm_name``/``layout`` are filled in
        here from ``initial_weights``).
    initial_weights:
        The engine's global weight tree; defines the shared segment layout
        and seeds its first broadcast.
    n_workers:
        Number of worker processes.
    mp_start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default prefers
        ``fork`` where available (no re-import cost), else ``spawn``.
    """

    name = "process"

    def __init__(
        self,
        spec: ProcessWorkerSpec,
        initial_weights: Sequence[np.ndarray],
        n_workers: int = 2,
        mp_start_method: Optional[str] = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if isinstance(initial_weights, ParamPlane):
            layout = initial_weights.layout
        else:
            layout = WeightLayout.from_weights(initial_weights)
        self._layout = layout
        self._shm = shared_memory.SharedMemory(create=True, size=layout.total_bytes)
        self._views: Optional[List[np.ndarray]] = layout.views(self._shm.buf, writeable=True)
        #: whole-segment byte view — one memcpy broadcasts the entire model
        #: when the engine hands us its ParamPlane with the same layout.
        self._bytes: Optional[np.ndarray] = np.ndarray(
            (layout.total_bytes,), dtype=np.uint8, buffer=self._shm.buf
        )
        self._payload_shm: Optional[shared_memory.SharedMemory] = None
        self._payload_ref: PayloadRef = None
        self.broadcast(initial_weights)
        if mp_start_method is None:
            mp_start_method = "fork" if "fork" in get_all_start_methods() else "spawn"
        self._ctx = get_context(mp_start_method)
        self._spec = replace(spec, shm_name=self._shm.name, layout=layout)
        self._procs: List[BaseProcess] = []
        self._conns: List[Connection] = []
        self._closed = False
        for slot in range(n_workers):
            proc, conn = self._start_worker(slot)
            self._procs.append(proc)
            self._conns.append(conn)

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def borrow_worker(self) -> Optional[WorkerContext]:
        """Worker contexts live in other processes; there is nothing to lend."""
        return None

    def broadcast(self, weights,
                  payload: Optional[Dict[str, Any]] = None) -> None:
        """Copy the new global weights into the shared segment and publish
        the server's broadcast payload, pickled **once** per round into its
        own segment — never per client task.

        When the engine hands its :class:`~repro.fl.params.ParamPlane`
        (same layout as the segment), the weight copy is a single
        ``np.copyto`` over the raw bytes; a plain weight tree falls back to
        one copy per parameter array.
        """
        assert self._views is not None, "executor is closed"
        if isinstance(weights, ParamPlane) and weights.layout == self._layout:
            np.copyto(self._bytes, weights.bytes_view())
        else:
            tree = weights.tree if isinstance(weights, ParamPlane) else weights
            if len(tree) != len(self._views):
                raise ValueError(
                    f"weight tree has {len(tree)} arrays, layout expects {len(self._views)}"
                )
            for view, w in zip(self._views, tree):
                np.copyto(view, w)
        # The previous round's payload segment is quiescent by now (run()
        # is synchronous), so it can be retired before publishing the next.
        self._drop_payload_segment()
        if payload:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._payload_shm = shared_memory.SharedMemory(create=True, size=len(blob))
            self._payload_shm.buf[: len(blob)] = blob
            self._payload_ref = (self._payload_shm.name, len(blob))

    def _drop_payload_segment(self) -> None:
        self._payload_ref = None
        if self._payload_shm is not None:
            self._payload_shm.close()
            try:
                self._payload_shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._payload_shm = None

    def _start_worker(self, slot: int) -> Tuple[BaseProcess, Connection]:
        """Start a worker process for ``slot``; return it and its pipe end."""
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_end, self._spec, parent_end),
            name=f"fl-process-worker-{slot}", daemon=True,
        )
        proc.start()
        child_end.close()
        return proc, parent_end

    def _retire(self, slot: int, kill: bool = True) -> None:
        """Reap the worker in ``slot``; ``kill`` stops it if it still runs."""
        proc = self._procs[slot]
        if kill:
            proc.terminate()  # a no-op on a reaped process
        proc.join()
        proc.close()
        self._conns[slot].close()

    def _replace(self, slot: int) -> None:
        self._retire(slot)
        self._procs[slot], self._conns[slot] = self._start_worker(slot)

    def run(self, tasks: Sequence[ClientTaskSpec]) -> List[TaskResult]:
        """Run ``tasks`` on the workers and return results in task order.

        Tasks go out in order, one at a time, to whichever worker is idle;
        each worker holds at most one.  Two in flight could deadlock: the
        parent blocked writing a task into a full pipe while the worker is
        blocked writing a result the parent is not reading.  The parent
        sleeps in :func:`multiprocessing.connection.wait` on the busy
        workers' pipes and process sentinels.  A worker whose sentinel fires
        or whose pipe breaks is dead: its one task becomes a
        ``worker_death`` :class:`~repro.fl.faults.TaskFailure` (the engine's
        retry/quorum policy decides what happens next) and a replacement
        worker starts before the next task goes out.
        """
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        idle = list(range(len(self._procs)))
        busy: Dict[int, int] = {}  # worker slot -> task index

        def died(slot: int) -> None:
            i = busy.pop(slot)
            results[i] = _worker_death(tasks[i])
            self._replace(slot)
            idle.append(slot)

        next_task = 0
        try:
            while True:
                while idle and next_task < len(tasks):
                    slot = idle.pop()
                    busy[slot] = next_task
                    next_task += 1
                    try:
                        self._conns[slot].send((tasks[busy[slot]], self._payload_ref))
                    except OSError:  # BrokenPipeError: it died between tasks
                        died(slot)
                if not busy:  # every task dispatched and answered
                    break
                owner = {}
                for slot in busy:
                    owner[self._conns[slot]] = slot
                    owner[self._procs[slot].sentinel] = slot
                for slot in {owner[obj] for obj in wait(list(owner))}:
                    try:
                        reply = self._conns[slot].recv()
                    except (EOFError, OSError):
                        died(slot)
                        continue
                    i = busy.pop(slot)
                    idle.append(slot)
                    if isinstance(reply, _TaskError):
                        raise reply.exc from RuntimeError(reply.remote_traceback)
                    results[i] = reply
        finally:
            # Only an exception leaves tasks in flight; their results would
            # answer a later run's tasks, so those workers are replaced.
            for slot in busy:
                self._replace(slot)
        return results  # type: ignore[return-value]  # every slot is filled

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # already dead
                pass
        for slot in range(len(self._procs)):
            self._retire(slot, kill=False)
        self._drop_payload_segment()
        # Views hold exported buffers; release them before closing the segment.
        self._views = None
        self._bytes = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass
