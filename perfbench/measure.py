"""Building engines, timing rounds and checking their outputs.

The load is a closed loop: one main process runs rounds back to back
and each round waits for its whole cohort (or, in semisync mode, for its
aggregation buffer) before the next one starts.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: a run sets up at least this many times and for this long (capped at
#: ``SETUP_MAX``); ``setup_s`` is the median set-up.
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 1.0, 9
#: a run makes at least this many passes over the reference trajectory,
#: and more until the passes took this long (at most ``REFERENCE_MAX``);
#: ``time_to_target_s`` is their median.
REFERENCE_MIN, REFERENCE_MIN_S, REFERENCE_MAX = 3, 8.0, 9
#: steady rounds a run measures at least, so the 90th percentile has ten
#: samples beyond it.
MIN_STEADY_ROUNDS = 110
#: evaluations ``final_accuracy`` averages over.
FINAL_EVALS = 10

perf = time.perf_counter


def build(spec):
    """Build the data and the engine for ``spec``; returns ``(engine,
    data_s, engine_s)``.  Engine build includes pool or fleet spawn and
    worker registration."""
    from repro.api import registry

    t0 = perf()
    data = spec.build_data()
    t1 = perf()
    engine = registry.build_mode(spec.mode, spec=spec, data=data)
    return engine, t1 - t0, perf() - t1


def build_repeatedly(spec, repeats: int, min_seconds: float = 0.0,
                     max_repeats: Optional[int] = None):
    """Build at least ``repeats`` times and until ``min_seconds`` of build
    time accumulated (at most ``max_repeats`` times), closing all but the
    last engine; returns ``(engine, [(data_s, engine_s), ...])``.

    Each engine runs one round before it is closed: closing a network
    fleet whose workers are still building their state can wait seconds
    for a worker that missed the shutdown."""
    times: List[Tuple[float, float]] = []
    engine = None
    cap = max_repeats if max_repeats is not None else repeats
    while len(times) < repeats or (
            sum(map(sum, times)) < min_seconds and len(times) < cap):
        if engine is not None:
            engine.run_round()
            engine.close()
        engine, data_s, engine_s = build(spec)
        times.append((data_s, engine_s))
    return engine, times


@dataclass
class Rounds:
    """Wall time and trained samples of consecutive rounds."""

    walls: List[float] = field(default_factory=list)
    samples: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.walls)

    @property
    def samples_per_s(self) -> float:
        return sum(self.samples) / sum(self.walls)


def run_rounds(engine, n: Optional[int] = None, until: Optional[float] = None,
               min_rounds: int = 0, before_round=None) -> Rounds:
    """Run ``n`` rounds, or rounds until the clock passes ``until`` and at
    least ``min_rounds`` ran, calling ``before_round()`` ahead of each.  A
    round's samples are the local-training samples of the updates it
    aggregated."""
    sizes = [c.num_samples * engine.config.local_epochs for c in engine.clients]
    out = Rounds()
    while (len(out) < n) if n is not None else (len(out) < min_rounds or perf() < until):
        if before_round is not None:
            before_round()
        t0 = perf()
        record = engine.run_round()
        out.walls.append(perf() - t0)
        out.samples.append(sum(sizes[k] for k in record.selected))
    return out


@contextlib.contextmanager
def cpu_rotation(enabled: bool = True):
    """Yield a callable that moves this process to the next allowed CPU.

    A single busy process stays on the CPU it started on, and on a shared
    host one CPU can run much slower than the other for minutes (a
    neighbour on its sibling thread), so an unpinned run measures
    whichever CPU it landed on.  Moving round by round makes every run
    sample each CPU alike.  The original affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if not enabled or len(cpus) < 2:
        yield lambda: None
        return
    turn = itertools.count()

    def rotate() -> None:
        os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})

    try:
        yield rotate
    finally:
        os.sched_setaffinity(0, cpus)


@dataclass
class Trajectory:
    """A run from a fresh engine towards the target accuracy."""

    reached: bool
    #: rounds up to and including the first evaluation at the target.
    rounds: int
    #: summed wall time of those rounds.
    seconds: float
    #: cumulative GFLOPs at that round.
    gflops: float
    best_accuracy: float
    history: Any


def trajectory(engine, target: float, rounds: int,
               stop_at_target: bool = False, before_round=None) -> Trajectory:
    """Train ``rounds`` rounds (or until the target, with
    ``stop_at_target``) and note when an evaluation first reached
    ``target``; ``before_round()`` runs ahead of each round."""
    seconds, hit, gflops, best = 0.0, 0, math.nan, -math.inf
    for i in range(rounds):
        if before_round is not None:
            before_round()
        t0 = perf()
        record = engine.run_round()
        if not hit:
            seconds += perf() - t0
        acc = record.test_accuracy
        if acc is not None:
            best = max(best, acc)
            if not hit and acc >= target:
                hit, gflops = i + 1, record.cumulative_flops / 1e9
        if hit and stop_at_target:
            break
    return Trajectory(bool(hit), hit or rounds, seconds, gflops, best, engine.history)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def canonical(records) -> str:
    """Round records as JSON without their host-time fields
    (``wall_seconds``, ``phase_seconds``): equal strings mean
    byte-identical training."""
    out = []
    for r in records:
        d = r.to_dict()
        d.pop("wall_seconds")
        d.pop("phase_seconds")
        out.append(d)
    return json.dumps(out, sort_keys=True)


def nonfinite_rounds(history) -> List[int]:
    """Rounds whose loss, accuracy or cost counters are not finite."""
    bad = []
    for r in history.records:
        values = [r.mean_train_loss, r.cumulative_flops, r.cumulative_comm_bytes]
        values += [v for v in (r.test_accuracy, r.test_loss) if v is not None]
        if not all(math.isfinite(v) for v in values):
            bad.append(r.round_idx)
    return bad


def task_counts(records, event_driven: bool) -> Tuple[int, int, int]:
    """``(attempted, failed, retried)`` client tasks over ``records``.

    A sync record's ``selected`` is the sampled cohort, failures included;
    an event-driven record's is the aggregated batch, failures excluded.
    Every retry is one more attempt.
    """
    attempted = failed = retried = 0
    for r in records:
        failed += len(r.failed_clients)
        retried += len(r.retried_clients)
        attempted += len(r.selected) + len(r.retried_clients)
        if event_driven:
            attempted += len(r.failed_clients)
    return attempted, failed, retried


def final_accuracy(history, last: int = FINAL_EVALS) -> float:
    accs = [r.test_accuracy for r in history.records if r.test_accuracy is not None]
    tail = accs[-last:]
    return sum(tail) / len(tail) if tail else math.nan


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------

def _vm_hwm_kib(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: str) -> List[str]:
    out: List[str] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                out.extend(fh.read().split())
        except OSError:
            continue
    return out


def peak_rss_mb() -> float:
    """Peak resident memory (MiB) of this process plus each live child
    process (pool or network workers), each its own high-water mark."""
    me = str(os.getpid())
    kib = _vm_hwm_kib(me) + sum(_vm_hwm_kib(c) for c in child_pids(me))
    if kib == 0:  # no /proc: this process only
        import resource

        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def stop_child_processes() -> None:
    """Stop every process this one started that is still alive and wait
    for each to end.

    Pool and fleet workers end when their engine closes, so normally only
    the ``multiprocessing`` resource tracker is left: shared memory starts
    it, and it would otherwise outlive this process.  It is stopped last,
    once no other child can hold its pipe open.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in map(int, child_pids(str(os.getpid()))):
        if pid == tracker_pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if tracker_pid is not None:
        tracker._stop()


def sgemm_gflops(n: int = 512, reps: int = 12) -> float:
    """Best-of-``reps`` float32 ``n x n`` matmul rate: the host roofline
    for the ``nn`` kernels, which are float32 GEMMs at heart."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = math.inf
    for _ in range(reps):
        t0 = perf()
        a @ b
        best = min(best, perf() - t0)
    return 2.0 * n ** 3 / best / 1e9


def host_fingerprint(sgemm: float) -> Dict[str, Any]:
    blas: Dict[str, Any] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sgemm_gflops_per_s": sgemm,
    }
