"""Tests of the benchmark's own machinery (no workload is run here)."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from perfbench import measure, metrics, tracer as tr
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert metrics.beyond(n, expected) >= 10


def test_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert metrics.nearest_rank(samples, 50) == 50
    assert metrics.nearest_rank(samples, 90) == 90
    assert metrics.nearest_rank(list(reversed(samples)), 90) == 90
    assert metrics.nearest_rank([7.0], 99) == 7.0
    # ten samples lie beyond the 90th percentile of 100
    assert sum(s > metrics.nearest_rank(samples, 90) for s in samples) == 10
    with pytest.raises(ValueError):
        metrics.nearest_rank([], 50)


# -- self time ---------------------------------------------------------------

def _span(name, t0, t1, parent):
    return (name, float(t0), float(t1), parent, 0, 0.0)


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span("root", 0, 10, -1),
        _span("a", 1, 4, 0),
        _span("a.child", 2, 3, 1),
        _span("b", 3, 6, 0),    # overlaps a
        _span("c", 8, 12, 0),   # runs past its parent's end
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert tr.roots(spans) == [0, 0, 0, 0, 0]


def test_self_times_of_a_sequential_tree_sum_to_the_root():
    spans = [
        _span("round", 0, 10, -1),
        _span("x", 1, 3, 0),
        _span("x.y", 1.5, 2.5, 1),
        _span("z", 4, 9, 0),
        _span("z.w", 4, 5, 3),
        _span("next_round", 11, 12, -1),
    ]
    sums = tr.tree_self_sums(spans)
    assert sums[0] == pytest.approx(10.0)
    assert sums[5] == pytest.approx(1.0)


def test_covered_merges_and_clips():
    assert tr.covered(0, 10, []) == 0.0
    assert tr.covered(0, 10, [(2, 4), (3, 5), (7, 8)]) == pytest.approx(4.0)
    assert tr.covered(0, 10, [(-5, 1), (9, 20)]) == pytest.approx(2.0)
    assert tr.covered(0, 10, [(11, 12)]) == 0.0


class _Toy:
    def outer(self):
        self.inner()
        self.inner()
        return 3

    def inner(self):
        time.sleep(0.001)


def test_tracer_records_a_tree_whose_self_times_sum_to_the_root():
    tracer = tr.Tracer()
    tracer.patch(_Toy, "outer", tracer.wrap("outer", _Toy.outer,
                                            trace=lambda self: 7))
    tracer.patch(_Toy, "inner", tracer.wrap("inner", _Toy.inner,
                                            work=lambda args, out: 2.0))
    try:
        assert _Toy().outer() == 3
    finally:
        tracer.unpatch()
    spans = tracer.cut()
    assert tracer.spans == [] and tracer.batches == [spans]
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert {s[4] for s in spans} == {7}
    assert [s[5] for s in spans] == [0.0, 2.0, 2.0]
    assert tr.tree_self_sums(spans)[0] == pytest.approx(spans[0][2] - spans[0][1])
    # unpatch restores the original functions
    assert "inner" in vars(_Toy) and vars(_Toy)["inner"].__name__ == "inner"
    assert not hasattr(vars(_Toy)["inner"], "__wrapped__")


def test_worker_flush_writes_one_batch_per_task(tmp_path):
    tracer = tr.Tracer(sink_dir=str(tmp_path), in_worker=True)
    task = tracer.wrap("client.task", lambda spec: spec.round_idx * 2,
                       trace=lambda spec: spec.round_idx, flush=True)
    assert task(SimpleNamespace(round_idx=4)) == 8
    assert task(SimpleNamespace(round_idx=5)) == 10
    assert tracer.spans == []
    batches = tr.load_worker_batches(str(tmp_path))
    assert [[(s[0], s[3], s[4]) for s in b] for b in batches] == [
        [("client.task", -1, 4)], [("client.task", -1, 5)]]


def test_layer_totals_filter_by_trace():
    spans = [
        ("api.round", 0.0, 1.0, -1, 1, 0.0),
        ("nn.linear.fwd", 0.2, 0.5, 0, 1, 6.0),
        ("api.round", 1.0, 3.0, -1, 2, 0.0),
    ]
    lt = tr.LayerTotals()
    lt.add(spans, {1})
    assert lt.count["api.round"] == 1
    assert lt.self_s["api.round"] == pytest.approx(0.7)
    assert lt.work["nn.linear.fwd"] == 6.0


def test_cpu_rotation_visits_each_cpu_and_restores_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    seen = []
    with measure.cpu_rotation() as rotate:
        for _ in range(2 * len(before)):
            rotate()
            seen.append(frozenset(os.sched_getaffinity(0)))
    assert os.sched_getaffinity(0) == before
    if len(before) > 1:
        assert all(len(s) == 1 for s in seen)
        assert set().union(*seen) == before
    with measure.cpu_rotation(enabled=False) as rotate:
        rotate()
        assert os.sched_getaffinity(0) == before


_LEAVES_CHILDREN = """
import os, subprocess, sys
from multiprocessing import resource_tracker, shared_memory
from perfbench import measure
shm = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
shm.close(); shm.unlink()
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
tracker = resource_tracker._resource_tracker._pid
assert {sleeper.pid, tracker} <= set(map(int, measure.child_pids(str(os.getpid()))))
measure.stop_child_processes()
assert measure.child_pids(str(os.getpid())) == []
print("stopped", sleeper.pid, tracker)
"""


def test_stop_child_processes_stops_workers_and_the_resource_tracker():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to list child processes")
    out = subprocess.run([sys.executable, "-c", _LEAVES_CHILDREN], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    _word, sleeper, tracker = out.stdout.split()
    for pid in (sleeper, tracker):
        assert not os.path.exists(f"/proc/{pid}")


# -- output accounting -------------------------------------------------------

def _record(selected, failed=(), retried=()):
    return SimpleNamespace(selected=list(selected), failed_clients=list(failed),
                           retried_clients=list(retried))


def test_task_counts_per_mode():
    records = [_record([1, 2, 3], failed=[2], retried=[2]), _record([4, 5])]
    # sync: the cohort includes the failed client, retries add attempts
    assert measure.task_counts(records, event_driven=False) == (6, 1, 1)
    # event-driven: the record lists the aggregated batch only
    assert measure.task_counts(records, event_driven=True) == (7, 1, 1)


# -- names and BENCHMARK.json ------------------------------------------------

def test_metric_names_match_the_name_regex():
    names = [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]
    names += [w.name for w in WORKLOADS]
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
        assert len(name) <= 64
    assert len(set(names)) == len(names)
    for bad in ("", "_lead", ".lead", "a b", "a/b", "x" * 65, "é"):
        assert not metrics.NAME_RE.fullmatch(bad), bad


def test_benchmark_json_round_trips_and_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert metrics.validate_benchmark(doc) == []
    assert json.loads(json.dumps(doc)) == doc
    assert len(text.encode()) <= 64 * 1024
    expected = metrics.benchmark_document(
        WORKLOADS, doc["command"], doc["paths"], doc["run_seconds"])
    assert doc == expected
    assert doc["command"][:2] == ["python3", "perfbench/run.py"]
    for path in doc["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


@pytest.mark.parametrize("mutate", [
    lambda d: d["end_to_end"][0].update(bound=0.3),
    lambda d: d["end_to_end"].pop(0),
    lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
    lambda d: d["workloads"][0].update(why="two\nlines"),
    lambda d: d.update(run_seconds=61),
    lambda d: d["command"].append("/abs/path"),
    lambda d: d["per_layer"][0].update(unit="bad unit"),
    lambda d: d.update(extra=1),
])
def test_validate_benchmark_rejects_broken_documents(mutate):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    broken = copy.deepcopy(doc)
    mutate(broken)
    assert metrics.validate_benchmark(broken)
