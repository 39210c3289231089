#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cnn_paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload mlp_network --heldout-seed 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` measures the per-layer metrics in a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an output check fails.
"""

from __future__ import annotations

import os
import sys

# BLAS runs single-threaded in the main process and, through the inherited
# environment, in every worker it spawns: the load model gives each
# executor worker one core.  This must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import replace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HOOK = os.path.join(ROOT, "perfbench", "hook")
#: a run that has not finished by then is stopped and reported failed.
WATCHDOG_S = 170
#: untraced/traced round pairs a traced run measures at least.
MIN_TRACED_PAIRS = 20


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"run exceeded {WATCHDOG_S} s")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class Report:
    """Collects metrics and check failures; prints them at the end."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.errors: list = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, note: str = "") -> None:
        from perfbench.metrics import UNITS

        unit = UNITS[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        print(f"{name:34s} {_fmt(value):>12s} {unit:8s} {note}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)
            print(f"CHECK FAILED: {message}")

    def finish(self, expected) -> int:
        for name in expected:
            if name not in self.metrics:
                self.check(False, f"metric {name} was not measured")
            elif not math.isfinite(self.metrics[name]["value"]):
                self.check(False, f"metric {name} is not finite")
                del self.metrics[name]
        correct = not self.errors
        print(json.dumps({
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }))
        return 0 if correct else 1


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float, report: Report) -> None:
    from perfbench import measure
    from perfbench.metrics import nearest_rank, tail_percentile
    from perfbench.workloads import REFERENCE_SEED, STEADY_ROUNDS, steady_seeds

    # The steady phase shares its time between several training seeds
    # derived from ``seed``: in semisync mode the rounds' work depends on the
    # seed, and one seed alone would set the round percentiles.
    t_start = measure.perf()
    sub_seeds = steady_seeds(seed)
    setups, steady, histories = [], measure.Rounds(), []
    for i, sub_seed in enumerate(sub_seeds):
        spec = workload.spec(sub_seed, STEADY_ROUNDS)
        if i == 0:
            engine, times = measure.build_repeatedly(
                spec, measure.SETUP_MIN, measure.SETUP_MIN_S, measure.SETUP_MAX)
        else:
            engine, times = measure.build_repeatedly(spec, 1)
        setups += times
        # A serial workload runs in this process alone and is moved between
        # CPUs round by round; pooled workloads leave placement to the
        # scheduler, which already spreads the main process and its workers.
        with engine, measure.cpu_rotation(not workload.pooled) as rotate:
            measure.run_rounds(engine, n=1)  # warm-up, not a steady round
            part = measure.run_rounds(
                engine, until=measure.perf() + seconds / len(sub_seeds),
                min_rounds=-(-measure.MIN_STEADY_ROUNDS // len(sub_seeds)),
                before_round=rotate,
            )
            if i == 0:  # later engines' workers fork from a grown main process
                rss = measure.peak_rss_mb()
            histories.append(engine.history)
        steady.walls += part.walls
        steady.samples += part.samples
    t_steady = measure.perf()

    # The reference trajectory: the first pass trains the full budget, the
    # others stop at the target and must replay the first pass exactly.
    ref_spec = workload.spec(REFERENCE_SEED, workload.reference_rounds)
    passes = []
    started = measure.perf()
    while len(passes) < measure.REFERENCE_MIN or (
            measure.perf() - started < measure.REFERENCE_MIN_S
            and len(passes) < measure.REFERENCE_MAX):
        ref_engine, _d, _e = measure.build(ref_spec)
        with ref_engine, measure.cpu_rotation(not workload.pooled) as rotate:
            passes.append(measure.trajectory(
                ref_engine, workload.target, workload.reference_rounds,
                stop_at_target=bool(passes), before_round=rotate))
    t_passes = measure.perf()
    ref = passes[0]
    for p in passes[1:]:
        n_p = len(p.history)
        report.check(measure.canonical(p.history.records)
                     == measure.canonical(ref.history.records[:n_p]),
                     "a repeated reference pass trained different numbers")

    attempted, failed, retried = measure.task_counts(
        [r for h in histories + [p.history for p in passes] for r in h.records],
        workload.event_driven)
    report.attempted, report.failed = attempted, failed
    n = len(steady)
    ms = [1e3 * w for w in steady.walls]
    tail = tail_percentile(n)
    report.check(tail is not None and tail >= 90.0,
                 f"{n} steady rounds cannot support a 90th percentile")
    for sub_seed, history in zip(sub_seeds, histories):
        report.check(not measure.nonfinite_rounds(history),
                     f"non-finite steady records at training seed {sub_seed}: "
                     f"{measure.nonfinite_rounds(history)}")
    report.check(not measure.nonfinite_rounds(ref.history),
                 f"non-finite reference records: {measure.nonfinite_rounds(ref.history)}")
    report.check(ref.reached,
                 f"reference seed {REFERENCE_SEED} missed {workload.target}% in "
                 f"{workload.reference_rounds} rounds (best {ref.best_accuracy:.2f}%)")
    if workload.pooled:
        serial_spec = replace(ref_spec, executor="serial", n_workers=1)
        serial_engine, _d, _e = measure.build(serial_spec)
        with serial_engine:
            measure.run_rounds(serial_engine, n=len(ref.history))
            same = (measure.canonical(serial_engine.history.records)
                    == measure.canonical(ref.history.records))
        report.check(same, "pooled history differs from its serial-executor replay")
        print(f"# serial replay of {len(ref.history)} reference rounds: "
              f"{'byte-identical' if same else 'DIFFERS'}")
    print(f"# phases: set-ups and steady rounds {t_steady - t_start:.1f} s, "
          f"{len(passes)} reference passes {t_passes - t_steady:.1f} s, "
          f"checks {measure.perf() - t_passes:.1f} s")

    setup_s = [d + e for d, e in setups]
    report.metric("setup_s", statistics.median(setup_s),
                  f"median of {len(setup_s)} set-ups (data build + engine build)")
    report.metric("samples_per_s", steady.samples_per_s,
                  f"{sum(steady.samples)} samples over n={n} steady rounds, "
                  f"training seeds {sub_seeds}")
    report.metric("round_p50_ms", nearest_rank(ms, 50), f"n={n} rounds")
    report.metric("round_p90_ms", nearest_rank(ms, 90),
                  f"n={n} rounds; highest supported p{tail:g} = "
                  f"{_fmt(nearest_rank(ms, tail))} ms" if tail else f"n={n}")
    note = f"reference seed {REFERENCE_SEED}, target {workload.target}%"
    if all(p.reached for p in passes):
        report.metric("time_to_target_s", statistics.median(p.seconds for p in passes),
                      f"{note}, median of {len(passes)} passes")
        report.metric("rounds_to_target", ref.rounds, note)
        report.metric("gflops_to_target", ref.gflops, note)
    report.metric("final_accuracy", measure.final_accuracy(ref.history),
                  f"{note}, mean of evaluations in rounds "
                  f"{workload.reference_rounds - measure.FINAL_EVALS + 1}-"
                  f"{workload.reference_rounds}")
    report.metric("peak_rss_mb", rss, "main process + executor workers, per-process peaks")
    report.metric("task_success_ratio", (attempted - failed) / attempted,
                  f"{attempted} attempted, {failed} failed, {retried} retried tasks")


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(workload, seed: int, seconds: float, sgemm: float,
              report: Report) -> None:
    from perfbench import measure, tracer as tr
    from perfbench.workloads import STEADY_ROUNDS

    spec = workload.spec(seed, STEADY_ROUNDS)
    sink = os.path.join(OUT, f"workers-{workload.name}-{seed}")
    shutil.rmtree(sink, ignore_errors=True)
    tracer = tr.Tracer(sink_dir=sink)
    with contextlib.ExitStack() as engines:
        # The untraced engine is built before any wrapper exists, so its
        # pool or fleet runs unwrapped code.
        plain_engine = engines.enter_context(measure.build(spec)[0])
        tr.install_layers(tracer)
        saved_env = {k: os.environ.get(k) for k in (tr.SINK_ENV, "PYTHONPATH")}
        os.environ[tr.SINK_ENV] = sink
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [HOOK] + ([saved_env["PYTHONPATH"]] if saved_env["PYTHONPATH"] else []))
        try:
            traced_engine = engines.enter_context(measure.build_repeatedly(spec, 3)[0])
            setup_spans = tracer.cut()
        finally:
            tracer.unpatch()
            for k, v in saved_env.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

        # Rounds alternate between the two engines, so a change in the
        # shared host's speed lands on both sides of a pair; the main process's
        # wrappers are installed only around the traced engine's rounds.
        plain, traced = measure.Rounds(), measure.Rounds()
        wire = getattr(traced_engine.executor, "wire_stats", None)
        deadline = measure.perf() + seconds
        n_rounds = 0
        while n_rounds <= MIN_TRACED_PAIRS or measure.perf() < deadline:
            p = measure.run_rounds(plain_engine, n=1)
            tr.install_layers(tracer)
            try:
                t = measure.run_rounds(traced_engine, n=1)
            finally:
                tracer.unpatch()
            if n_rounds == 0:
                wire0 = wire() if wire else None
            else:
                for side, one in ((plain, p), (traced, t)):
                    side.walls += one.walls
                    side.samples += one.samples
            n_rounds += 1
        wire1 = wire() if wire else None
        plain_history = plain_engine.history
        traced_history = traced_engine.history
        layout_bytes = traced_engine.server.plane.layout.total_bytes
    report.check(measure.canonical(traced_history.records)
                 == measure.canonical(plain_history.records),
                 "traced history differs from the untraced one")
    report.check(not measure.nonfinite_rounds(traced_history), "non-finite traced records")
    attempted, failed, retried = measure.task_counts(
        traced_history.records[1:], workload.event_driven)
    report.attempted, report.failed = attempted, failed

    spans = tracer.cut()
    tracer.dump(os.path.join(OUT, f"main-{workload.name}-{seed}.jsonl"))
    batches = tr.load_worker_batches(sink)

    # Per round, the self times of the round's span tree sum to the round.
    sums = tr.tree_self_sums(spans)
    worst = 0.0
    round_roots = [i for i, s in enumerate(spans) if s[0] == "api.round"]
    for i in round_roots:
        worst = max(worst, abs(sums[i] - (spans[i][2] - spans[i][1])))
    report.check(len(round_roots) == n_rounds,
                 f"{len(round_roots)} round spans for {n_rounds} rounds")
    report.check(worst <= 1e-6, f"round self times miss the round by {worst:.3g} s")
    print(f"# {len(round_roots)} traced rounds; per-round self-time sum vs round "
          f"duration: worst gap {worst:.3g} s; {len(spans)} main-process spans, "
          f"{sum(map(len, batches))} worker spans in {len(batches)} task batches")

    steady = set(range(1, n_rounds))
    R = len(steady)
    lt = tr.LayerTotals()
    lt.add(spans, steady)
    for batch in batches:
        lt.add(batch, steady)
    per_setup = {}
    for s in setup_spans:
        per_setup.setdefault(s[0], []).append(s[2] - s[1])

    def per_round_ms(name, which="self_s"):
        return 1e3 * getattr(lt, which)[name] / R

    def per_call_us(name):
        c = lt.count[name]
        return 1e6 * lt.self_s[name] / c if c else 0.0

    report.metric("host.sgemm_gflops_per_s", sgemm, "float32 512x512 matmul, best of 12")
    for name, key in (("data.build_s", "data.build"),
                      ("api.engine_build_s", "api.engine_build"),
                      ("net.fleet_ready_s", "net.fleet_ready")):
        vals = per_setup.get(key, [])
        report.metric(name, statistics.median(vals) if vals else 0.0,
                      f"median of {len(vals)} traced set-ups" if vals else "n/a")
    first = [s for s in spans if s[0] == "api.round" and s[4] == 0]
    report.metric("api.first_round_s", first[0][2] - first[0][1], "round 0")
    report.metric("api.round_self_ms", per_round_ms("api.round"),
                  f"engine self time per round, R={R} steady rounds")
    for layer in ("conv2d", "maxpool2d", "linear", "relu", "loss"):
        fwd, bwd = f"nn.{layer}.fwd", f"nn.{layer}.bwd"
        t = lt.self_s[fwd] + lt.self_s[bwd]
        rate = (lt.work[fwd] + lt.work[bwd]) / t / 1e9 if t else 0.0
        kind = "GFLOP/s" if layer in ("conv2d", "linear") else "G element-ops/s"
        report.metric(f"nn.{layer}.fwd_ms", per_round_ms(fwd), "self ms per round")
        if layer != "loss":
            report.metric(f"nn.{layer}.bwd_ms", per_round_ms(bwd), "self ms per round")
        report.metric(f"nn.{layer}.calls", lt.count[fwd] / R, "forward calls per round")
        report.metric(f"nn.{layer}.gflops_per_s", rate,
                      f"{kind}; {100 * rate / sgemm:.2f}% of the sgemm roofline"
                      if layer in ("conv2d", "linear") else kind)
    report.metric("eval.evaluate_ms", per_round_ms("eval.evaluate", "total_s"),
                  "inclusive ms per round")
    report.metric("optim.step_us", per_call_us("optim.step"), "self us per step")
    report.metric("optim.steps", lt.count["optim.step"] / R, "steps per round")
    report.metric("algorithms.attach_us", per_call_us("algorithms.attach"),
                  "self us per FedTrip attach op")
    report.metric("algorithms.round_start_us", per_call_us("algorithms.round_start"),
                  "self us per call")
    report.metric("algorithms.local_step_self_us", per_call_us("algorithms.local_step"),
                  "local step minus nn/optim/attach children, us per step")
    tasks = lt.count["client.task"]
    busy = lt.total_s["client.task"]
    slots = workload.n_workers * lt.total_s["executor.run"]
    report.metric("client.task_ms", 1e3 * busy / tasks if tasks else 0.0,
                  "inclusive ms per task")
    report.metric("client.tasks", tasks / R, "tasks per round")
    report.metric("executor.run_ms", per_round_ms("executor.run", "total_s"),
                  "inclusive ms per round")
    report.metric("executor.broadcast_ms", per_round_ms("executor.broadcast", "total_s"),
                  "inclusive ms per round")
    report.metric("executor.task_overhead_ms", 1e3 * (slots - busy) / tasks if tasks else 0.0,
                  f"({workload.n_workers} x run time - task time) per task")
    report.metric("executor.worker_busy_share", busy / slots if slots else 0.0,
                  "task time / (workers x run time)")
    report.metric("executor.useful_task_ratio",
                  (attempted - failed - retried) / attempted if attempted else 0.0,
                  f"{attempted} attempted, {failed} failed, {retried} retried")
    if wire0 is not None:
        sent = wire1["bytes_sent"] - wire0["bytes_sent"]
        recv = wire1["bytes_recv"] - wire0["bytes_recv"]
        payload = (workload.n_workers * lt.count["executor.broadcast"] + tasks) * layout_bytes
        report.metric("net.bytes_sent_per_round", sent / R, "coordinator wire bytes")
        report.metric("net.bytes_recv_per_round", recv / R, "coordinator wire bytes")
        report.metric("net.payload_ratio", payload / (sent + recv),
                      "model weight bytes / all wire bytes")
        report.metric("net.reconnects", wire1["reconnects"] - wire0["reconnects"],
                      f"over R={R} rounds")
    else:
        for name in ("net.bytes_sent_per_round", "net.bytes_recv_per_round",
                     "net.payload_ratio", "net.reconnects"):
            report.metric(name, 0.0, "n/a: no wire")
    report.metric("server.apply_updates_ms", per_round_ms("server.apply_updates", "total_s"),
                  "inclusive ms per round")
    dispatches = lt.count["asyncfl.dispatch"]
    report.metric("asyncfl.dispatches_per_round", dispatches / R,
                  "" if dispatches else "n/a: sync rounds")
    report.metric("asyncfl.tasks_per_dispatch", tasks / dispatches if dispatches else 0.0, "")
    report.metric("asyncfl.self_ms",
                  1e3 * (lt.self_s["asyncfl.dispatch"] + lt.self_s["asyncfl.arrive"]) / R,
                  "dispatch + arrival self ms per round")
    # Both engines train the same samples per round, so the ratio of round
    # times is the inverse ratio of samples/s.
    overhead = 100.0 * (statistics.median(
        t / p for t, p in zip(traced.walls, plain.walls)) - 1.0)
    report.metric("obs.trace_overhead_pct", overhead,
                  f"median over {R} round pairs; samples/s untraced "
                  f"{_fmt(plain.samples_per_s)}, traced {_fmt(traced.samples_per_s)}")

    print("# self time per steady round by span, main process and workers:")
    for name in sorted((k for k in lt.count if lt.count[k]), key=lambda k: -lt.self_s[k]):
        print(f"#   {name:28s} {per_round_ms(name):10.3f} ms  calls/round "
              f"{lt.count[name] / R:8.2f}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def heldout(workload, seed: int) -> int:
    """Report whether ``workload`` reaches its target on a training seed the
    benchmark was not tuned on.  A report, not a check."""
    from perfbench import measure

    spec = workload.spec(seed, workload.reference_rounds)
    engine, _d, _e = measure.build(spec)
    with engine:
        traj = measure.trajectory(engine, workload.target, workload.reference_rounds)
    verdict = (f"reached {workload.target}% at round {traj.rounds}; final accuracy "
               f"{measure.final_accuracy(traj.history):.2f}%" if traj.reached
               else f"missed {workload.target}% in {workload.reference_rounds} rounds "
                    f"(best {traj.best_accuracy:.2f}%)")
    print(f"# held-out seed {seed}, {workload.name}: {verdict}")
    print(json.dumps({"workload": workload.name, "seed": seed, "reached": traj.reached,
                      "rounds": traj.rounds if traj.reached else None}))
    return 0


def run_all(child_args) -> int:
    """Run every workload in its own process and merge their results."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        print(f"## {w.name}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w.name, *child_args],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        if "metrics" not in result:  # a held-out report
            print(lines[-1])
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w.name}.{name}"] = m
    if merged["metrics"] or not merged["correct"]:
        print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="only report whether the workload reaches its "
                             "target on this training seed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[0:1] = [ROOT, SRC]
    try:
        return _run(args)
    finally:
        from perfbench import measure

        measure.stop_child_processes()


def _run(args) -> int:
    if args.workload == "all":
        child_args = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
        if args.heldout_seed is not None:
            child_args += ["--heldout-seed", str(args.heldout_seed)]
        return run_all(child_args)

    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(BY_NAME)} or all", file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    if args.heldout_seed is not None:
        return heldout(workload, args.heldout_seed)

    from perfbench import measure

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    report = Report()
    sgemm = measure.sgemm_gflops()
    host = measure.host_fingerprint(sgemm)
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"load=closed loop, one main process, {workload.n_workers} executor worker(s), "
          f"steady phase {args.seconds:g} s")
    try:
        if args.trace:
            per_layer(workload, args.seed, args.seconds, sgemm, report)
            expected = [name for name, _u, _b in PER_LAYER]
        else:
            end_to_end(workload, args.seed, args.seconds, report)
            expected = [name for name, _u, _b, _x in END_TO_END]
    except _Timeout as exc:
        report.check(False, str(exc))
        expected = []
    finally:
        signal.alarm(0)
    return report.finish(expected)


if __name__ == "__main__":
    sys.exit(main())
