"""Metric tables, the percentile rule and the ``BENCHMARK.json`` schema.

The tables here are the single source of the metric names, units and
bounds; ``BENCHMARK.json`` at the repository root must match them, and
``perfbench/test_perfbench.py`` checks that it does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: A metric or workload name: at most 64 of ``[A-Za-z0-9_.-]``, starting
#: with a letter or a digit.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Wall-clock metrics get the widest bound: on the shared 2-CPU host the
#: bounds were set on, a fixed CPU loop's speed drifts by +-15% over
#: tens of seconds, and ten runs of one workload spread by up to a fifth
#: of their median.  The to-target counts are chaotic in the arithmetic:
#: a change that reorders a float sum can move them by a few rounds.
#: ``final_accuracy`` follows a fixed seed and budget, so it does not
#: spread at all between runs of one version.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("round_p50_ms", "ms", "lower", 0.25),
    ("round_p90_ms", "ms", "lower", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("rounds_to_target", "count", "lower", 0.25),
    ("gflops_to_target", "GFLOP", "lower", 0.25),
    ("final_accuracy", "%", "higher", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("task_success_ratio", "ratio", "higher", 0.01),
)

_NN_LAYERS = ("conv2d", "maxpool2d", "linear", "relu", "loss")

#: (name, unit, better).  Per-layer metrics have no bound.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("host.sgemm_gflops_per_s", "GFLOP/s", "higher"),
    ("data.build_s", "s", "lower"),
    ("api.engine_build_s", "s", "lower"),
    ("net.fleet_ready_s", "s", "lower"),
    ("api.first_round_s", "s", "lower"),
    ("api.round_self_ms", "ms", "lower"),
    *(
        row
        for layer in _NN_LAYERS
        for row in (
            (f"nn.{layer}.fwd_ms", "ms", "lower"),
            # CrossEntropyLoss returns its gradient from the forward call,
            # so the loss has no separate backward to time.
            *(((f"nn.{layer}.bwd_ms", "ms", "lower"),) if layer != "loss" else ()),
            (f"nn.{layer}.calls", "count", "lower"),
            (f"nn.{layer}.gflops_per_s", "GFLOP/s", "higher"),
        )
    ),
    ("eval.evaluate_ms", "ms", "lower"),
    ("optim.step_us", "us", "lower"),
    ("optim.steps", "count", "lower"),
    ("algorithms.attach_us", "us", "lower"),
    ("algorithms.round_start_us", "us", "lower"),
    ("algorithms.local_step_self_us", "us", "lower"),
    ("client.task_ms", "ms", "lower"),
    ("client.tasks", "count", "lower"),
    ("executor.run_ms", "ms", "lower"),
    ("executor.broadcast_ms", "ms", "lower"),
    ("executor.task_overhead_ms", "ms", "lower"),
    ("executor.worker_busy_share", "ratio", "higher"),
    ("executor.useful_task_ratio", "ratio", "higher"),
    ("net.bytes_sent_per_round", "B", "lower"),
    ("net.bytes_recv_per_round", "B", "lower"),
    ("net.payload_ratio", "ratio", "higher"),
    ("net.reconnects", "count", "lower"),
    ("server.apply_updates_ms", "ms", "lower"),
    ("asyncfl.dispatches_per_round", "count", "lower"),
    ("asyncfl.tasks_per_dispatch", "count", "higher"),
    ("asyncfl.self_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _b, _x in END_TO_END},
    **{name: unit for name, unit, _b in PER_LAYER},
}

# ---------------------------------------------------------------------------
# timing statistics
# ---------------------------------------------------------------------------

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)


def _rank(n: int, pct: float) -> int:
    # Exact decimal arithmetic: 99.9 / 100 * 10000 is 9990.000000000002
    # in binary floating point, whose ceiling is one rank too high.
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule: the sample at
    1-based rank ``ceil(pct/100 * n)`` of the sorted samples."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie past the nearest-rank ``pct``-th
    percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    ``min_beyond`` samples beyond it, or ``None`` when even the 90th has
    fewer (``n < 100``)."""
    best = None
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= min_beyond:
            best = pct
    return best


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
_PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")


def benchmark_document(workloads, command: List[str], paths: List[str],
                       run_seconds: int) -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": int(run_seconds),
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": x}
            for n, u, b, x in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def validate_benchmark(doc: Any) -> List[str]:
    """Every way ``doc`` breaks the ``BENCHMARK.json`` contract (empty when
    it is valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict) or set(doc) != _TOP_KEYS:
        return [f"top-level keys must be exactly {sorted(_TOP_KEYS)}"]
    cmd = doc["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command may not name absolute paths or leave the repo")
    paths = doc["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(isinstance(p, str) and _PATH_RE.fullmatch(p) for p in paths)):
        errors.append("paths must be 1-16 relative directory names")
    rs = doc["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number in [1, 60]")
    names: List[str] = []
    wl = doc["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        errors.append("workloads must hold 2-8 entries")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                errors.append(f"workload {w!r} must have exactly name and why")
                continue
            names.append(w["name"])
            why = w["why"]
            if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
                errors.append(f"workload {w['name']!r}: why must be one line of <= 200 chars")
    for key, lo, hi, keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        rows = doc[key]
        if not isinstance(rows, list) or not lo <= len(rows) <= hi:
            errors.append(f"{key} must hold {lo}-{hi} metrics")
            continue
        for row in rows:
            if not isinstance(row, dict) or set(row) != keys:
                errors.append(f"{key} row {row!r} must have exactly {sorted(keys)}")
                continue
            names.append(row["name"])
            if not isinstance(row["unit"], str) or not UNIT_RE.fullmatch(row["unit"]):
                errors.append(f"{row['name']}: bad unit {row['unit']!r}")
            if row["better"] not in ("lower", "higher"):
                errors.append(f"{row['name']}: better must be lower or higher")
            if key == "end_to_end":
                bound = row["bound"]
                if (not isinstance(bound, (int, float)) or isinstance(bound, bool)
                        or not 0 < bound <= 0.25):
                    errors.append(f"{row['name']}: bound must be in (0, 0.25]")
        if key == "end_to_end" and isinstance(rows, list):
            setup = [r for r in rows if isinstance(r, dict) and r.get("name") == "setup_s"]
            if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
                errors.append("end_to_end needs setup_s in s, better lower")
    for name in names:
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(set(map(str, names))) != len(names):
        errors.append("names must be unique")
    return errors
