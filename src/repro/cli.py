"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``     train one (dataset, model, method) cell and print/save metrics
``compare``   train several methods on one workload and print a comparison
``partition`` show the client label distribution of a partition (Fig. 4)
``profile``   print Table II/III-style dataset & model statistics
``theory``    evaluate the Theorem 1 quantities for given hyperparameters

Every training command builds one :class:`~repro.api.spec.ExperimentSpec`
from its flags and hands it to :func:`~repro.api.engine.run_experiment` —
the CLI owns no run-construction logic of its own.  Client sampling is
pluggable via ``--sampler`` (see :mod:`repro.api.registry`), e.g.::

    python -m repro train --method fedtrip --sampler dropout \
        --sampler-arg dropout=0.2 --target-accuracy 85
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.analysis import compare_fedprox_fedtrip, expected_xi
from repro.api import (
    ExperimentSpec,
    available_adversaries,
    available_aggregators,
    available_executors,
    available_modes,
    available_samplers,
    run_experiment,
)
from repro.fl.faults import available_faults
from repro.fl.systems import NETWORK_PRESETS
from repro.data import available_datasets, get_spec, heterogeneity_summary
from repro.io import save_history
from repro.models import available_models, build_model, profile_model

__all__ = ["main", "build_parser"]


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="mini_mnist", choices=available_datasets())
    p.add_argument("--model", default="cnn", choices=available_models())
    p.add_argument("--partition", default="dirichlet",
                   choices=["iid", "dirichlet", "orthogonal"])
    p.add_argument("--alpha", type=float, default=0.5, help="Dirichlet concentration")
    p.add_argument("--clusters", type=int, default=5, help="orthogonal cluster count")
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--clients-per-round", type=int, default=4)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=50)
    p.add_argument("--local-epochs", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", default="uniform", choices=available_samplers(),
                   help="client-selection policy")
    p.add_argument("--sampler-arg", action="append", default=[], metavar="KEY=VALUE",
                   help="policy parameter, repeatable (e.g. dropout=0.2)")
    p.add_argument("--executor", default="auto", choices=available_executors(),
                   help="execution backend (auto = serial at 1 worker, "
                        "threaded above; 'process' trains clients in worker "
                        "processes, one pipe and one task in flight each, "
                        "with shared-memory weight broadcast)")
    p.add_argument("--workers", "--n-workers", type=int, default=1, dest="workers",
                   help="worker count for the pooled backends")
    p.add_argument("--mode", default="sync", choices=available_modes(),
                   help="server mode: sync barrier rounds, semisync "
                        "deadline/buffer rounds, or async staleness-decayed "
                        "mixing (the latter two on the virtual-clock event "
                        "scheduler)")
    p.add_argument("--deadline-s", type=float, default=None, dest="deadline_s",
                   help="semisync round deadline in simulated seconds "
                        "(default: wait for the full buffer)")
    p.add_argument("--buffer-size", type=int, default=None, dest="buffer_size",
                   help="aggregation buffer size K (default: 1 in async, "
                        "clients-per-round in semisync)")
    p.add_argument("--device-profile", default=None, dest="device_profile",
                   choices=sorted(NETWORK_PRESETS),
                   help="device/network preset pricing simulated time "
                        "(records virtual_time_s; async/semisync default "
                        "to wifi when unset)")
    p.add_argument("--heterogeneity", type=float, default=1.0,
                   help="compute-speed spread h >= 1: clients run at a "
                        "seeded factor in [1/h, 1] of the profile speed "
                        "(the straggler knob)")
    p.add_argument("--aggregator", default="mean",
                   choices=available_aggregators(),
                   help="server aggregation rule: 'mean' is the default "
                        "weighted average; the others are Byzantine-robust "
                        "reductions over the stacked client matrix "
                        "(see repro.fl.robust)")
    p.add_argument("--aggregator-arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="aggregation-rule parameter, repeatable "
                        "(e.g. beta=0.25 for trimmed_mean, f=2 for krum)")
    p.add_argument("--adversary", default=None,
                   choices=available_adversaries(),
                   help="Byzantine attack model corrupting a seeded subset "
                        "of clients (requires --adversary-fraction > 0)")
    p.add_argument("--adversary-fraction", type=float, default=0.0,
                   dest="adversary_fraction",
                   help="fraction of clients acting maliciously (f/K)")
    p.add_argument("--adversary-arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="attack parameter, repeatable (e.g. gamma=5 for "
                        "sign_flip/scale, sigma=0.5 for gauss_noise)")
    p.add_argument("--fault", default=None, choices=available_faults(),
                   help="deterministic fault injector applied to client "
                        "tasks (requires --fault-rate > 0); see "
                        "repro.fl.faults")
    p.add_argument("--fault-rate", type=float, default=0.0, dest="fault_rate",
                   help="per-(client, round, attempt) probability that the "
                        "injector fires")
    p.add_argument("--fault-arg", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="fault parameter, repeatable (e.g. mode=truncate "
                        "for corrupt, max_delay_s=30 for straggler)")
    p.add_argument("--task-retries", type=int, default=0, dest="task_retries",
                   help="retry budget per client task; retries are re-drawn "
                        "fault coins and re-priced on the virtual clock "
                        "with exponential backoff")
    p.add_argument("--task-timeout-s", type=float, default=None,
                   dest="task_timeout_s",
                   help="injected report delays beyond this many simulated "
                        "seconds count as task timeouts (requires --fault)")
    p.add_argument("--quorum-fraction", type=float, default=0.0,
                   dest="quorum_fraction",
                   help="skip aggregation (recording why) when fewer than "
                        "this fraction of the cohort reports successfully")
    p.add_argument("--retry-backoff-base-s", type=float, default=1.0,
                   dest="retry_backoff_base_s",
                   help="base of the exponential retry backoff curve in "
                        "simulated seconds (also paces network-worker "
                        "reconnects); default 1.0 matches the historical "
                        "constant")
    p.add_argument("--net-bind", default="127.0.0.1:0", dest="net_bind",
                   metavar="HOST:PORT",
                   help="coordinator listen address for --executor network; "
                        "port 0 picks an ephemeral port, loopback hosts "
                        "spawn worker subprocesses automatically")
    p.add_argument("--net-workers", type=int, default=None, dest="net_workers",
                   help="worker connections the network round waits for "
                        "(default: --workers)")
    p.add_argument("--net-connect-timeout-s", type=float, default=20.0,
                   dest="net_connect_timeout_s",
                   help="network registration patience / per-task wall-clock "
                        "ceiling in seconds")
    p.add_argument("--net-heartbeat-s", type=float, default=0.5,
                   dest="net_heartbeat_s",
                   help="worker liveness beacon cadence in seconds")
    p.add_argument("--net-fault", default=None, dest="net_fault",
                   help="deterministic wire fault for --executor network "
                        "(drop_frame | duplicate_frame | delay_frame | "
                        "truncate_frame | partition); requires "
                        "--net-fault-rate > 0")
    p.add_argument("--net-fault-rate", type=float, default=0.0,
                   dest="net_fault_rate",
                   help="per-frame probability that the wire fault fires")
    p.add_argument("--net-fault-arg", action="append", default=[],
                   metavar="KEY=VALUE", dest="net_fault_arg",
                   help="wire-fault parameter, repeatable (e.g. "
                        "max_delay_s=0.5 for delay_frame)")
    p.add_argument("--net-codec", default=None, dest="net_codec",
                   help="upload wire codec for --executor network (topk | "
                        "quantization); lossy, trades byte-identity for "
                        "bytes on the wire")
    p.add_argument("--net-codec-arg", action="append", default=[],
                   metavar="KEY=VALUE", dest="net_codec_arg",
                   help="codec parameter, repeatable (e.g. fraction=0.05 "
                        "for topk, bits=8 for quantization)")
    p.add_argument("--population-size", type=int, default=None,
                   dest="population_size",
                   help="virtual fleet size: client ids in [0, N) map onto "
                        "the --clients data shards and materialize lazily "
                        "(memory stays O(cohort), not O(N))")
    p.add_argument("--agg-block-size", type=int, default=None,
                   dest="agg_block_size",
                   help="stream aggregation in blocks of this many client "
                        "rows (peak O(block x P) instead of O(K x P)); "
                        "byte-identical to dense for any value")
    p.add_argument("--state-mmap-mb", type=int, default=None,
                   dest="state_mmap_mb",
                   help="heap budget (MiB) for lazy per-client strategy "
                        "state before spilling to mmap'd temp files "
                        "(requires --population-size)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL span trace (round -> phase -> "
                        "client-task, wall + virtual timings, payload "
                        "bytes) to PATH; off by default with zero "
                        "hot-path overhead")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="PATH",
                   help="write end-of-run metrics (Prometheus text "
                        "exposition plus a commented summary table) to "
                        "PATH")


def _parse_value(text: str) -> Any:
    """KEY=VALUE values: JSON first (numbers, lists, booleans), else string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_kv(pairs: List[str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"expected KEY=VALUE, got {pair!r}")
        out[key] = _parse_value(value)
    return out


def _spec_from_args(args, method: Optional[str] = None,
                    mu: Optional[float] = None) -> ExperimentSpec:
    return ExperimentSpec(
        dataset=args.dataset,
        model=args.model,
        method=method if method is not None else args.method,
        partition=args.partition,
        alpha=args.alpha,
        n_clusters=args.clusters,
        n_clients=args.clients,
        clients_per_round=args.clients_per_round,
        rounds=args.rounds,
        batch_size=args.batch_size,
        local_epochs=args.local_epochs,
        lr=args.lr,
        seed=args.seed,
        target_accuracy=getattr(args, "target_accuracy", None),
        overrides={} if mu is None else {"mu": mu},
        sampler=args.sampler,
        sampler_kwargs=_parse_kv(args.sampler_arg),
        n_workers=args.workers,
        executor=args.executor,
        mode=args.mode,
        deadline_s=args.deadline_s,
        buffer_size=args.buffer_size,
        device_profile=args.device_profile,
        heterogeneity=args.heterogeneity,
        aggregator=args.aggregator,
        aggregator_kwargs=_parse_kv(args.aggregator_arg),
        adversary=args.adversary,
        adversary_fraction=args.adversary_fraction,
        adversary_kwargs=_parse_kv(args.adversary_arg),
        fault=getattr(args, "fault", None),
        fault_rate=getattr(args, "fault_rate", 0.0),
        fault_kwargs=_parse_kv(getattr(args, "fault_arg", [])),
        task_retries=getattr(args, "task_retries", 0),
        task_timeout_s=getattr(args, "task_timeout_s", None),
        quorum_fraction=getattr(args, "quorum_fraction", 0.0),
        retry_backoff_base_s=getattr(args, "retry_backoff_base_s", 1.0),
        net_bind=getattr(args, "net_bind", "127.0.0.1:0"),
        net_workers=getattr(args, "net_workers", None),
        net_connect_timeout_s=getattr(args, "net_connect_timeout_s", 20.0),
        net_heartbeat_s=getattr(args, "net_heartbeat_s", 0.5),
        net_fault=getattr(args, "net_fault", None),
        net_fault_rate=getattr(args, "net_fault_rate", 0.0),
        net_fault_kwargs=_parse_kv(getattr(args, "net_fault_arg", [])),
        net_codec=getattr(args, "net_codec", None),
        net_codec_kwargs=_parse_kv(getattr(args, "net_codec_arg", [])),
        population_size=getattr(args, "population_size", None),
        agg_block_size=getattr(args, "agg_block_size", None),
        state_mmap_mb=getattr(args, "state_mmap_mb", None),
        trace=getattr(args, "trace", None),
        metrics_out=getattr(args, "metrics_out", None),
    )


def cmd_train(args) -> int:
    spec = _spec_from_args(args, mu=args.mu)
    callbacks = []
    if args.checkpoint_dir:
        from repro.api.callbacks import Checkpointer

        callbacks.append(
            Checkpointer(
                args.checkpoint_dir,
                every=args.checkpoint_every,
                engine_state=True,
            )
        )
    hist = run_experiment(spec, callbacks=callbacks, resume_from=args.resume_from)
    print(f"method={spec.method} dataset={spec.dataset} model={spec.model} "
          f"sampler={spec.sampler}")
    if spec.aggregator != "mean" or spec.adversary is not None:
        print(f"aggregator={spec.aggregator} adversary={spec.adversary} "
              f"fraction={spec.adversary_fraction}")
    if hist.stop_reason:
        print(f"stopped early after {len(hist)} rounds: {hist.stop_reason}")
    print(f"best accuracy : {hist.best_accuracy():.2f}%")
    if args.target is not None:
        print(f"rounds to {args.target}%: {hist.rounds_to_accuracy(args.target)}")
    print(f"total GFLOPs  : {hist.total_gflops():.3f}")
    print(f"total comm MB : {hist.total_comm_mb():.2f}")
    skipped = hist.skipped_rounds()
    dropped = hist.dropped_client_ids()
    screened = hist.screened_client_ids()
    if skipped or dropped or screened:
        print(f"agg health    : {skipped} skipped round(s), "
              f"{len(dropped)} dropped, {len(screened)} screened update(s)")
    failed = hist.failed_client_ids()
    retried = hist.retried_client_ids()
    if failed or retried:
        print(f"fault policy  : {len(retried)} retry dispatch(es), "
              f"{len(failed)} terminal task failure(s)")
    simulated = [r.virtual_time_s for r in hist.records if r.virtual_time_s is not None]
    if simulated:
        print(f"simulated time: {simulated[-1] / 3600.0:.3f} h "
              f"(mode={spec.mode}, profile={spec.device_profile or 'wifi'})")
    if args.trace:
        print(f"span trace written to {args.trace}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.out:
        save_history(hist, args.out)
        print(f"history saved to {args.out}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for method in args.methods:
        hist = run_experiment(_spec_from_args(args, method=method))
        r = hist.rounds_to_accuracy(args.target) if args.target else None
        rows.append((method, hist.best_accuracy(),
                     hist.final_accuracy_stats(last_k=5)["mean"],
                     r, hist.total_gflops()))
        print(f"done {method}")
    print(f"\n{'method':>10} {'best %':>8} {'final5 %':>9} {'rounds':>7} {'GFLOPs':>9}")
    for method, best, final, r, gf in sorted(rows, key=lambda x: -x[2]):
        print(f"{method:>10} {best:>8.2f} {final:>9.2f} "
              f"{str(r) if r is not None else '-':>7} {gf:>9.3f}")
    return 0


def cmd_partition(args) -> int:
    data = _spec_from_args(args, method="fedavg").build_data()
    counts = data.label_counts()
    print(f"{args.partition} partition of {args.dataset} over {args.clients} clients")
    for k, row in enumerate(counts):
        print(f"  client {k:>2}: {row.tolist()}")
    print(json.dumps(heterogeneity_summary(counts), indent=2))
    return 0


def cmd_profile(args) -> int:
    from repro.models import format_layer_summary

    spec = get_spec(args.dataset)
    print("dataset:", json.dumps(spec.table2_row(), indent=2))
    model = build_model(args.model, spec.input_shape, spec.num_classes)
    print("model:", json.dumps(profile_model(model).table3_row(), indent=2))
    print()
    print(format_layer_summary(model))
    return 0


def cmd_theory(args) -> int:
    cmp = compare_fedprox_fedtrip(mu=args.mu, L=args.L, B=args.B,
                                  participation_rate=args.p)
    print(json.dumps(cmp.summary(), indent=2))
    print(f"E[xi]({args.p}) = {expected_xi(args.p):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one method")
    _add_workload_args(p)
    p.add_argument("--method", default="fedtrip")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--target", type=float, default=None,
                   help="report rounds-to-target-accuracy (no early stop)")
    p.add_argument("--target-accuracy", type=float, default=None, dest="target_accuracy",
                   help="stop training once this test accuracy %% is reached")
    p.add_argument("--out", default=None, help="save history JSON here")
    p.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                   help="write model checkpoints plus a crash-safe engine "
                        "snapshot (latest.ckpt) into this directory")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   dest="checkpoint_every",
                   help="checkpoint every N rounds (default: only at the end)")
    p.add_argument("--resume-from", default=None, dest="resume_from",
                   metavar="SNAPSHOT",
                   help="resume from an engine snapshot (latest.ckpt); the "
                        "spec must describe the same experiment cell")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train several methods")
    _add_workload_args(p)
    p.add_argument("--methods", nargs="+",
                   default=["fedtrip", "fedavg", "fedprox", "moon"])
    p.add_argument("--target", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("partition", help="inspect a client partition")
    _add_workload_args(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("profile", help="dataset/model statistics")
    p.add_argument("--dataset", default="mnist", choices=available_datasets())
    p.add_argument("--model", default="cnn", choices=available_models())
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("theory", help="Theorem 1 quantities")
    p.add_argument("--mu", type=float, default=6.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.4)
    p.set_defaults(func=cmd_theory)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
