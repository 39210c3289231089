"""Execution backends: registry resolution, shared-memory broadcast, and the
cross-backend determinism contract (fixed seed => byte-identical records on
serial, threaded and process executors)."""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import replace
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import (
    ExperimentSpec,
    available_executors,
    build_executor,
    register_executor,
    run_experiment,
)
from repro.api.engine import Engine
from repro.fl.executor import ClientTaskSpec, SerialExecutor
from repro.fl.faults import FaultInjector
from repro.fl.process_executor import ProcessExecutor, WeightLayout

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=2, batch_size=20, lr=0.05)

BACKENDS = [("serial", 1), ("threaded", 2), ("process", 2)]


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


def assert_identical_records(a, b, context=""):
    """Byte-identical round records (wall time is the one nondeterministic
    field and is excluded)."""
    assert len(a) == len(b), context
    for ra, rb in zip(a.records, b.records):
        assert ra.round_idx == rb.round_idx, context
        assert ra.selected == rb.selected, context
        assert ra.test_accuracy == rb.test_accuracy, context
        assert ra.test_loss == rb.test_loss, context
        assert ra.mean_train_loss == rb.mean_train_loss, context
        assert ra.cumulative_flops == rb.cumulative_flops, context
        assert ra.cumulative_comm_bytes == rb.cumulative_comm_bytes, context


class TestRegistry:
    def test_builtins_registered(self):
        assert {"auto", "serial", "threaded", "process"} <= set(available_executors())

    def test_unknown_name_raises(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="unknown executor"):
            run_experiment(spec.with_axis("executor", "gpu"))

    def test_custom_backend_registers_and_runs(self):
        calls = []

        def _tracing_serial(engine, n_workers):
            calls.append(n_workers)
            return SerialExecutor(engine.make_worker, runtime=engine.runtime)

        register_executor("tracing", _tracing_serial)
        try:
            hist = run_experiment(tiny_spec(executor="tracing"))
            assert len(hist) == TINY["rounds"]
            assert calls == [1]
        finally:
            from repro.api.registry import _EXECUTORS

            _EXECUTORS.pop("tracing", None)

    def test_auto_resolves_by_worker_count(self):
        spec = tiny_spec()
        e1 = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp", n_workers=1)
        e2 = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp", n_workers=2)
        try:
            assert e1.executor.name == "serial"
            assert e2.executor.name == "threaded"
        finally:
            e1.close()
            e2.close()


class TestSpecAndCLI:
    def test_spec_field_round_trips(self):
        spec = tiny_spec(executor="process", n_workers=2)
        back = ExperimentSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.executor == "process"

    def test_executor_changes_cell_key(self):
        assert tiny_spec().cell_key() != tiny_spec(executor="process").cell_key()

    def test_cli_flags(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["train", "--dataset", "tiny", "--model", "mlp",
                       "--method", "fedavg", "--clients", "4",
                       "--clients-per-round", "2", "--rounds", "2",
                       "--batch-size", "20", "--executor", "process",
                       "--n-workers", "2"])
        assert rc == 0
        assert "best accuracy" in capsys.readouterr().out


class TestDeterminismAcrossBackends:
    """The tentpole contract: one seed, three backends, identical history."""

    @pytest.mark.parametrize("method,overrides", [
        ("fedavg", {}),
        ("fedtrip", {"mu": 0.4}),   # persistent per-client state
        ("moon", {}),               # frozen-model forwards + extras
        ("scaffold", {}),           # model-sized server broadcast payload
    ])
    def test_backends_match_serial(self, method, overrides):
        spec = tiny_spec(method=method, overrides=overrides, rounds=3,
                         n_clients=6, clients_per_round=3, seed=1)
        reference = run_experiment(spec.with_axis("executor", "serial"))
        for executor, n_workers in BACKENDS[1:]:
            hist = run_experiment(
                spec.with_axis("executor", executor).with_axis("n_workers", n_workers)
            )
            assert_identical_records(reference, hist, context=f"{method}/{executor}")

    def test_client_state_round_trips_processes(self):
        """FedTrip's historical model must survive the pickle round trip."""
        spec = tiny_spec(method="fedtrip", rounds=2, clients_per_round=4,
                         executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", sampler=spec.build_sampler(),
                        n_workers=2, executor="process")
        try:
            engine.run()
            states = [c.state for c in engine.clients]
        finally:
            engine.close()
        assert all(state for state in states), "client state lost across processes"

    def test_end_to_end_smoke_on_selected_backend(self, executor_name, aggregator_name):
        """The backend chosen with ``pytest --executor`` trains end to end,
        under the aggregation rule chosen with ``pytest --aggregator``.

        CI re-runs the tier-1 suite once with ``--executor process`` and
        once with ``--aggregator trimmed_mean`` so the pooled path and the
        robust-aggregation path both see the full smoke regularly.
        """
        n_workers = 1 if executor_name in ("auto", "serial") else 2
        hist = run_experiment(tiny_spec(executor=executor_name, n_workers=n_workers,
                                        aggregator=aggregator_name))
        assert len(hist) == TINY["rounds"]
        assert np.isfinite(hist.accuracies()).all()


class TestProcessExecutorContracts:
    def test_borrow_worker_is_none_and_evaluation_still_works(self):
        spec = tiny_spec(executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        try:
            assert engine.executor.borrow_worker() is None
            engine.run_round()
            acc, loss = engine.evaluate_global()
            assert np.isfinite(acc) and np.isfinite(loss)
        finally:
            engine.close()

    def test_preamble_strategy_rejected(self):
        spec = tiny_spec(method="mimelite")
        for executor in ("threaded", "process"):
            with pytest.raises(ValueError, match="preamble"):
                Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                       model_name="mlp", n_workers=2, executor=executor)

    def test_custom_model_fn_rejected(self):
        from repro.models import build_mlp

        spec = tiny_spec()
        data = spec.build_data()
        with pytest.raises(ValueError, match="custom model_fn"):
            Engine(data, spec.build_strategy(), spec.build_config(),
                   model_fn=lambda: build_mlp(data.spec.input_shape,
                                              data.spec.num_classes),
                   n_workers=2, executor="process")

    def test_task_spec_is_picklable(self):
        task = ClientTaskSpec(client_id=3, round_idx=7,
                              state={"w": [np.ones(4)]})
        back = pickle.loads(pickle.dumps(task))
        assert back.client_id == 3 and back.round_idx == 7
        np.testing.assert_array_equal(back.state["w"][0], np.ones(4))

    def test_weight_layout_round_trip(self):
        weights = [np.arange(6, dtype=np.float32).reshape(2, 3),
                   np.ones(3, dtype=np.float64),
                   np.array(2.5, dtype=np.float32)]  # 0-d, odd offsets
        layout = WeightLayout.from_weights(weights)
        buf = bytearray(layout.total_bytes)
        views = layout.views(buf, writeable=True)
        for view, w in zip(views, weights):
            np.copyto(view, w)
        reread = layout.views(buf, writeable=False)
        for view, w in zip(reread, weights):
            np.testing.assert_array_equal(view, w)
            assert view.dtype == w.dtype
            assert not view.flags.writeable

    def test_shared_memory_broadcast_updates_workers(self):
        """Weights written between rounds must be what workers read next."""
        spec = tiny_spec(executor="process", n_workers=2, rounds=3)
        serial = run_experiment(spec.with_axis("executor", "serial"))
        pooled = run_experiment(spec)
        # Round 2+ accuracy depends on round 1's aggregated weights reaching
        # the workers; identical trajectories prove the broadcast works.
        assert_identical_records(serial, pooled, context="broadcast")

    def test_executor_close_is_idempotent(self):
        spec = tiny_spec(executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        engine.run_round()
        engine.close()
        engine.close()  # must not raise

    def test_process_executor_standalone_rejects_bad_weight_count(self):
        spec = tiny_spec()
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        try:
            with pytest.raises(ValueError, match="weight tree"):
                engine.executor.broadcast(engine.server.weights[:-1])
        finally:
            engine.close()


class _RaiseFor(FaultInjector):
    """Raises ``ValueError`` inside the task of client ``victim``."""

    name = "raise_for"

    def __init__(self, victim: int) -> None:
        super().__init__(rate=1.0, seed=0)
        self.victim = victim

    def fires(self, client_id, round_idx, attempt=0):
        return client_id == self.victim

    def pre_train(self, task, runtime):
        raise ValueError(f"boom in client {task.client_id}")


class TestProcessExecutorLifecycle:
    @staticmethod
    def _engine(**overrides):
        spec = tiny_spec(**overrides)
        return Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                      model_name="mlp")

    def test_close_stops_workers_and_unlinks_both_segments(self):
        engine = self._engine()
        executor = ProcessExecutor(engine.process_worker_spec(),
                                   initial_weights=engine.server.plane, n_workers=2)
        try:
            # any non-empty payload gets its own segment; fedavg ignores it
            executor.broadcast(engine.server.plane, payload={"c": [np.ones(3)]})
            executor.run([ClientTaskSpec(client_id=k, round_idx=0, state={})
                          for k in range(2)])
            pids = {p.pid for p in executor._procs}
            segments = [executor._shm.name, executor._payload_shm.name]
        finally:
            executor.close()
            engine.close()
        assert len(pids) == 2
        assert not pids & {p.pid for p in multiprocessing.active_children()}
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        executor.close()  # a second close is a no-op
        assert not pids & {p.pid for p in multiprocessing.active_children()}

    def test_task_exception_reraises_and_executor_recovers(self):
        engine = self._engine(n_clients=6)
        executor = ProcessExecutor(
            replace(engine.process_worker_spec(), fault_injector=_RaiseFor(3)),
            initial_weights=engine.server.plane, n_workers=2,
        )
        tasks = [ClientTaskSpec(client_id=k, round_idx=0, state={}) for k in range(6)]
        try:
            with pytest.raises(ValueError, match="boom in client 3") as info:
                executor.run(tasks)
            assert "pre_train" in str(info.value.__cause__)  # worker traceback
            results = executor.run([t for t in tasks if t.client_id != 3])
            assert [r.update.client_id for r in results] == [0, 1, 2, 4, 5]
        finally:
            executor.close()
            engine.close()

    def test_spawn_start_method_matches_serial(self):
        """Workers started with ``spawn`` rebuild everything from the pickled
        spec instead of inheriting the parent's memory; the History must
        still match serial byte for byte."""

        def _spawn_process(engine, n_workers):
            executor = ProcessExecutor(engine.process_worker_spec(),
                                       initial_weights=engine.server.plane,
                                       n_workers=n_workers, mp_start_method="spawn")
            assert executor._ctx.get_start_method() == "spawn"
            return executor

        register_executor("process_spawn", _spawn_process)
        try:
            spec = tiny_spec(method="fedtrip", overrides={"mu": 0.4}, rounds=2)
            reference = run_experiment(spec.with_axis("executor", "serial"))
            hist = run_experiment(spec.with_axis("executor", "process_spawn")
                                  .with_axis("n_workers", 2))
        finally:
            from repro.api.registry import _EXECUTORS

            _EXECUTORS.pop("process_spawn", None)
        assert_identical_records(reference, hist, context="spawn")
