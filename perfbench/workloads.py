"""The benchmark's workloads: three FedTrip runs that stress different layers.

Every workload trains FedTrip on ``mini_mnist`` with a Dirichlet(0.5)
label partition.  A workload is a dict of ``ExperimentSpec`` fields plus a
target accuracy; :func:`Workload.spec` turns it into the spec the program
receives, with the seed and round budget filled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Training seed of the reference trajectory every run measures
#: time-to-target on.  Rounds-to-target spreads far more across training
#: seeds (13 to 38 rounds on ``cnn_paper`` over seeds 0-9) than any usable
#: regression bound, so the to-target metrics follow one fixed trajectory
#: and the command-line seed drives the steady-state phase instead.
REFERENCE_SEED = 0

#: Round budget given to a steady-state spec: large enough that the
#: engine's last-round evaluation rule never fires inside a run.
STEADY_ROUNDS = 1_000_000

#: Training seeds the steady phase of one run shares its time between.
STEADY_SEEDS = 4


def steady_seeds(seed: int) -> List[int]:
    """The training seeds of a run's steady phase: distinct for distinct
    ``seed`` values."""
    return [STEADY_SEEDS * seed + i for i in range(STEADY_SEEDS)]

_COMMON: Dict[str, Any] = {
    "dataset": "mini_mnist",
    "method": "fedtrip",
    "partition": "dirichlet",
    "alpha": 0.5,
    "eval_every": 1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: Dict[str, Any] = field(hash=False)
    #: test accuracy (%) the reference trajectory must reach.
    target: float
    #: rounds the reference trajectory trains: the target must be reached
    #: within them, and ``final_accuracy`` averages their last evaluations.
    reference_rounds: int

    @property
    def n_workers(self) -> int:
        """Executor workers the engine runs (1 for the serial executor)."""
        return self.fields.get("n_workers", 1)

    @property
    def pooled(self) -> bool:
        return self.fields.get("executor") in ("process", "network")

    @property
    def event_driven(self) -> bool:
        return self.fields.get("mode", "sync") != "sync"

    def spec(self, seed: int, rounds: int):
        from repro.api import ExperimentSpec

        return ExperimentSpec(seed=seed, rounds=rounds, **_COMMON, **self.fields)


_MLP_COHORT: Dict[str, Any] = {
    "model": "mlp",
    "n_clients": 64,
    "clients_per_round": 32,
    "samples_per_client": 40,
    "batch_size": 10,
    "lr": 0.02,
}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="cnn_paper",
        why=("paper CNN, 4 of 10 clients, serial sync rounds evaluated every "
             "round: repro.nn conv/pool kernels dominate; no IPC, wire or "
             "event loop"),
        fields={
            "model": "cnn", "n_clients": 10, "clients_per_round": 4,
            "batch_size": 50, "lr": 0.02, "executor": "serial",
        },
        target=94.0,
        reference_rounds=35,
    ),
    Workload(
        name="mlp_crossdevice",
        why=("MLP, 32 of 64 small clients on a 2-worker process pool, "
             "semisync K=16 on 4g with straggler spread: per-step Python, "
             "task IPC, event loop"),
        fields={
            **_MLP_COHORT, "executor": "process", "n_workers": 2,
            "mode": "semisync", "buffer_size": 16, "device_profile": "4g",
            "heterogeneity": 4.0,
        },
        target=85.0,
        reference_rounds=45,
    ),
    Workload(
        name="mlp_network",
        why=("same MLP cohort, sync rounds on the socket executor with 2 "
             "loopback workers: frames and sockets instead of shared memory; "
             "fleet spawn lands in setup"),
        fields={**_MLP_COHORT, "executor": "network", "n_workers": 2},
        target=90.0,
        reference_rounds=30,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
