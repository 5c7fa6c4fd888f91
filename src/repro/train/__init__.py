"""Multi-process training on the flat parameter arena.

:mod:`repro.train.ddp` is the data-parallel trainer: N forked workers
share one :class:`~repro.nn.module.ParameterArena` parameter block
through ``multiprocessing.shared_memory``, each computes gradients for a
deterministic slice of every batch, and rank 0 reduces + steps
:class:`~repro.nn.optim.FusedAdamW` once per micro-batch.  The whole
scheme is bit-deterministic: the same seed produces the same loss
trajectory and the same final arena bytes at *any* worker count (see
``tests/test_train_ddp.py``).
"""

from repro.train.ddp import (
    DDP_NAME_PREFIX,
    DataParallelTrainer,
    DDPConfig,
    WorkerDied,
    reseed_stochastic,
    shard_bounds,
    shard_rng,
    stochastic_reseeder,
)

__all__ = [
    "DDP_NAME_PREFIX",
    "DDPConfig",
    "DataParallelTrainer",
    "WorkerDied",
    "reseed_stochastic",
    "shard_bounds",
    "shard_rng",
    "stochastic_reseeder",
]
