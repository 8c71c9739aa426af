"""Distributed-training engine.

Synchronous data-parallel worker groups, versioned checkpoint stores, the
codistillation training loop with burn-in and checkpoint-reload cadence, the
offline two-phase distillation pipeline, and logical communication
accounting.

Lockstep mode drives every group on one thread in a fixed round-robin order,
which makes whole runs bit-reproducible; concurrent mode runs each model's
group on its own thread against a shared (typically file-backed) checkpoint
store to exercise the protocol under real asynchrony, with no bit-exactness
guarantees.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import optim
from .data import batch_stream
from .losses import CombinedLossSpec, combined_loss
from .metrics import MetricRecord, evaluate
# backward is unused here but stays importable as distrib.backward, the name
# bench/tracer.py wraps
from .nn import (Architecture, Batch, Parameters, backward, deserialize_checkpoint,  # noqa: F401
                 forward, forward_trace, init_params, param_count, predict_proba,
                 serialize_params)

# one sync step moves a gradient out and parameters back per worker
LEDGER_CAUSES = ("gradient_exchange", "parameter_broadcast",
                 "checkpoint_publish", "checkpoint_load")

DIVERGENCE_THRESHOLD = 1e4

TEACHER_MODES = ("stale_checkpoint", "fresh_in_process")
DATA_MODES = ("disjoint", "shared")


class DivergenceError(RuntimeError):
    """Training loss went non-finite or past the abort threshold."""

    def __init__(self, step: int, message: str = "", records=None):
        super().__init__(message or f"training diverged at step {step}")
        self.step = step
        self.records = records or []


class CommLedger:
    """Logical communication counters in bytes, by (entity, cause). Thread-safe."""

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def add(self, entity: str, cause: str, nbytes: int) -> None:
        if cause not in LEDGER_CAUSES:
            raise ValueError(f"unknown ledger cause {cause!r}")
        if nbytes < 0:
            raise ValueError("ledger bytes must be nonnegative")
        with self._lock:
            key = (entity, cause)
            self._counts[key] = self._counts.get(key, 0) + int(nbytes)

    def total(self, cause: str | None = None, entity: str | None = None) -> int:
        with self._lock:
            return sum(v for (e, c), v in self._counts.items()
                       if (cause is None or c == cause) and (entity is None or e == entity))

    def snapshot(self) -> dict:
        with self._lock:
            return {f"{e}/{c}": v for (e, c), v in sorted(self._counts.items())}


@dataclass(frozen=True)
class Checkpoint:
    """Versioned parameter snapshot published by one model."""

    model_id: int
    step: int
    params: Parameters
    float32: bool = False

    def payload_bytes(self) -> int:
        return self.params.values.size * (4 if self.float32 else 8)


class InMemoryCheckpointStore:
    """Single slot per model id; publish atomically replaces the encoded blob.

    Blobs round-trip through the same wire format as the file store, so the
    two backings behave identically apart from I/O.
    """

    def __init__(self, arch: Architecture, ledger: CommLedger | None = None):
        self._arch = arch
        self._ledger = ledger
        self._lock = threading.Lock()
        self._blobs: dict[int, bytes] = {}
        self._last_step: dict[int, int] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def publish(self, ckpt: Checkpoint, entity: str | None = None) -> None:
        data = serialize_params(ckpt.params, step=ckpt.step, model_id=ckpt.model_id,
                                float32=ckpt.float32)
        with self._lock:
            last = self._last_step.get(ckpt.model_id)
            if last is not None and ckpt.step <= last:
                raise ValueError(f"checkpoint step must increase ({ckpt.step} <= {last})")
            self._blobs[ckpt.model_id] = data
            self._last_step[ckpt.model_id] = ckpt.step
            self.bytes_written += len(data)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{ckpt.model_id}", "checkpoint_publish",
                             ckpt.payload_bytes())

    def load_latest(self, model_id: int, entity: str | None = None) -> Checkpoint | None:
        with self._lock:
            data = self._blobs.get(model_id)
            if data is not None:
                self.bytes_read += len(data)
        if data is None:
            return None
        params, step, mid, f32 = deserialize_checkpoint(data, self._arch)
        ckpt = Checkpoint(mid, step, params, f32)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{model_id}", "checkpoint_load",
                             ckpt.payload_bytes())
        return ckpt


class FileCheckpointStore:
    """One ``ckpt_<model_id>.bin`` per model in a directory.

    Publishes write a temp file in the same directory and ``os.replace`` it
    into place, so a concurrent reader sees either the previous complete
    checkpoint or the new one, never a torn payload.
    """

    def __init__(self, directory, arch: Architecture, ledger: CommLedger | None = None):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._arch = arch
        self._ledger = ledger
        self._lock = threading.Lock()
        self._last_step: dict[int, int] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def _path(self, model_id: int) -> Path:
        return self._dir / f"ckpt_{model_id}.bin"

    def publish(self, ckpt: Checkpoint, entity: str | None = None) -> None:
        data = serialize_params(ckpt.params, step=ckpt.step, model_id=ckpt.model_id,
                                float32=ckpt.float32)
        with self._lock:
            last = self._last_step.get(ckpt.model_id)
            if last is not None and ckpt.step <= last:
                raise ValueError(f"checkpoint step must increase ({ckpt.step} <= {last})")
            self._last_step[ckpt.model_id] = ckpt.step
        fd, tmp = tempfile.mkstemp(dir=self._dir, prefix=f".ckpt_{ckpt.model_id}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, self._path(ckpt.model_id))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        with self._lock:
            self.bytes_written += len(data)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{ckpt.model_id}", "checkpoint_publish",
                             ckpt.payload_bytes())

    def load_latest(self, model_id: int, entity: str | None = None) -> Checkpoint | None:
        try:
            data = self._path(model_id).read_bytes()
        except FileNotFoundError:
            return None
        with self._lock:
            self.bytes_read += len(data)
        params, step, mid, f32 = deserialize_checkpoint(data, self._arch)
        ckpt = Checkpoint(mid, step, params, f32)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{model_id}", "checkpoint_load",
                             ckpt.payload_bytes())
        return ckpt


@dataclass(frozen=True)
class GroupConfig:
    """One synchronous worker group: W workers of per-worker batch B."""

    n_workers: int
    batch_size: int
    optimizer: optim.OptimizerConfig
    loss: CombinedLossSpec
    seed: int

    def __post_init__(self):
        if self.n_workers < 1 or self.batch_size < 1:
            raise ValueError("n_workers and batch_size must be positive")

    @property
    def effective_batch(self) -> int:
        return self.n_workers * self.batch_size


@dataclass(frozen=True)
class CodistillConfig:
    """Settings for one codistillation run.

    Burn-in must cover at least one reload interval so a peer checkpoint
    exists by the time the distillation term activates.
    """

    n_models: int = 2
    n_burn_in: int = 50
    reload_interval: int = 50
    distill: str = "soft_cross_entropy"
    distill_weight: float = 1.0
    teacher_mode: str = "stale_checkpoint"
    data_mode: str = "disjoint"
    float32_payload: bool = False

    def __post_init__(self):
        if self.n_models < 2:
            raise ValueError("codistillation needs at least two models")
        if self.reload_interval < 1:
            raise ValueError("reload_interval must be positive")
        if self.n_burn_in < self.reload_interval:
            raise ValueError("n_burn_in must be >= reload_interval so a teacher checkpoint exists")
        if self.teacher_mode not in TEACHER_MODES:
            raise ValueError(f"unknown teacher_mode {self.teacher_mode!r}")
        if self.data_mode not in DATA_MODES:
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.distill_weight < 0.0:
            raise ValueError("distill_weight must be nonnegative")


@dataclass
class CodistillResult:
    params: list[Parameters]
    records: list[MetricRecord]
    max_teacher_lag: int


@dataclass
class OfflineResult:
    student_params: Parameters
    teacher_params: list[Parameters]
    records: list[MetricRecord]
    phase1_steps: int
    phase2_steps: int

    @property
    def total_steps(self) -> int:
        return self.phase1_steps + self.phase2_steps


def worker_streams(shard, group: GroupConfig):
    """One deterministic batch stream per worker, derived from the group seed."""
    return [batch_stream(shard, group.batch_size, np.random.SeedSequence([group.seed, w]))
            for w in range(group.n_workers)]


class GroupRunner:
    """Mutable training state for one synchronous worker group.

    The W replicas stay bit-identical by construction: the worker-averaged
    gradient of synchronous SGD equals a single pass over the worker-order
    concatenation of the W per-worker minibatches, and that is how it is
    computed. The ledger is still charged the logical allreduce cost of
    2 * W * param_bytes per step.
    """

    def __init__(self, arch: Architecture, group: GroupConfig, shard=None, *,
                 streams=None, ledger: CommLedger | None = None,
                 entity: str = "group0", model_id: int = 0):
        self.arch = arch
        self.group = group
        self.params = init_params(arch, group.seed)
        self.opt_state = optim.init_state(group.optimizer, param_count(arch))
        self.streams = list(streams) if streams is not None else worker_streams(shard, group)
        if len(self.streams) != group.n_workers:
            raise ValueError(f"expected {group.n_workers} streams, got {len(self.streams)}")
        self.ledger = ledger if ledger is not None else CommLedger()
        self.entity = entity
        self.model_id = model_id
        self.step_index = 0
        self._param_bytes = param_count(arch) * 8

    def next_batches(self) -> list[Batch]:
        return [next(s) for s in self.streams]

    def step_batches(self, batches: list[Batch], loss_spec: CombinedLossSpec | None = None,
                     teacher_fn=None) -> float:
        """One synchronous group step over W per-worker batches.

        The network runs forward once: its logits feed the loss and its
        activations the gradient.
        """
        if len(batches) != self.group.n_workers:
            raise ValueError(f"expected {self.group.n_workers} batches, got {len(batches)}")
        for b in batches:
            if b.size != self.group.batch_size:
                raise ValueError(f"per-worker batches must have size {self.group.batch_size}")
        if len(batches) == 1:
            batch = batches[0]
        else:
            batch = Batch(np.concatenate([b.inputs for b in batches], axis=0),
                          np.concatenate([b.labels for b in batches], axis=0))
        spec = loss_spec if loss_spec is not None else self.group.loss
        trace = forward_trace(self.params, batch)
        teacher = teacher_fn(batch) if teacher_fn is not None else None
        loss, dlogits = combined_loss(spec, batch.labels, trace.logits, teacher)
        if not np.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
            raise DivergenceError(self.step_index, f"loss {loss} at step {self.step_index}")
        grad = trace.grad(dlogits)
        new_values, self.opt_state = optim.step(self.group.optimizer, self.opt_state,
                                                self.params.values, grad.values)
        self.params = Parameters(self.arch, new_values)
        self.ledger.add(self.entity, "gradient_exchange", self.group.n_workers * self._param_bytes)
        self.ledger.add(self.entity, "parameter_broadcast", self.group.n_workers * self._param_bytes)
        self.step_index += 1
        return loss

    def step_stream(self, loss_spec: CombinedLossSpec | None = None, teacher_fn=None) -> float:
        return self.step_batches(self.next_batches(), loss_spec, teacher_fn)

    def record(self, run_id: str, validation: Batch, t0: float,
               train_loss: float | None) -> MetricRecord:
        val_loss, val_acc = evaluate(self.params, validation)
        sync = (self.ledger.total("gradient_exchange", self.entity)
                + self.ledger.total("parameter_broadcast", self.entity))
        ckpt = (self.ledger.total("checkpoint_publish", self.entity)
                + self.ledger.total("checkpoint_load", self.entity))
        return MetricRecord(run_id=run_id, step=self.step_index,
                            wall_seconds=time.perf_counter() - t0,
                            train_loss=train_loss, validation_loss=val_loss,
                            validation_accuracy=val_acc,
                            bytes_grad_exchange=sync, bytes_checkpoint=ckpt)


def _mean_nonempty(xs):
    return float(np.mean(xs)) if xs else None


def train_baseline(arch: Architecture, group: GroupConfig, shard, n_steps: int,
                   validation: Batch, eval_every: int = 100, *,
                   ledger: CommLedger | None = None, streams=None,
                   run_id: str = "baseline", step_callback=None):
    """Synchronous-SGD training of a single group.

    Evaluates at step 0, every ``eval_every`` steps, and the final step; the
    recorded train loss is the mean objective since the previous record.
    Fully deterministic given the config seed. Raises DivergenceError (with
    the records so far attached) if the loss goes non-finite or past the
    abort threshold.
    """
    runner = GroupRunner(arch, group, shard, streams=streams, ledger=ledger, entity=run_id)
    t0 = time.perf_counter()
    records = [runner.record(run_id, validation, t0, None)]
    window: list[float] = []
    try:
        for s in range(n_steps):
            loss = runner.step_stream()
            if step_callback is not None:
                step_callback(s, loss, runner.params)
            window.append(loss)
            if (s + 1) % eval_every == 0 or s + 1 == n_steps:
                records.append(runner.record(run_id, validation, t0, _mean_nonempty(window)))
                window = []
    except DivergenceError as err:
        err.records = records
        raise
    return runner.params, records


def train_with_static_teacher(arch: Architecture, group: GroupConfig, shard, n_steps: int,
                              teacher_fn, distill: str, distill_weight: float,
                              validation: Batch, eval_every: int = 100, *,
                              ledger: CommLedger | None = None, streams=None,
                              run_id: str = "student"):
    """Distill from a frozen teacher signal for the whole run.

    ``teacher_fn(batch)`` returns the teacher signal in the form the chosen
    distillation loss expects. With weight 0 this is exactly train_baseline.
    """
    if distill == "none" or distill_weight == 0.0:
        return train_baseline(arch, group, shard, n_steps, validation, eval_every,
                              ledger=ledger, streams=streams, run_id=run_id)
    spec = replace(group.loss, distill=distill, distill_weight=distill_weight)
    runner = GroupRunner(arch, group, shard, streams=streams, ledger=ledger, entity=run_id)
    t0 = time.perf_counter()
    records = [runner.record(run_id, validation, t0, None)]
    window: list[float] = []
    try:
        for s in range(n_steps):
            loss = runner.step_stream(spec, teacher_fn)
            window.append(loss)
            if (s + 1) % eval_every == 0 or s + 1 == n_steps:
                records.append(runner.record(run_id, validation, t0, _mean_nonempty(window)))
                window = []
    except DivergenceError as err:
        err.records = records
        raise
    return runner.params, records


def mean_teacher_fn(teacher_params, distill: str):
    """Average prediction of the given models, in the form the loss expects.

    Probabilities for soft_cross_entropy / kl_divergence, logits for
    logit_mse; fixed model order keeps the float reduction deterministic.
    """
    teacher_params = list(teacher_params)
    predict = forward if distill == "logit_mse" else predict_proba

    def fn(batch: Batch) -> np.ndarray:
        acc = None
        for tp in teacher_params:
            out = predict(tp, batch)
            acc = out if acc is None else acc + out
        return acc / len(teacher_params)

    return fn


def _check_codistill_args(cfg: CodistillConfig, groups, shards):
    if len(groups) != cfg.n_models or len(shards) != cfg.n_models:
        raise ValueError("need one group config and one shard per model")
    if len({g.seed for g in groups}) != cfg.n_models:
        raise ValueError("group seeds must be distinct")
    for g in groups:
        if g.loss.distill != "none" or g.loss.smoothing is not None:
            raise ValueError("group loss must be plain hard CE; the codistill config owns the distillation term")


def codistill_train(arch: Architecture, cfg: CodistillConfig, groups, shards,
                    n_steps: int, store, validation: Batch, eval_every: int = 100, *,
                    ledger: CommLedger | None = None, run_id_prefix: str = "model",
                    step_callback=None) -> CodistillResult:
    """Lockstep codistillation over N groups.

    On every global step that hits the reload boundary each group publishes
    its checkpoint and then reloads its peers' freshest ones; every group then
    takes one training step, in model-id order. Before ``n_burn_in`` steps the
    groups train on the hard loss only; afterwards each adds the distillation
    term against the mean prediction of the other N-1 models' last-loaded
    checkpoints. With ``fresh_in_process`` teachers the peer parameters are
    snapshotted at every step boundary and the store is not used.
    """
    _check_codistill_args(cfg, groups, shards)
    ledger = ledger if ledger is not None else CommLedger()
    n = cfg.n_models
    runners = [GroupRunner(arch, groups[i], shards[i], ledger=ledger,
                           entity=f"{run_id_prefix}{i}", model_id=i) for i in range(n)]
    distill_active = cfg.distill != "none" and cfg.distill_weight > 0.0
    active_specs = [replace(groups[i].loss, distill=cfg.distill,
                            distill_weight=cfg.distill_weight) if distill_active else groups[i].loss
                    for i in range(n)]
    # teachers[i] maps peer id -> (Parameters, checkpoint step)
    teachers: list[dict[int, tuple[Parameters, int]]] = [{} for _ in range(n)]
    max_lag = 0
    t0 = time.perf_counter()
    records = [runners[i].record(f"{run_id_prefix}{i}", validation, t0, None) for i in range(n)]
    windows: list[list[float]] = [[] for _ in range(n)]
    try:
        for s in range(n_steps):
            if cfg.teacher_mode == "stale_checkpoint":
                if s % cfg.reload_interval == 0:
                    for i, r in enumerate(runners):
                        store.publish(Checkpoint(i, s, r.params, cfg.float32_payload),
                                      entity=r.entity)
                    for i, r in enumerate(runners):
                        loaded = {}
                        for j in range(n):
                            if j == i:
                                continue
                            ck = store.load_latest(j, entity=r.entity)
                            if ck is None:
                                raise RuntimeError(f"missing peer checkpoint for model {j}")
                            loaded[j] = (ck.params, ck.step)
                        teachers[i] = loaded
            else:
                current = [r.params for r in runners]
                teachers = [{j: (current[j], s) for j in range(n) if j != i} for i in range(n)]
            for i, r in enumerate(runners):
                if distill_active and s >= cfg.n_burn_in:
                    lag = s - min(step for _, step in teachers[i].values())
                    max_lag = max(max_lag, lag)
                    teacher_fn = mean_teacher_fn([p for p, _ in teachers[i].values()], cfg.distill)
                    loss = r.step_stream(active_specs[i], teacher_fn)
                else:
                    loss = r.step_stream()
                if step_callback is not None:
                    step_callback(i, s, loss, r.params)
                windows[i].append(loss)
            if (s + 1) % eval_every == 0 or s + 1 == n_steps:
                for i, r in enumerate(runners):
                    records.append(r.record(f"{run_id_prefix}{i}", validation, t0,
                                            _mean_nonempty(windows[i])))
                    windows[i] = []
    except DivergenceError as err:
        err.records = records
        raise
    return CodistillResult([r.params for r in runners], records, max_lag)


def codistill_train_concurrent(arch: Architecture, cfg: CodistillConfig, groups, shards,
                               n_steps: int, store, validation: Batch,
                               eval_every: int = 100, *, ledger: CommLedger | None = None,
                               run_id_prefix: str = "model") -> CodistillResult:
    """Codistillation with one thread per group against a shared store.

    Demonstrates the protocol under real asynchrony: each group publishes and
    reloads on its own local step counter and sees whatever checkpoints are
    freshest at that moment. Scheduling is nondeterministic, so this mode is
    excluded from the bit-exact reproducibility guarantees. Requires
    ``stale_checkpoint`` teachers (there is no shared step boundary to
    snapshot at).

    The first group to fail sets a shared stop flag, and its peers stop
    before their next step. A DivergenceError is re-raised with the records
    every group collected, in model-id order.
    """
    _check_codistill_args(cfg, groups, shards)
    if cfg.teacher_mode != "stale_checkpoint":
        raise ValueError("concurrent mode requires stale_checkpoint teachers")
    ledger = ledger if ledger is not None else CommLedger()
    n = cfg.n_models
    runners = [GroupRunner(arch, groups[i], shards[i], ledger=ledger,
                           entity=f"{run_id_prefix}{i}", model_id=i) for i in range(n)]
    distill_active = cfg.distill != "none" and cfg.distill_weight > 0.0
    t0 = time.perf_counter()
    # everyone publishes step 0 before anyone trains, so peers always exist
    for i, r in enumerate(runners):
        store.publish(Checkpoint(i, 0, r.params, cfg.float32_payload), entity=r.entity)
    barrier = threading.Barrier(n)
    stop = threading.Event()
    results: list[list[MetricRecord]] = [[] for _ in range(n)]
    errors: list[BaseException | None] = [None] * n

    def run_group(i: int) -> None:
        r = runners[i]
        spec = (replace(groups[i].loss, distill=cfg.distill, distill_weight=cfg.distill_weight)
                if distill_active else groups[i].loss)
        run_id = f"{run_id_prefix}{i}"
        teacher: dict[int, tuple[Parameters, int]] = {}
        window: list[float] = []
        try:
            barrier.wait()
            results[i].append(r.record(run_id, validation, t0, None))
            for s in range(n_steps):
                if stop.is_set():
                    break
                if s % cfg.reload_interval == 0:
                    if s > 0:
                        store.publish(Checkpoint(i, s, r.params, cfg.float32_payload),
                                      entity=r.entity)
                    teacher = {}
                    for j in range(n):
                        if j == i:
                            continue
                        ck = store.load_latest(j, entity=r.entity)
                        if ck is None:
                            raise RuntimeError(f"missing peer checkpoint for model {j}")
                        teacher[j] = (ck.params, ck.step)
                if distill_active and s >= cfg.n_burn_in:
                    fn = mean_teacher_fn([p for p, _ in teacher.values()], cfg.distill)
                    loss = r.step_stream(spec, fn)
                else:
                    loss = r.step_stream()
                window.append(loss)
                if (s + 1) % eval_every == 0 or s + 1 == n_steps:
                    results[i].append(r.record(run_id, validation, t0, _mean_nonempty(window)))
                    window = []
        except BaseException as err:  # joined and re-raised by the caller
            errors[i] = err
            stop.set()

    threads = [threading.Thread(target=run_group, args=(i,), name=f"group{i}") for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = [rec for group_records in results for rec in group_records]
    for err in errors:
        if err is not None:
            if isinstance(err, DivergenceError):
                err.records = records
            raise err
    return CodistillResult([r.params for r in runners], records, -1)


def offline_distill(arch: Architecture, teacher_groups, student_group: GroupConfig,
                    teacher_shards, student_shard, phase1_steps: int, phase2_steps: int,
                    validation: Batch, *, distill: str = "soft_cross_entropy",
                    distill_weight: float = 1.0, eval_every: int = 100,
                    ledger: CommLedger | None = None) -> OfflineResult:
    """Two-phase pipeline: train independent teachers, then distill a fresh
    student against the frozen ensemble's mean predictions.

    Step accounting treats each phase's models as running in parallel, so the
    reported total is phase1_steps + phase2_steps.
    """
    ledger = ledger if ledger is not None else CommLedger()
    records: list[MetricRecord] = []
    teacher_params = []
    for i, (g, sh) in enumerate(zip(teacher_groups, teacher_shards)):
        p, recs = train_baseline(arch, g, sh, phase1_steps, validation, eval_every,
                                 ledger=ledger, run_id=f"phase1.model{i}")
        teacher_params.append(p)
        records.extend(recs)
    teacher_fn = mean_teacher_fn(teacher_params, distill)
    student_params, recs = train_with_static_teacher(
        arch, student_group, student_shard, phase2_steps, teacher_fn, distill,
        distill_weight, validation, eval_every, ledger=ledger, run_id="phase2.student")
    records.extend(recs)
    return OfflineResult(student_params, teacher_params, records, phase1_steps, phase2_steps)


@dataclass(frozen=True)
class CommReport:
    """Closed-form per-step communication costs next to the ledger's actuals.

    Sync SGD moves 2 * W * param_bytes per group per step (send gradients,
    receive parameters); the codistillation overlay amortizes one publish and
    N-1 loads per group over each reload interval.
    """

    param_count: int
    n_steps: int
    n_groups: int
    sync_bytes_per_step_per_group: int
    expected_sync_total: int
    actual_sync_total: int
    overlay_bytes_per_step_per_group: float
    expected_checkpoint_total: int
    actual_checkpoint_total: int
    sync_to_overlay_ratio: float | None

    def as_dict(self) -> dict:
        return {
            "param_count": self.param_count,
            "n_steps": self.n_steps,
            "n_groups": self.n_groups,
            "sync_bytes_per_step_per_group": self.sync_bytes_per_step_per_group,
            "expected_sync_total": self.expected_sync_total,
            "actual_sync_total": self.actual_sync_total,
            "overlay_bytes_per_step_per_group": self.overlay_bytes_per_step_per_group,
            "expected_checkpoint_total": self.expected_checkpoint_total,
            "actual_checkpoint_total": self.actual_checkpoint_total,
            "sync_to_overlay_ratio": self.sync_to_overlay_ratio,
        }


def comm_report(ledger: CommLedger, model_param_count: int, n_steps: int,
                group: GroupConfig, codistill: CodistillConfig | None = None) -> CommReport:
    """Account a completed run against the closed-form cost model."""
    pb = model_param_count * 8
    sync_per_step = 2 * group.n_workers * pb
    n_groups = codistill.n_models if codistill is not None else 1
    expected_sync = n_groups * n_steps * sync_per_step
    if codistill is not None and codistill.teacher_mode == "stale_checkpoint":
        ckpt_bytes = model_param_count * (4 if codistill.float32_payload else 8)
        exchanges = math.ceil(n_steps / codistill.reload_interval) if n_steps > 0 else 0
        per_group_ckpt = exchanges * codistill.n_models * ckpt_bytes  # 1 publish + N-1 loads
        expected_ckpt = n_groups * per_group_ckpt
        overlay_per_step = codistill.n_models * ckpt_bytes / codistill.reload_interval
        ratio = sync_per_step / overlay_per_step
    else:
        expected_ckpt = 0
        overlay_per_step = 0.0
        ratio = None
    actual_sync = ledger.total("gradient_exchange") + ledger.total("parameter_broadcast")
    actual_ckpt = ledger.total("checkpoint_publish") + ledger.total("checkpoint_load")
    return CommReport(model_param_count, n_steps, n_groups, sync_per_step, expected_sync,
                      actual_sync, overlay_per_step, expected_ckpt, actual_ckpt, ratio)
