"""Distributed-training engine.

Synchronous data-parallel worker groups, versioned checkpoint stores, one
training loop over N groups, and logical communication accounting.

Every training mode is that loop with a different teacher source, which
gives the groups nothing or a (loss spec, teacher fn) pair at each step:
none (``train_baseline``); a frozen teacher, which is classic distillation
from an ensemble (``offline_distill``) or, from a constant distribution,
label smoothing; or peers' stale checkpoints from the store, the paper's
online codistillation. Deep mutual learning is codistillation that reloads
every step (``reload_interval=1``), every read charged to the ledger.

The loop trains its N groups as one stack (``_Stack``): their parameters
and optimizer state are (N, P) arrays, and each global step runs once over
the leading model axis, with one ``np.matmul`` per layer, one pass over all
N * (N-1) peer teachers (a stale stack rebuilt only when checkpoints are
reloaded), one combined loss, one backward, one elementwise optimizer
update and one finiteness scan. Stacked matmuls make the same BLAS call on
each model's slice, so every group's numbers are bit-identical to training
it alone. There is one step implementation: the baseline, label smoothing,
offline distillation and each concurrent-mode group process run it as a
stack of one. A ``Parameters`` is built only where one is read: at a
publish, at an evaluation point and in the result. Stacking needs the
groups to agree on ``_LOCKSTEP_FIELDS`` (``n_workers``, ``batch_size``,
``optimizer``, ``loss``).

Lockstep mode (``codistill_train``) makes one loop call over all groups on
one thread, which makes whole runs bit-reproducible. Validation stays one
model at a time: a stacked pass over the validation set would hold N
models' activations at once, which at desk scale adds more to peak memory
than it saves in time. When at least 2 CPUs are available, each evaluation
point's validation passes run on one helper thread beside the next training
steps; they read only that point's immutable ``Parameters``, and numpy
releases the interpreter lock in their large matmuls and ufuncs. With one
CPU they run inline, with the same records: there a helper thread only
takes turns with training on the one core, and its handoffs cost more than
they save.

Concurrent mode (``codistill_train_concurrent``) forks one OS process per
group (the ``fork`` start method, so Linux), each making one loop call over
its group, with no bit-exactness guarantees. As in the paper's deployment,
where groups on separate machines share only stale checkpoints, the
``FileCheckpointStore`` directory is the processes' only channel. Besides
``ckpt_<i>.bin`` it holds:

  stop             exists once any group has failed; every group checks it
                   before each step and stops
  records_<i>.csv  group i's metric records as ``metrics.csv`` rows without
                   the header, appended at every evaluation, so they outlive
                   a crashed process
  result_<i>.pkl   group i's final parameters, teacher lag, ledger counts and
                   error, written when it ends

A group waits at most ``START_TIMEOUT_S`` for its peers' first checkpoints.
Group processes validate inline: the groups already fill the cores, and a
killed group keeps the records of its last evaluation. The parent process
merges the results; it never trains, so a tracer or profiler that patches
functions in the parent (``bench/tracer.py``) sees the one
``codistill_train_concurrent`` call but no span inside the groups.
"""

from __future__ import annotations

import math
import os
import pickle
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import optim
from .data import SHARD_MODES, batch_stream
from .losses import CombinedLossSpec, combined_loss
from .metrics import MetricRecord, evaluate, format_row, parse_row
# backward and forward are unused here but stay importable as distrib.backward
# and distrib.forward, names bench/tracer.py wraps
from .nn import (Architecture, Batch, Parameters, backward, deserialize_checkpoint,  # noqa: F401
                 forward, forward_trace, init_params, param_count, serialize_params, softmax,
                 stack_logits)

# one sync step moves a gradient out and parameters back per worker
LEDGER_CAUSES = ("gradient_exchange", "parameter_broadcast",
                 "checkpoint_publish", "checkpoint_load")

DIVERGENCE_THRESHOLD = 1e4

# Concurrent mode: the most group processes one run may fork, and how long a
# group waits for its peers' first checkpoints (and the parent for its
# children to stop after a failure) before giving up on them.
MAX_GROUP_PROCESSES = 16
START_TIMEOUT_S = 30.0


class DivergenceError(RuntimeError):
    """Training loss went non-finite or past the abort threshold."""

    def __init__(self, step: int, message: str = "", records=None):
        super().__init__(message or f"training diverged at step {step}")
        self.step = step
        self.records = records or []

    def __reduce__(self):
        # self.args holds only the message, which pickle would pass as ``step``
        return type(self), (self.step, str(self), self.records)


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


class _CheckpointStore:
    """Single slot per model id, holding the latest encoded checkpoint.

    Publish and load are written once here: encode or decode, insist on
    increasing steps, charge the ledger. A subclass says only where the bytes
    live (``_write``/``_read``); both use the same wire format, so they behave
    identically apart from I/O. The step check and the write share one lock,
    so a slot never goes back to an older step.
    """

    def __init__(self, arch: Architecture, ledger: CommLedger | None = None):
        self._arch = arch
        self._ledger = ledger
        self._lock = threading.Lock()
        self._last_step: dict[int, int] = {}

    def publish(self, ckpt: Checkpoint, entity: str | None = None) -> None:
        data = serialize_params(ckpt.params, step=ckpt.step, model_id=ckpt.model_id,
                                float32=ckpt.float32)
        with self._lock:
            last = self._last_step.get(ckpt.model_id)
            if last is not None and ckpt.step <= last:
                raise ValueError(f"checkpoint step must increase ({ckpt.step} <= {last})")
            self._write(ckpt.model_id, data)
            self._last_step[ckpt.model_id] = ckpt.step
        if self._ledger is not None:
            self._ledger.add(entity or f"model{ckpt.model_id}", "checkpoint_publish",
                             ckpt.payload_bytes())

    def load_latest(self, model_id: int, entity: str | None = None) -> Checkpoint | None:
        data = self._read(model_id)
        if data is None:
            return None
        params, step, mid, f32 = deserialize_checkpoint(data, self._arch)
        ckpt = Checkpoint(mid, step, params, f32)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{model_id}", "checkpoint_load",
                             ckpt.payload_bytes())
        return ckpt


class InMemoryCheckpointStore(_CheckpointStore):
    """Checkpoint blobs held in a dict."""

    def __init__(self, arch: Architecture, ledger: CommLedger | None = None):
        super().__init__(arch, ledger)
        self._blobs: dict[int, bytes] = {}

    def _write(self, model_id: int, data: bytes) -> None:
        self._blobs[model_id] = data

    def _read(self, model_id: int) -> bytes | None:
        return self._blobs.get(model_id)


def _write_atomic(path: Path, data: bytes) -> None:
    """Write a temp file beside ``path`` and rename it into place, so a reader
    sees the previous complete file or the new one, never a torn one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class FileCheckpointStore(_CheckpointStore):
    """One ``ckpt_<model_id>.bin`` per model in a directory.

    Publishes write a temp file in the same directory and ``os.replace`` it
    into place, so a concurrent reader sees either the previous complete
    checkpoint or the new one, never a torn payload.
    """

    def __init__(self, directory, arch: Architecture, ledger: CommLedger | None = None):
        super().__init__(arch, ledger)
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _path(self, model_id: int) -> Path:
        return self._dir / f"ckpt_{model_id}.bin"

    def _write(self, model_id: int, data: bytes) -> None:
        _write_atomic(self._path(model_id), data)

    def _read(self, model_id: int) -> bytes | None:
        try:
            return self._path(model_id).read_bytes()
        except FileNotFoundError:
            return None


@dataclass(frozen=True)
class GroupConfig:
    """One synchronous worker group: W workers of per-worker batch B."""

    n_workers: int
    batch_size: int
    optimizer: optim.OptimizerConfig
    loss: CombinedLossSpec
    seed: int

    def __post_init__(self):
        # every message starts with the field it is about
        for name in ("n_workers", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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
    data_mode: str = "disjoint"
    float32_payload: bool = False

    def __post_init__(self):
        # every message starts with the field it is about
        if self.n_models < 2:
            raise ValueError("n_models must be at least 2: codistillation needs two models")
        if self.reload_interval < 1:
            raise ValueError("reload_interval must be positive")
        if self.n_burn_in < self.reload_interval:
            raise ValueError("n_burn_in must be >= reload_interval so a teacher checkpoint exists")
        if self.data_mode not in SHARD_MODES:
            raise ValueError(f"data_mode {self.data_mode!r} is unknown")
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
    records: list[MetricRecord]


def worker_streams(shard, group: GroupConfig):
    """One deterministic batch stream per worker, derived from the group seed."""
    return [batch_stream(shard, group.batch_size, np.random.SeedSequence([group.seed, w]))
            for w in range(group.n_workers)]


class GroupRunner:
    """One synchronous worker group: its config, W batch streams, ledger
    entity and step count, and its parameters and optimizer state between
    training loops.

    The W replicas stay bit-identical by construction: the worker-averaged
    gradient of synchronous SGD equals a single pass over the worker-order
    concatenation of the W per-worker minibatches, and that is how it is
    computed. The ledger is still charged the logical allreduce cost of
    2 * W * param_bytes per step.
    """

    def __init__(self, arch: Architecture, group: GroupConfig, shard=None, *,
                 streams=None, ledger: CommLedger | None = None,
                 entity: str = "group0"):
        self.arch = arch
        self.group = group
        self.params = init_params(arch, group.seed)
        self.opt_state = optim.init_state(group.optimizer, param_count(arch))
        self.streams = list(streams) if streams is not None else worker_streams(shard, group)
        if len(self.streams) != group.n_workers:
            raise ValueError(f"expected {group.n_workers} streams, got {len(self.streams)}")
        self.ledger = ledger if ledger is not None else CommLedger()
        self.entity = entity
        self.step_index = 0
        self._param_bytes = param_count(arch) * 8

    def step_batches(self, batches: list[Batch]) -> Batch:
        """This group's share of the next lockstep step: its W per-worker
        batches, checked and concatenated in worker order."""
        if len(batches) != self.group.n_workers:
            raise ValueError(f"expected {self.group.n_workers} batches, got {len(batches)}")
        for b in batches:
            if b.size != self.group.batch_size:
                raise ValueError(f"per-worker batches must have size {self.group.batch_size}")
        if len(batches) == 1:
            return batches[0]
        return Batch(np.concatenate([b.inputs for b in batches], axis=0),
                     np.concatenate([b.labels for b in batches], axis=0))

    def _snapshot_record(self, params: Parameters, run_id: str, validation: Batch, t0: float,
                         train_loss: float | None):
        """This evaluation point's record, deferred.

        The step and ledger totals are read now, beside the (immutable)
        parameters given; the returned function runs the validation pass and
        builds the ``MetricRecord``, on any thread, stamped with the time it
        finished.
        """
        step = self.step_index
        sync = (self.ledger.total("gradient_exchange", self.entity)
                + self.ledger.total("parameter_broadcast", self.entity))
        ckpt = (self.ledger.total("checkpoint_publish", self.entity)
                + self.ledger.total("checkpoint_load", self.entity))

        def finish() -> MetricRecord:
            val_loss, val_acc = evaluate(params, validation)
            return MetricRecord(run_id=run_id, step=step,
                                wall_seconds=time.perf_counter() - t0,
                                train_loss=train_loss, validation_loss=val_loss,
                                validation_accuracy=val_acc,
                                bytes_grad_exchange=sync, bytes_checkpoint=ckpt)

        return finish


# what the groups of one stack must share: one step runs them all
_LOCKSTEP_FIELDS = ("n_workers", "batch_size", "optimizer", "loss")


def _stacked(arrays) -> np.ndarray:
    """Equal-shaped arrays along a new leading axis; one is viewed, not copied."""
    if len(arrays) == 1:
        return arrays[0][None]
    return np.concatenate(arrays).reshape((len(arrays),) + arrays[0].shape)


class _Stack:
    """The N groups of one training loop, trained as one.

    Their parameters and optimizer state are (N, P) arrays, row i being
    runner i's. A step runs once over the leading model axis: one forward,
    one teacher pass, one combined loss, one backward and one elementwise
    optimizer update with its one finiteness scan. Each step replaces
    ``values`` and never writes it, so a row handed out as ``Parameters``
    stays valid. The stack takes the runners' parameters and optimizer state
    (theirs are None meanwhile); ``unstack`` hands the final ones back.
    """

    def __init__(self, runners):
        first = runners[0].group
        for k, r in enumerate(runners[1:], 1):
            for name in _LOCKSTEP_FIELDS:
                if getattr(r.group, name) != getattr(first, name):
                    raise ValueError(f"{name} must be equal across lockstep groups "
                                     f"(group {k} differs from group 0)")
        self.runners = runners
        self.arch = runners[0].arch
        self.group = first
        self.values = np.stack([r.params.values for r in runners])
        states = [r.opt_state for r in runners]
        self.opt_state = optim.OptimizerState(states[0].t, *(
            None if parts[0] is None else np.stack(parts)
            for parts in zip(*((st.m, st.v, st.acc) for st in states))))
        for r in runners:  # held here, not twice, until unstack
            r.params = r.opt_state = None

    def params(self, row: int) -> Parameters:
        return Parameters(self.arch, self.values[row])

    def step(self, pair=None) -> list[float]:
        """One synchronous step of every group; returns their losses.

        ``pair`` is None (hard loss only) or a ``(loss spec, teacher fn)``
        pair, the fn mapping the groups' step batches to their (N, R, K)
        teacher signal. A group whose loss is non-finite or past the abort
        threshold raises ``DivergenceError`` before any group is updated.
        """
        batches = [r.step_batches([next(s) for s in r.streams]) for r in self.runners]
        losses, grad = self._gradient(batches, pair)
        self.values, self.opt_state = optim.step(self.group.optimizer, self.opt_state,
                                                 self.values, grad)
        nbytes = self.group.n_workers * self.runners[0]._param_bytes
        for r in self.runners:
            r.ledger.add(r.entity, "gradient_exchange", nbytes)
            r.ledger.add(r.entity, "parameter_broadcast", nbytes)
            r.step_index += 1
        return losses

    def _gradient(self, batches, pair):
        """The groups' losses and (N, P) gradient; the activations behind them
        are freed on return, before the optimizer allocates its own."""
        spec, teacher_fn = pair if pair is not None else (self.group.loss, None)
        # likewise the teachers' activations, before the students' are made
        teacher = teacher_fn(batches) if teacher_fn is not None else None
        trace = forward_trace(self.arch, self.values, _stacked([b.inputs for b in batches]))
        losses, dlogits = combined_loss(spec, _stacked([b.labels for b in batches]),
                                        trace.logits, teacher)
        losses = losses.tolist()
        for r, loss in zip(self.runners, losses):
            if not math.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
                raise DivergenceError(r.step_index, f"loss {loss} at step {r.step_index}")
        return losses, trace.grad(dlogits)

    def unstack(self) -> None:
        st = self.opt_state
        for row, r in enumerate(self.runners):
            r.params = self.params(row)
            r.opt_state = optim.OptimizerState(st.t, *(
                None if a is None else a[row] for a in (st.m, st.v, st.acc)))


def _train_loop(runners, n_steps: int, validation: Batch, eval_every: int, records: list,
                teachers=None, *, after_eval=None, stop=None) -> None:
    """The one training loop; each training mode is a different ``teachers``.

    The runners train as one ``_Stack``, so they must agree on
    ``_LOCKSTEP_FIELDS``. At every global step ``teachers(s, stack)`` gives
    None (hard loss only) or a ``(loss spec, teacher fn)`` pair for the whole
    stack, which then takes one step. Every runner is evaluated at step 0,
    every ``eval_every`` steps and the final step, and the records are
    appended to the caller's ``records``, in model order; a record's train
    loss is the mean objective since the previous one. After each
    evaluation, ``after_eval(step, new_records, params, t0)`` returns one
    more record to append, given that point's parameters of every runner. An
    existing ``stop`` path ends the loop before the next step; a loop given
    ``stop`` runs in a concurrent-mode group process. There is no per-step
    hook: with ``eval_every=1`` each record's train loss is that one step's
    loss. When the loop ends without an error, each runner holds its final
    parameters and optimizer state.

    An evaluation point snapshots each runner's step, train loss, ledger
    totals and parameters; only the validation passes and the records'
    construction are deferred. Validation runs one model at a time: a
    stacked pass would hold every model's activations over the whole
    validation set at once. With at least 2 CPUs the passes run on a
    one-thread executor while training goes on, at most one point in flight:
    the loop waits for point k-1 before starting point k, and for the last
    one before it returns. Group processes, and processes with one CPU, run
    them inline at the same place. Either way the records are the same, and
    no thread outlives the call. Any exception, a deferred one included with
    its own class, leaves with the records made before it attached as
    ``err.records``.
    """
    stack = _Stack(runners)
    t0 = time.perf_counter()
    windows: list[list[float]] = [[] for _ in runners]
    # group processes already fill the cores, and a killed one must keep its
    # last evaluation's records; on one CPU a helper thread only adds handoffs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    helper = ThreadPoolExecutor(max_workers=1) if stop is None and cpus >= 2 else None
    pending = None  # the future of the evaluation point in flight

    def drain(reraise: bool = True) -> None:
        """Wait for the evaluation in flight, which appends its records itself,
        and re-raise its error."""
        nonlocal pending
        done, pending = pending, None
        error = done.exception() if done is not None else None
        if error is not None and reraise:
            raise error

    def emit(step: int) -> None:
        nonlocal pending
        params = [stack.params(row) for row in range(len(runners))]
        members = [r._snapshot_record(p, r.entity, validation, t0,
                                      float(np.mean(w)) if w else None)
                   for r, p, w in zip(runners, params, windows)]
        for w in windows:
            w.clear()

        def finish() -> None:
            new = [m() for m in members]
            records.extend(new)
            if after_eval is not None:
                records.append(after_eval(step, new, params, t0))

        drain()
        if helper is None:
            finish()
        else:
            pending = helper.submit(finish)

    try:
        emit(0)
        for s in range(n_steps):
            if stop is not None and stop.exists():
                break
            losses = stack.step(teachers(s, stack) if teachers is not None else None)
            for window, loss in zip(windows, losses):
                window.append(loss)
            if (s + 1) % eval_every == 0 or s + 1 == n_steps:
                emit(s + 1)
        drain()
    except Exception as err:
        # keep the records of a point still in flight; this error is the one to report
        drain(reraise=False)
        err.records = records
        raise
    finally:
        if helper is not None:  # waits for a point left by a KeyboardInterrupt
            helper.shutdown()
    stack.unstack()


def _static_teachers(teacher_fn, distill: str, distill_weight: float):
    """Teacher source of a frozen teacher, ``teacher_fn(batch)`` giving one
    batch's signal: the same pair at every step, or None when the
    distillation term is off."""
    if distill == "none" or distill_weight == 0.0:
        return None
    pair = (CombinedLossSpec(distill, distill_weight),
            lambda batches: _stacked([teacher_fn(b) for b in batches]))
    return lambda s, stack: pair


def _mean_teacher(arch: Architecture, teachers: np.ndarray, per_student: int, distill: str):
    """Mean prediction of a stale teacher stack, for a stack of students.

    ``teachers`` is (S * per_student, P): rows [s * k, (s + 1) * k) are
    student s's k = ``per_student`` teachers, in model order. The returned fn
    maps the S students' step batches to their (S, R, K) teacher signals in
    one forward over all teachers, then sums each student's k predictions in
    model order and divides by k: the arithmetic of one teacher at a time.
    Probabilities for soft_cross_entropy / kl_divergence, logits for
    logit_mse.
    """
    def fn(batches) -> np.ndarray:
        inputs = _stacked([b.inputs for b in batches for _ in range(per_student)])
        out = stack_logits(arch, teachers, inputs)
        if distill != "logit_mse":
            out = softmax(out)
        out = out.reshape(len(batches), per_student, *out.shape[1:])
        acc = out[:, 0]
        for k in range(1, per_student):
            acc = acc + out[:, k]
        return acc / per_student

    return fn


class _PeerTeachers:
    """Teacher source of codistillation: after burn-in each group distills
    toward the mean prediction of its N-1 peers.

    ``ids`` are the models the loop steps, row k of its stack being model
    ``ids[k]`` (all N in lockstep; one in a concurrent-mode group process).
    On every reload boundary they publish their checkpoints, then load their
    peers' latest ones from the store, and the stale (len(ids) * (N-1), P)
    teacher stack is rebuilt. Given a ``stop`` path, a group in its own
    process first waits for its peers' first checkpoints, for at most
    ``START_TIMEOUT_S`` and only until ``stop`` exists. ``lags[i]`` is the
    largest gap between a step of group i and its oldest teacher.
    """

    def __init__(self, cfg: CodistillConfig, runners, store, ids=None, stop=None):
        self.cfg = cfg
        self.runners = runners
        self.store = store
        self.ids = list(range(len(runners))) if ids is None else list(ids)
        self.stop = stop
        self.active = cfg.distill != "none" and cfg.distill_weight > 0.0
        self.spec = CombinedLossSpec(cfg.distill, cfg.distill_weight)
        # loaded[i] maps peer id -> the step of group i's loaded checkpoint of it
        self.loaded: list[dict[int, int]] = [{} for _ in runners]
        self.oldest = [0] * len(runners)  # min(loaded[i].values())
        self.lags = [0] * len(runners)
        self.teacher_fn = None

    def __call__(self, s: int, stack: _Stack):
        if s % self.cfg.reload_interval == 0:
            for row, i in enumerate(self.ids):
                self.store.publish(Checkpoint(i, s, stack.params(row), self.cfg.float32_payload),
                                   entity=self.runners[i].entity)
            if s == 0 and self.stop is not None:
                self._await_first_checkpoints()
            self.teacher_fn = None  # the old stack is freed before the new one is loaded
            pairs = [(i, j) for i in self.ids for j in range(len(self.runners)) if j != i]
            teachers = np.empty((len(pairs), param_count(stack.arch)))
            for row, (i, j) in enumerate(pairs):
                teachers[row], self.loaded[i][j] = self._load(i, j)
            for i in self.ids:
                self.oldest[i] = min(self.loaded[i].values())
            self.teacher_fn = _mean_teacher(stack.arch, teachers, len(self.runners) - 1,
                                            self.cfg.distill)
        if not self.active or s < self.cfg.n_burn_in:
            return None
        for i in self.ids:
            self.lags[i] = max(self.lags[i], s - self.oldest[i])
        return self.spec, self.teacher_fn

    def _await_first_checkpoints(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        missing = [j for j in range(len(self.runners)) if j not in self.ids]
        while True:
            missing = [j for j in missing if not self.store._path(j).exists()]
            if not missing:
                return
            if self.stop.exists():
                raise _PeerStopped("stopped while waiting for peer checkpoints")
            if time.monotonic() > deadline:
                raise RuntimeError(f"model {missing[0]} published no first checkpoint "
                                   f"within {START_TIMEOUT_S} s")
            time.sleep(0.005)

    def _load(self, i: int, j: int) -> tuple[np.ndarray, int]:
        ck = self.store.load_latest(j, entity=self.runners[i].entity)
        if ck is None:
            raise RuntimeError(f"missing peer checkpoint for model {j}")
        return ck.params.values, ck.step


def train_baseline(arch: Architecture, group: GroupConfig, shard, n_steps: int,
                   validation: Batch, eval_every: int = 100, *,
                   ledger: CommLedger | None = None, streams=None,
                   run_id: str = "baseline"):
    """Synchronous-SGD training of a single group.

    Evaluates at step 0, every ``eval_every`` steps, and the final step; the
    recorded train loss is the mean objective since the previous record.
    Fully deterministic given the config seed. Raises DivergenceError (with
    the records so far attached) if the loss goes non-finite or past the
    abort threshold.
    """
    runner = GroupRunner(arch, group, shard, streams=streams, ledger=ledger, entity=run_id)
    records: list[MetricRecord] = []
    _train_loop([runner], n_steps, validation, eval_every, records)
    return runner.params, records


def mean_teacher_fn(teacher_params, distill: str):
    """Average prediction of the given models on one batch, in the form the
    loss expects: ``_mean_teacher`` for a stack of one student.

    Probabilities for soft_cross_entropy / kl_divergence, logits for
    logit_mse; fixed model order keeps the float reduction deterministic.
    """
    teacher_params = list(teacher_params)
    if not teacher_params:
        raise ValueError("need at least one teacher")
    fn = _mean_teacher(teacher_params[0].arch, np.stack([p.values for p in teacher_params]),
                       len(teacher_params), distill)
    return lambda batch: fn([batch])[0]


def _peer_runners(arch: Architecture, cfg: CodistillConfig, groups, shards,
                  ledger: CommLedger | None, run_id_prefix: str) -> list[GroupRunner]:
    """One runner per model after validating the codistillation arguments."""
    if len(groups) != cfg.n_models or len(shards) != cfg.n_models:
        raise ValueError("need one group config and one shard per model")
    if len({g.seed for g in groups}) != cfg.n_models:
        raise ValueError("group seeds must be distinct")
    for g in groups:
        if g.loss.distill != "none":
            raise ValueError("group loss must be plain hard CE; the codistill config owns the distillation term")
    ledger = ledger if ledger is not None else CommLedger()
    return [GroupRunner(arch, groups[i], shards[i], ledger=ledger,
                        entity=f"{run_id_prefix}{i}") for i in range(cfg.n_models)]


def codistill_train(arch: Architecture, cfg: CodistillConfig, groups, shards,
                    n_steps: int, store, validation: Batch, eval_every: int = 100, *,
                    ledger: CommLedger | None = None,
                    run_id_prefix: str = "model") -> CodistillResult:
    """Lockstep codistillation over N groups.

    On every global step that hits the reload boundary each group publishes
    its checkpoint and then reloads its peers' freshest ones; every group then
    takes one training step, in model-id order. Before ``n_burn_in`` steps the
    groups train on the hard loss only; afterwards each adds the distillation
    term against the mean prediction of the other N-1 models' last-loaded
    checkpoints.
    """
    runners = _peer_runners(arch, cfg, groups, shards, ledger, run_id_prefix)
    teachers = _PeerTeachers(cfg, runners, store)
    records: list[MetricRecord] = []
    _train_loop(runners, n_steps, validation, eval_every, records, teachers)
    return CodistillResult([r.params for r in runners], records, max(teachers.lags))


class _PeerStopped(RuntimeError):
    """A group stopped because a peer failed; the peer's error is the one to report."""


class _RecordFile:
    """Stands in for a group process's record list: every batch of records is
    appended to the file as ``metrics.csv`` rows, where the parent reads it."""

    def __init__(self, path: Path):
        self.path = path

    def extend(self, records) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("".join(format_row(r) + "\n" for r in records))


def _read_records(path: Path) -> list[MetricRecord]:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    # a process killed mid-write leaves at most one line without its newline
    return [parse_row(line) for line in text.split("\n")[:-1]]


def _group_process(i: int, runner: GroupRunner, teachers: _PeerTeachers, n_steps: int,
                   validation: Batch, eval_every: int, directory: Path, stop: Path):
    """Body of group i's process: train, then report through the directory.

    The runner and the store charge one fresh ledger whose counts go back to
    the parent.
    """
    ledger = runner.ledger = teachers.store._ledger = CommLedger()
    error = None
    try:
        _train_loop([runner], n_steps, validation, eval_every,
                    _RecordFile(directory / f"records_{i}.csv"), teachers, stop=stop)
    except BaseException as err:  # handed to the parent, which re-raises it
        error = err
        try:
            pickle.loads(pickle.dumps(err))
        except Exception:
            error = RuntimeError(f"{type(err).__name__}: {err}")
    result = {"params": runner.params.values if error is None else None, "lag": teachers.lags[i],
              "ledger": ledger.snapshot(), "error": error}
    _write_atomic(directory / f"result_{i}.pkl", pickle.dumps(result))


def codistill_train_concurrent(arch: Architecture, cfg: CodistillConfig, groups, shards,
                               n_steps: int, store, validation: Batch,
                               eval_every: int = 100, *, ledger: CommLedger | None = None,
                               run_id_prefix: str = "model") -> CodistillResult:
    """Codistillation with one OS process per group, sharing only a
    ``FileCheckpointStore`` directory.

    Demonstrates the protocol under real asynchrony: each group publishes and
    reloads on its own local step counter and sees whatever checkpoints are
    freshest at that moment. Scheduling is nondeterministic, so this mode is
    excluded from the bit-exact reproducibility guarantees. Runs at most
    ``MAX_GROUP_PROCESSES`` groups. Forks, so Linux.

    The run's files in the directory are cleared first. The ledger counts of
    every group that finished are added to ``ledger`` and the store's ledger.
    The first group to fail (raise, or die without a result) stops its peers
    before their next step, and its error is re-raised, with its original
    class and message, carrying every group's records in model-id order. No
    process outlives the call.
    """
    # imported here, not at the top: about 20 ms that lockstep runs need not pay
    import multiprocessing.connection

    if not isinstance(store, FileCheckpointStore):
        raise ValueError("concurrent mode needs a FileCheckpointStore: its directory is "
                         "the group processes' only channel")
    if cfg.n_models > MAX_GROUP_PROCESSES:
        raise ValueError(f"concurrent mode runs one process per model, at most "
                         f"{MAX_GROUP_PROCESSES}, not {cfg.n_models}")
    runners = _peer_runners(arch, cfg, groups, shards, ledger, run_id_prefix)
    n = cfg.n_models
    directory = store._dir
    stop = directory / "stop"
    stop.unlink(missing_ok=True)
    for i in range(n):
        for path in (store._path(i), directory / f"records_{i}.csv",
                     directory / f"result_{i}.pkl"):
            path.unlink(missing_ok=True)
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_group_process, name=runners[i].entity, daemon=True,
                         args=(i, runners[i], _PeerTeachers(cfg, runners, store, [i], stop),
                               n_steps, validation, eval_every, directory, stop))
             for i in range(n)]
    results: list[dict | None] = [None] * n
    failures: list[BaseException] = []  # in the order the parent saw them
    deadline = None  # set by the first failure: the peers' time to stop
    try:
        for proc in procs:
            proc.start()
        running = {proc.sentinel: i for i, proc in enumerate(procs)}
        while running:
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = multiprocessing.connection.wait(list(running), timeout)
            if not ready:
                break  # the rest are killed below
            for sentinel in ready:
                i = running.pop(sentinel)
                procs[i].join()
                path = directory / f"result_{i}.pkl"
                results[i] = pickle.loads(path.read_bytes()) if path.exists() else None
                error = (results[i]["error"] if results[i] is not None else RuntimeError(
                    f"the process of model {i} ended without a result "
                    f"(exit code {procs[i].exitcode})"))
                if error is not None:
                    failures.append(error)
                    stop.touch()
                    deadline = deadline or time.monotonic() + START_TIMEOUT_S
    finally:
        if any(proc.is_alive() for proc in procs):
            stop.touch()
            deadline = deadline or time.monotonic() + START_TIMEOUT_S
        for proc in procs:
            if proc.pid is not None:
                proc.join(max(0.0, deadline - time.monotonic()) if deadline else None)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
    for runner, result in zip(runners, results):
        for key, nbytes in (result["ledger"] if result is not None else {}).items():
            entity, cause = key.rsplit("/", 1)
            target = store._ledger if cause.startswith("checkpoint_") else runner.ledger
            if target is not None:
                target.add(entity, cause, nbytes)
    records = [rec for i in range(n) for rec in _read_records(directory / f"records_{i}.csv")]
    if failures:
        error = next((e for e in failures if not isinstance(e, _PeerStopped)), failures[0])
        error.records = records
        raise error
    return CodistillResult([Parameters(arch, r["params"]) for r in results], records,
                           max(r["lag"] for r in results))


def offline_distill(arch: Architecture, teacher_groups, student_group: GroupConfig,
                    teacher_shards, student_shard, phase1_steps: int, phase2_steps: int,
                    validation: Batch, *, distill: str = "soft_cross_entropy",
                    distill_weight: float = 1.0, eval_every: int = 100,
                    run_id_prefix: str = "") -> OfflineResult:
    """Two-phase pipeline: train independent teachers, then distill a fresh
    student against the frozen ensemble's mean predictions.

    Run ids are ``<run_id_prefix>phase1.model<i>`` and
    ``<run_id_prefix>phase2.student``.
    """
    records: list[MetricRecord] = []
    teacher_params = []
    for i, (g, sh) in enumerate(zip(teacher_groups, teacher_shards)):
        teacher = GroupRunner(arch, g, sh, entity=f"{run_id_prefix}phase1.model{i}")
        _train_loop([teacher], phase1_steps, validation, eval_every, records)
        teacher_params.append(teacher.params)
    student = GroupRunner(arch, student_group, student_shard,
                          entity=f"{run_id_prefix}phase2.student")
    _train_loop([student], phase2_steps, validation, eval_every, records,
                _static_teachers(mean_teacher_fn(teacher_params, distill), distill,
                                 distill_weight))
    return OfflineResult(student.params, records)


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
        return asdict(self)


def comm_report(ledger: CommLedger, model_param_count: int, n_steps: int,
                group: GroupConfig, codistill: CodistillConfig | None = None) -> CommReport:
    """Account a completed run against the closed-form cost model."""
    pb = model_param_count * 8
    sync_per_step = 2 * group.n_workers * pb
    n_groups = codistill.n_models if codistill is not None else 1
    expected_sync = n_groups * n_steps * sync_per_step
    if codistill is not None:
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
