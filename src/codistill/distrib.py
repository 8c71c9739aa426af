"""Distributed-training engine.

Synchronous data-parallel worker groups, versioned checkpoint stores, one
training loop over N groups, and logical communication accounting.

Every training mode is that loop with a different teacher source, which
gives the groups nothing or a loss spec at each step: none
(``train_baseline``); a frozen teacher, which is classic distillation from
an ensemble (``offline_distill``) or, from a constant distribution, label
smoothing; or peers' stale checkpoints from the store, the paper's online
codistillation. Deep mutual learning is codistillation that reloads every
step (``reload_interval=1``), every read charged to the ledger. Every
teacher is data the stack holds, set by its source: teacher rows, the
ensemble once and peer checkpoints at each reload, or label smoothing's
constant distribution as a signal, bound once per loop.

The loop trains its N groups as one stack (``_Stack``): their parameters
and optimizer state are (N, P) arrays, and each global step runs once over
the leading model axis. After burn-in the stack's T = N * k teacher rows
(k per student) follow its N student rows in its one (N + T, P) parameter
buffer, so a step is one forward over all N + T rows (the N students' in
burn-in), with one ``np.matmul`` per layer; each student's mean teacher
prediction, made in place from its k rows' logits; one combined loss; one
backward over the N students; and one elementwise optimizer update with one
finiteness scan. Stacked matmuls make the same BLAS call on each model's
slice, so every group's numbers are bit-identical to training it alone.
There is one step implementation: the baseline, label smoothing, offline
distillation and each concurrent-mode group process run it as a stack of
one (with its k teacher rows). Stacking needs the groups to agree on
``_LOCKSTEP_FIELDS`` (``n_workers``, ``batch_size``, ``optimizer``); each
group's own loss is the hard loss, to which only its teacher source adds.

A step allocates none of its large arrays: the stack binds everything it
touches once per loop (see ``_Stack``), and each part is the one body of
the network, the losses or the optimizer (``nn.Pass``,
``losses.combined_loss`` with a ``LossPlan``, ``optim.step``'s buffer
form). So a ``Parameters`` is built only where one is read, as a view of
the parameter buffer: a publish and an evaluation point consume theirs at
once, and what outlives the step is copied (the result's parameters, and
those an ``after_eval`` hook is given).

Both checkpoint stores decode each published version once, the store that
publishes it at publish time: a load of the version already decoded returns
that ``Checkpoint``, reading no bytes, and still charges the ledger one
logical load. The file store publishes by swapping a symbolic link to a new
file, so no regular file is ever renamed over another (see
``FileCheckpointStore`` for the cost this avoids on ext4).

Lockstep mode (``codistill_train``) makes one loop call over all groups on
one thread, which makes whole runs bit-reproducible. Validation runs one
model at a time through one forward-only ``nn.Plan`` over the validation
rows, built once per loop by the process that validates: its memory does
not grow with N, and a stacked pass over all N models would be no faster.
When at least 2 CPUs are available, the loop forks one evaluator process
(the ``fork`` start method, so Linux), which validates each evaluation
point beside the next training steps: the loop copies that point's (N, P)
parameters into one slot of memory the two processes share, mapped before
the fork, sends only the step and the groups' counters over a pipe, and
receives the records, so validation shares neither the training thread's
interpreter lock nor its CPU time. With one CPU the passes run inline, with
the same records: there a second process only takes turns with training on
the one core, and its handoffs cost more than they save.

Concurrent mode (``codistill_train_concurrent``) forks one OS process per
group (the ``fork`` start method, so Linux), each making one loop call over
its group, with no bit-exactness guarantees. As in the paper's deployment,
where groups on separate machines share only stale checkpoints, they share
only the ``FileCheckpointStore`` directory, which holds only checkpoints.
Like the evaluator, each group is started by ``_fork`` and reports over its
pipe: its records at every evaluation, so a killed group keeps those of its
last one, and its result when it ends. Any message from the parent, or end
of file, stops a group before its next step (a ``select.poll`` with the
pipe registered once checks for both), so a peer's failure or the parent's
death, even by ``SIGKILL``, ends it. A group waits at most
``START_TIMEOUT_S`` for its peers' first checkpoints. Group processes
validate inline: the groups already fill the cores. The parent process
merges the results; it never trains, so a tracer or profiler that patches
functions in the parent (``bench/tracer.py``) sees the one
``codistill_train_concurrent`` call but no span inside the groups.
"""

from __future__ import annotations

import errno
import functools
import math
import mmap
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import signal
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import optim
from .data import SHARD_MODES, batch_stream
from .losses import CombinedLossSpec, LossPlan, combined_loss
from .metrics import MetricRecord, evaluate
# backward and forward are unused here but stay importable as distrib.backward
# and distrib.forward, names bench/tracer.py wraps
from .nn import (Architecture, Batch, Parameters, Pass, Plan, SerializationError,  # noqa: F401
                 _validate_inputs, backward, deserialize_checkpoint, forward, init_params,
                 param_count, serialize_params, softmax)

# one sync step moves a gradient out and parameters back per worker
LEDGER_CAUSES = ("gradient_exchange", "parameter_broadcast",
                 "checkpoint_publish", "checkpoint_load")

DIVERGENCE_THRESHOLD = 1e4

# Concurrent mode: the most group processes one run may fork, and how long a
# group waits for its peers' first checkpoints (and the parent for its
# children to stop after a failure) before giving up on them.
MAX_GROUP_PROCESSES = 16
START_TIMEOUT_S = 30.0

# How long a parent waits for a forked process to exit, once it has told its
# evaluator to stop or read end of file from any child, before killing it.
EVALUATOR_STOP_S = 5.0


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
        self.add_each(((entity, cause),), nbytes)

    def add_each(self, keys, nbytes: int) -> None:
        """``nbytes`` to each (entity, cause) in ``keys``, under one lock: a
        training step charges all its groups' exchanges in one call."""
        for _, cause in keys:
            if cause not in LEDGER_CAUSES:
                raise ValueError(f"unknown ledger cause {cause!r}")
        if nbytes < 0:
            raise ValueError("ledger bytes must be nonnegative")
        nbytes = int(nbytes)
        with self._lock:
            for key in keys:
                self._counts[key] = self._counts.get(key, 0) + nbytes

    def total(self, cause: str | None = None, entity: str | None = None) -> int:
        with self._lock:
            return sum(v for (e, c), v in self._counts.items()
                       if (cause is None or c == cause) and (entity is None or e == entity))


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

    Each published version is decoded once per store: a store decodes the
    versions it publishes when it publishes them (from the bytes it wrote,
    once they are visible) and other versions on their first load.
    ``_write`` and ``_read`` name the version they wrote or found, and a load
    of the version last decoded for that model returns the same
    ``Checkpoint`` without reading or decoding its bytes: so a lockstep load
    of a peer reads nothing, and N >= 3 groups sharing one store load each
    peer checkpoint N-1 times. Such a load still charges the ledger one
    logical load, as the ledger charges W workers' allreduce for one
    computed gradient. The cache holds one decoded checkpoint per model, and
    its ``Parameters`` values are read-only, so every caller can share it.
    As for any cached version, bytes damaged in place under the same version
    are not read again.
    """

    def __init__(self, arch: Architecture, ledger: CommLedger | None = None):
        self._arch = arch
        self._ledger = ledger
        self._lock = threading.Lock()
        self._last_step: dict[int, int] = {}
        self._decoded: dict[int, tuple[object, Checkpoint]] = {}  # model id -> (version, ckpt)

    def publish(self, ckpt: Checkpoint, entity: str | None = None) -> None:
        data = serialize_params(ckpt.params, step=ckpt.step, model_id=ckpt.model_id,
                                float32=ckpt.float32)
        with self._lock:
            last = self._last_step.get(ckpt.model_id)
            if last is not None and ckpt.step <= last:
                raise ValueError(f"checkpoint step must increase ({ckpt.step} <= {last})")
            version = self._write(ckpt.model_id, ckpt.step, data)
            self._last_step[ckpt.model_id] = ckpt.step
        self._decoded[ckpt.model_id] = version, self._decode(data)
        if self._ledger is not None:
            self._ledger.add(entity or f"model{ckpt.model_id}", "checkpoint_publish",
                             ckpt.payload_bytes())

    def load_latest(self, model_id: int, entity: str | None = None) -> Checkpoint | None:
        cached = self._decoded.get(model_id)
        found = self._read(model_id, None if cached is None else cached[0])
        if found is None:
            return None
        version, data = found
        if data is None:
            ckpt = cached[1]
        else:
            ckpt = self._decode(data)
            self._decoded[model_id] = version, ckpt
        if self._ledger is not None:
            self._ledger.add(entity or f"model{model_id}", "checkpoint_load",
                             ckpt.payload_bytes())
        return ckpt

    def _decode(self, data: bytes) -> Checkpoint:
        params, step, mid, f32 = deserialize_checkpoint(data, self._arch)
        return Checkpoint(mid, step, params, f32)


class InMemoryCheckpointStore(_CheckpointStore):
    """Checkpoint blobs held in a dict.

    A blob is its own version, compared with ``is``: the decode cache keeps
    the blob it decoded alive, so no later blob can be that object.
    """

    def __init__(self, arch: Architecture, ledger: CommLedger | None = None):
        super().__init__(arch, ledger)
        self._blobs: dict[int, bytes] = {}

    def _write(self, model_id: int, step: int, data: bytes) -> bytes:
        self._blobs[model_id] = data
        return data

    def _read(self, model_id: int, known) -> tuple[object, bytes | None] | None:
        data = self._blobs.get(model_id)
        if data is None:
            return None
        return data, (None if data is known else data)


# how often a load resolves a checkpoint link again when a publish removed the
# file it named in between, before it reports the link as dangling
LOAD_TRIES = 5

# how a publish creates a checkpoint file: only under a name nothing has yet
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)


class FileCheckpointStore(_CheckpointStore):
    """One checkpoint per model in a directory: ``ckpt_<model_id>.bin`` is a
    symbolic link to the current ``ckpt_<model_id>.<step>.<random>.bin``.

    A publish writes the encoded checkpoint to a new file that no reader can
    reach yet (created with ``O_EXCL`` under a fresh random name, so an
    existing file is never overwritten), points a temporary link
    ``.ckpt_<model_id>.<step>.<random>.tmp`` at it, ``os.replace``s the link
    over ``ckpt_<model_id>.bin`` and unlinks the file the old link named. A
    store remembers the target it last published for each model, so only
    its first publish of a model resolves the old link (and so removes what
    an earlier store or run left there). That assumes one publishing store
    per model id per directory, which lockstep (one store) and concurrent
    mode (each group publishes only its own model) both guarantee. A
    concurrent reader sees the previous complete checkpoint or the new one,
    never a torn payload. No regular file is ever renamed over another: on
    ext4, renaming over an existing file forces writeback of the new one
    (``auto_da_alloc``). On the ext4 disk of a 2-vCPU virtual machine that
    rename took 153 us for a 36 KB checkpoint (median of 200), against 9 us
    to rename to a new name and 12 us to unlink; on tmpfs it took 11 us. The
    store promises atomic visibility and nothing about durability: it never
    calls ``fsync``.

    A load resolves the link once and reads the file it names; the link's
    target is the version the decode cache compares, so a file rewritten in
    place under a cached target is not read again. The version a store has
    just published is already decoded, so its own loads of it read no file.
    If a publish removed the file in between, the load resolves the link
    again, and after ``LOAD_TRIES`` tries a link that still dangles raises
    ``SerializationError``. So does a regular file at
    ``ckpt_<model_id>.bin``: no store writes one. The store owns the
    directory's layout: ``published`` and ``clear`` are how a run asks
    about and removes a model's files.
    """

    def __init__(self, directory, arch: Architecture, ledger: CommLedger | None = None):
        super().__init__(arch, ledger)
        self._root = os.fspath(directory)
        os.makedirs(self._root, exist_ok=True)
        self._published: dict[int, str] = {}  # model id -> the link's target

    def _link(self, model_id: int) -> str:
        return f"{self._root}/ckpt_{model_id}.bin"  # os.path.join costs a readlink

    def published(self, model_id: int) -> bool:
        """Whether the link of ``model_id`` names a file."""
        return os.path.exists(self._link(model_id))

    def clear(self, model_ids) -> None:
        """Remove every file of the models ``model_ids``: each link, its
        targets, and the temporary files and links a killed writer left."""
        prefixes = tuple(p for i in model_ids for p in (f"ckpt_{i}.", f".ckpt_{i}."))
        for name in os.listdir(self._root):
            if name.startswith(prefixes):
                os.unlink(os.path.join(self._root, name))

    def _write(self, model_id: int, step: int, data: bytes) -> str:
        link = self._link(model_id)
        while True:
            stem = f"ckpt_{model_id}.{step}.{os.urandom(4).hex()}"
            name = stem + ".bin"
            target = os.path.join(self._root, name)
            try:
                fd = os.open(target, _NEW_FILE, 0o600)
                break
            except FileExistsError:
                continue  # never overwrite: draw another name
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            old = self._published.get(model_id)
            if old is None:
                try:
                    old = os.readlink(link)
                except OSError as err:  # nothing published yet, or a regular file
                    if err.errno not in (errno.ENOENT, errno.EINVAL):
                        raise
            tmp = os.path.join(self._root, f".{stem}.tmp")
            os.symlink(name, tmp)
            try:
                os.replace(tmp, link)
            except BaseException:
                os.unlink(tmp)
                raise
        except BaseException:
            os.unlink(target)
            raise
        self._published[model_id] = name
        if old is not None and old != name:
            try:
                os.unlink(os.path.join(self._root, old))
            except FileNotFoundError:
                pass
        return name

    def _read(self, model_id: int, known) -> tuple[str, bytes | None] | None:
        link = self._link(model_id)
        for _ in range(LOAD_TRIES):
            try:
                target = os.readlink(link)
            except FileNotFoundError:
                return None
            except OSError as err:
                if err.errno != errno.EINVAL:
                    raise
                raise SerializationError(f"checkpoint of model {model_id}: {link} is not "
                                         "a symbolic link") from None
            if target == known:
                return target, None
            try:
                with open(os.path.join(self._root, target), "rb") as f:
                    return target, f.read()
            except FileNotFoundError:
                continue  # a publish removed it since the link was resolved
        raise SerializationError(f"checkpoint of model {model_id}: {link} links to missing "
                                 f"{target} after {LOAD_TRIES} tries")


@dataclass(frozen=True)
class GroupConfig:
    """One synchronous worker group: W workers of per-worker batch B. Its
    ``loss`` must be the plain hard loss, ``CombinedLossSpec()``: a
    distillation term is the training loop's teacher source's to add."""

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
        if self.loss.distill != "none":
            raise ValueError(f"loss must be the plain hard loss, not {self.loss.distill!r}: "
                             "the teacher source sets the distillation term")


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
    """One deterministic index stream per worker, derived from the group seed."""
    return [batch_stream(shard, group.batch_size, np.random.SeedSequence([group.seed, w]))
            for w in range(group.n_workers)]


class GroupRunner:
    """One synchronous worker group: its shard's source arrays, W index
    streams, ledger entity and step count, and its parameters between
    training loops.

    The W replicas stay bit-identical by construction: the worker-averaged
    gradient of synchronous SGD equals a single pass over the worker-order
    concatenation of the W per-worker minibatches, and that is how it is
    computed. The ledger is still charged the logical allreduce cost of
    2 * W * param_bytes per step. A shard smaller than the batch, or whose
    inputs ``nn`` would refuse, is refused here, before any training or
    evaluation, so a step checks no batch.
    """

    def __init__(self, arch: Architecture, group: GroupConfig, shard, *,
                 ledger: CommLedger | None = None, entity: str = "group0"):
        if group.batch_size > shard.n:
            raise ValueError(f"batch_size must be at most the shard's {shard.n} examples, "
                             f"not {group.batch_size}")
        _validate_inputs(arch, shard.source_inputs)
        self.arch = arch
        self.group = group
        self.params = init_params(arch, group.seed)
        self._source = shard.source_inputs, shard.source_labels
        self.streams = worker_streams(shard, group)
        B = group.batch_size
        self._blocks = [slice(w * B, (w + 1) * B) for w in range(group.n_workers)]
        self.ledger = ledger if ledger is not None else CommLedger()
        self.entity = entity
        self.step_index = 0

    def step_batches(self, x: np.ndarray, y: np.ndarray) -> None:
        """Gather this group's share of the next lockstep step from the source
        into its (W * B) rows of the step's buffers ``x`` and ``y``: worker
        w's rows into [w * B, (w + 1) * B), narrow ids cast to int64."""
        inputs, labels = self._source
        for block, stream in zip(self._blocks, self.streams):
            idx = next(stream)
            x[block] = inputs[idx]
            y[block] = labels[idx]

    def _snapshot(self, train_loss: float | None) -> tuple:
        """This group's part of an evaluation point, read now: run id, step,
        train loss and ledger totals, all that ``_point_records`` needs
        besides the parameters."""
        sync = (self.ledger.total("gradient_exchange", self.entity)
                + self.ledger.total("parameter_broadcast", self.entity))
        ckpt = (self.ledger.total("checkpoint_publish", self.entity)
                + self.ledger.total("checkpoint_load", self.entity))
        return self.entity, self.step_index, train_loss, sync, ckpt


# what the groups of one stack must share, as one step runs them all; and
# every group's own loss, a step's whole loss when it is given no spec
_LOCKSTEP_FIELDS = ("n_workers", "batch_size", "optimizer")
_HARD_LOSS = CombinedLossSpec()


class _Stack:
    """The N groups of one training loop, trained as one.

    Their parameters and optimizer state are (N, P) arrays, row i being
    runner i's. A step runs once over the leading model axis: one forward,
    one combined loss, one backward over the N students and one elementwise
    optimizer update with its one finiteness scan. The stack takes the
    runners' parameters (theirs are None meanwhile) and starts fresh
    optimizer state; ``unstack`` hands copies of the final parameters back.

    It holds the teacher of every step given a loss spec, in the form set
    last. With ``per_student`` k > 0 that may be T = N * k teacher rows
    (``set_teachers``): rows [i * k, (i + 1) * k) are student i's teachers
    in model order (peers' stale checkpoints, or a frozen ensemble). A step
    runs them in the students' forward, over M = N + T rows, each teacher
    row fed its student's batch; ``_teacher_mean`` then turns their logits
    into each student's mean prediction in place. Or it is a constant (K,)
    distribution (``set_signal``), held as one read-only (N, R, K) view.

    Everything a step touches is built once, with the stack: one (M, P)
    parameter buffer, the student rows followed by the teacher rows, whose
    student rows the optimizer updates in place (``optim.step``'s buffer
    form, with an (N, P) scratch array and the gradient for its
    temporaries), so ``set_teachers`` writes the teacher rows once; an
    ``nn.Plan`` for the M-row pass, into whose input buffer each group's
    ``step_batches`` gathers its rows, with the gradient over the N students,
    whose backward runs in the teacher rows' spent activations (``nn.Plan``);
    one ``nn.Pass`` per pass length, holding every per-layer view; the
    (N, R) label buffer and a ``losses.LossPlan``. So a ``Parameters`` from
    ``params`` is a view that the next step overwrites: a publish or an
    evaluation point consumes it at once, and whatever outlives the step is
    copied.
    """

    def __init__(self, runners, per_student: int = 0):
        first = runners[0].group
        for k, r in enumerate(runners[1:], 1):
            for name in _LOCKSTEP_FIELDS:
                if getattr(r.group, name) != getattr(first, name):
                    raise ValueError(f"{name} must be equal across lockstep groups "
                                     f"(group {k} differs from group 0)")
        N, R = len(runners), first.n_workers * first.batch_size  # R: each group's rows
        M = N * (1 + per_student)
        self.runners = runners
        self.arch = arch = runners[0].arch
        self.group = first
        self._rows = np.empty((M, param_count(arch)))  # N student rows, then T teacher rows
        self.values = np.stack([r.params.values for r in runners], out=self._rows[:N])
        self._scratch = np.empty(self.values.shape)
        self.opt_state = optim.init_state(first.optimizer, self.values.shape)
        plan = Plan(arch, M, R, n_grad=N)
        self._pass = Pass(plan, self._rows, N)  # the students alone
        self._whole_pass = Pass(plan, self._rows) if per_student else None
        self._inputs = plan.inputs
        self._x = plan.inputs[:N]
        self._labels = np.empty((N, R), np.int64)
        self._feeds = [(r, self._x[i], self._labels[i]) for i, r in enumerate(runners)]
        self._logits = plan.outputs[-1][:N]
        if per_student:
            self._teacher_inputs = plan.inputs[N:].reshape((N, per_student) + plan.inputs.shape[1:])
            self._student_inputs = self._x[:, None]
            self._teacher_logits = plan.outputs[-1][N:].reshape(N, per_student, R,
                                                               arch.output_dim)
            self._mean = np.empty((N, R, arch.output_dim))
        self._signal = None
        self._loss_plan = LossPlan((N, R, arch.output_dim))
        charges: dict[CommLedger, list] = {}
        for r in runners:
            charges.setdefault(r.ledger, []).extend(
                (r.entity, cause) for cause in ("gradient_exchange", "parameter_broadcast"))
        self._charges = list(charges.items())
        self._sync_bytes = first.n_workers * param_count(arch) * 8
        for r in runners:  # held here, not twice, until unstack
            r.params = None

    def params(self, row: int) -> Parameters:
        return Parameters(self.arch, self.values[row])

    def set_teachers(self, rows) -> None:
        """Write the (T, P) teacher rows, the teacher from now on."""
        np.stack(rows, out=self._rows[len(self.runners):])
        self._signal = None

    def set_signal(self, target: np.ndarray) -> None:
        """Make the constant (K,) ``target`` every row's teacher from now on."""
        self._signal = np.broadcast_to(target, self._logits.shape)

    def step(self, spec: CombinedLossSpec | None = None) -> list[float]:
        """One synchronous step of every group; returns their losses.

        ``spec`` is None (hard loss only) or the loss spec toward the teacher
        the stack holds: its signal, or else the mean prediction of its
        teacher rows. Label, token and teacher-probability ranges, the logit
        gradient's and the gradient's finiteness are checked every step. A
        group whose loss is non-finite or past the abort threshold raises
        ``DivergenceError`` before any group is updated.
        """
        self._feed()
        if spec is None:
            spec, teacher = _HARD_LOSS, None
            self._pass.forward(self._x)
        elif self._signal is None:
            self._teacher_inputs[...] = self._student_inputs
            self._whole_pass.forward(self._inputs)
            teacher = _teacher_mean(self._teacher_logits, spec.distill, self._mean)
        else:
            teacher = self._signal
            self._pass.forward(self._x)
        losses, dlogits = combined_loss(spec, self._labels, self._logits, teacher,
                                        self._loss_plan)
        losses = losses.tolist()
        for r, loss in zip(self.runners, losses):
            if not math.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
                raise DivergenceError(r.step_index, f"loss {loss} at step {r.step_index}")
        grad = self._pass.backward(self._x, dlogits)
        _, self.opt_state = optim.step(self.group.optimizer, self.opt_state, self.values, grad,
                                       scratch=self._scratch)
        for ledger, keys in self._charges:
            ledger.add_each(keys, self._sync_bytes)
        for r in self.runners:
            r.step_index += 1
        return losses

    def _feed(self) -> None:
        """Each group's ``step_batches``, gathering its rows of the input and
        label buffers."""
        for r, x, y in self._feeds:
            r.step_batches(x, y)

    def unstack(self) -> None:
        for row, r in enumerate(self.runners):
            r.params = Parameters(self.arch, self.values[row].copy())


def _point_records(validation: Batch, t0: float, after_eval, plan: Plan, step: int,
                   values: np.ndarray, members) -> list[MetricRecord]:
    """One evaluation point's records: each group's, from its row of the
    (N, P) ``values`` and its ``GroupRunner._snapshot``, stamped with the time
    its validation pass finished, then ``after_eval``'s, if given.

    Every model is validated through ``plan``, the loop's one forward-only
    plan over the validation rows, so a point allocates none of its layer
    outputs. Runs inline in the training process or in its evaluator
    process; either way ``evaluate`` is this module's global, so a patch
    made before the loop reaches it, and ``time.perf_counter`` is the same
    clock in both. ``values`` is a buffer rewritten after the call, so with
    ``after_eval``, which may keep its parameters, they are built on a copy.
    """
    if after_eval is not None:
        values = values.copy()
    params = [Parameters(plan.arch, row) for row in values]
    new = []
    for p, (run_id, group_step, train_loss, sync, ckpt) in zip(params, members):
        val_loss, val_acc = evaluate(p, validation, plan)
        new.append(MetricRecord(run_id=run_id, step=group_step,
                                wall_seconds=time.perf_counter() - t0,
                                train_loss=train_loss, validation_loss=val_loss,
                                validation_accuracy=val_acc,
                                bytes_grad_exchange=sync, bytes_checkpoint=ckpt))
    if after_eval is not None:
        return new + [after_eval(step, new, params, t0)]
    return new


def _portable(err: BaseException) -> BaseException:
    """``err`` if it crosses ``pickle`` intact, else a ``RuntimeError`` naming
    its class and message: how an error leaves a forked process."""
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


def _fork(name: str, target, *args):
    """Start ``target(conn, *args)`` in a forked process and return it with
    the parent's end of one pipe, ``conn`` being the child's end.

    The child ignores ``SIGINT``, which reaches the whole process group on
    Ctrl-C: the parent decides when it stops. Each side closes the other's
    end (here before any later fork can inherit it), so either's death, even
    by ``SIGKILL``, reads as end of file on the other.
    """
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()

    def child():
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        conn.close()
        target(child_end, *args)

    proc = ctx.Process(target=child, name=name, daemon=True)
    proc.start()
    child_end.close()
    return proc, conn


def _reap(proc, deadline: float) -> RuntimeError:
    """Join ``proc`` until ``deadline`` (``time.monotonic``), kill it if it is
    still alive, and return the error naming it for ending without a result."""
    proc.join(max(0.0, deadline - time.monotonic()))
    if proc.is_alive():
        proc.kill()
        proc.join()
    return RuntimeError(f"the {proc.name} ended without a result (exit code {proc.exitcode})")


def _evaluator(conn, point_records, new_plan, slot: np.ndarray) -> None:
    """Body of a lockstep training loop's evaluator process (``_fork``).

    Each message is one evaluation point, ``(step, members)``, whose (N, P)
    values the parent wrote to ``slot``, memory the two processes share:
    ``point_records`` (``_point_records`` bound to the loop) turns them into
    the reply, ``(records, None)`` or ``([], error)``, through the one
    validation plan ``new_plan()`` builds here, after the fork, so its pages
    are this process's alone. It ends on a None message or at end of file,
    so the parent's death ends it too.
    """
    plan = new_plan()
    try:
        while (point := conn.recv()) is not None:
            try:
                step, members = point
                reply = point_records(plan, step, slot, members), None
            except Exception as err:
                reply = [], _portable(err)
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is gone


def _train_loop(runners, n_steps: int, validation: Batch, eval_every: int, records: list,
                teachers=None, *, after_eval=None, stop=None) -> None:
    """The one training loop; each training mode is a different ``teachers``.

    The runners train as one ``_Stack``, so they must agree on
    ``_LOCKSTEP_FIELDS``; the stack holds ``teachers.per_student`` teacher
    rows per runner. At every global step ``teachers(s, stack)`` sets the
    stack's teacher when it changes and gives None (hard loss only) or the
    loss spec for the whole stack, which then takes one step. Every runner
    is evaluated at step 0, every ``eval_every`` steps and the final step,
    and the records are appended to the caller's ``records``, in model
    order; a record's train loss is the mean objective since the previous
    one. After each evaluation, ``after_eval(step, new_records, params,
    t0)`` returns one more record to append, given that point's parameters
    of every runner. When ``stop()`` is true the loop ends before the next
    step; a loop given ``stop`` runs in a concurrent-mode group process.
    There is no per-step hook: with ``eval_every=1`` each record's train
    loss is that one step's loss. When the loop ends without an error, each
    runner holds its final parameters.

    An evaluation point snapshots each runner's step, train loss and ledger
    totals (``GroupRunner._snapshot``) beside the stack's (N, P) parameters,
    and ``_point_records`` turns them into records. Validation runs one
    model at a time through one forward-only ``nn.Plan`` over the validation
    rows, built once by the process that validates, so its memory does not
    grow with N and a point allocates no layer outputs. A ``validation``
    batch that gathers its rows on first read (``Dataset.as_batch`` of a
    view) gathers them in that process too: before the fork the loop reads
    only its ``size``. With at least 2 CPUs the loop forks one evaluator
    process (``_evaluator``) and hands it each point while training goes
    on, at most one point in flight: the loop takes back point k-1's
    records before it copies point k's parameters into the
    (N, P) slot the two processes share, mapped before the fork, and sends
    the step and snapshots over the pipe; the last point's records come
    back before it returns. So the slot is never rewritten while the
    evaluator reads it. Group processes, and processes with one CPU,
    call ``_point_records`` inline at the same place. Either way the records
    are the same, and no process outlives the call: the evaluator is told to
    stop, and killed after ``EVALUATOR_STOP_S``. Any exception leaves with
    the records made before it attached as ``err.records``: the evaluator's
    own with its class, or as a ``RuntimeError`` if it does not pickle
    (``_portable``), and the evaluator's death as a ``RuntimeError`` naming
    its exit code.
    """
    stack = _Stack(runners, 0 if teachers is None else teachers.per_student)
    t0 = time.perf_counter()
    windows: list[list[float]] = [[] for _ in runners]
    # group processes already fill the cores, and a killed one must keep its
    # last evaluation's records; on one CPU an evaluator only adds handoffs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    point_records = functools.partial(_point_records, validation, t0, after_eval)
    new_plan = functools.partial(Plan, stack.arch, 1, validation.size, n_grad=0)
    evaluator = conn = plan = None
    if stop is None and cpus >= 2:
        slot = np.frombuffer(mmap.mmap(-1, stack.values.nbytes),
                             dtype=np.float64).reshape(stack.values.shape)
        evaluator, conn = _fork("evaluator process", _evaluator, point_records, new_plan, slot)
    else:
        plan = new_plan()
    in_flight = False  # whether the evaluator holds a point not yet taken back

    def dead() -> RuntimeError:
        return _reap(evaluator, time.monotonic() + EVALUATOR_STOP_S)

    def drain(reraise: bool = True) -> None:
        """Take back the point in flight's records, and re-raise its error."""
        nonlocal in_flight
        if not in_flight:
            return
        in_flight = False
        try:
            new, error = conn.recv()
        except (EOFError, OSError):
            new, error = [], dead()
        records.extend(new)
        if error is not None and reraise:
            raise error

    def emit(step: int) -> None:
        nonlocal in_flight
        members = [r._snapshot(float(np.mean(w)) if w else None)
                   for r, w in zip(runners, windows)]
        for w in windows:
            w.clear()
        drain()
        if evaluator is None:
            records.extend(point_records(plan, step, stack.values, members))
            return
        np.copyto(slot, stack.values)
        try:
            conn.send((step, members))
        except OSError:
            raise dead() from None
        in_flight = True

    try:
        emit(0)
        for s in range(n_steps):
            if stop is not None and stop():
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
        if evaluator is not None:
            try:
                conn.send(None)
            except OSError:
                pass  # already gone
            _reap(evaluator, time.monotonic() + EVALUATOR_STOP_S)
            conn.close()
    stack.unstack()


class _StaticTeachers:
    """Teacher source of a frozen teacher: the same loss spec at every step,
    toward the teacher it gives the stack at step 0 of each loop. ``teacher``
    is a (K,) target array, label smoothing's constant teacher, held as the
    stack's signal; or the ``Parameters`` of a frozen ensemble, held as its
    k = ``per_student`` teacher rows, whose mean prediction runs in the
    student's forward (a stack of one). With the term off (``distill``
    "none" or weight 0) it holds no teacher and gives None at every step."""

    def __init__(self, teacher, distill: str, distill_weight: float):
        self.spec, self.teacher, self.per_student = None, None, 0
        if distill == "none" or distill_weight == 0.0:
            return
        self.spec = CombinedLossSpec(distill, distill_weight)
        if isinstance(teacher, np.ndarray):
            self.teacher = teacher
        else:
            self.teacher, self.per_student = np.stack([p.values for p in teacher]), len(teacher)

    def __call__(self, s: int, stack: _Stack):
        if s == 0 and self.spec is not None:
            (stack.set_teachers if self.per_student else stack.set_signal)(self.teacher)
        return self.spec


def _teacher_mean(logits: np.ndarray, distill: str, out: np.ndarray | None = None) -> np.ndarray:
    """Each of S students' mean teacher prediction, (S, R, K), from its k
    teachers' (S, k, R, K) logits, in model order: probabilities for
    soft_cross_entropy / kl_divergence (the softmax overwrites the logits),
    logits for logit_mse. The k predictions are summed in model order and
    divided by k, the arithmetic of one teacher at a time; into ``out`` if
    given."""
    if distill != "logit_mse":
        softmax(logits, out=logits)
    k = logits.shape[1]
    acc = logits[:, 0]
    for j in range(1, k):
        acc = np.add(acc, logits[:, j], out=out)
    return np.divide(acc, k, out=out)


class _PeerTeachers:
    """Teacher source of codistillation: after burn-in each group distills
    toward the mean prediction of its N-1 peers.

    ``ids`` are the models the loop steps, row k of its stack being model
    ``ids[k]`` (all N in lockstep; one in a concurrent-mode group process).
    On every reload boundary they publish their checkpoints, then load their
    peers' latest ones from the store into the stack's teacher rows
    (``per_student`` = N-1 per model it steps), which then run in the
    students' forward. Given ``stop(timeout)``, a group in its own process
    first waits for its peers' first checkpoints, for at most
    ``START_TIMEOUT_S`` and only until its parent stops it. ``lags[i]`` is
    the largest gap between a step of group i and its oldest teacher.
    """

    def __init__(self, cfg: CodistillConfig, runners, store, ids=None, stop=None):
        self.cfg = cfg
        self.runners = runners
        self.store = store
        self.ids = list(range(len(runners))) if ids is None else list(ids)
        self.stop = stop
        self.active = cfg.distill != "none" and cfg.distill_weight > 0.0
        self.per_student = len(runners) - 1 if self.active else 0
        self.spec = CombinedLossSpec(cfg.distill, cfg.distill_weight)
        # loaded[i] maps peer id -> the step of group i's loaded checkpoint of it
        self.loaded: list[dict[int, int]] = [{} for _ in runners]
        self.oldest = [0] * len(runners)  # min(loaded[i].values())
        self.lags = [0] * len(runners)

    def __call__(self, s: int, stack: _Stack):
        if s % self.cfg.reload_interval == 0:
            for row, i in enumerate(self.ids):
                self.store.publish(Checkpoint(i, s, stack.params(row), self.cfg.float32_payload),
                                   entity=self.runners[i].entity)
            if s == 0 and self.stop is not None:
                self._await_first_checkpoints()
            rows = []
            for i in self.ids:
                for j in range(len(self.runners)):
                    if j != i:
                        values, self.loaded[i][j] = self._load(i, j)
                        rows.append(values)
                self.oldest[i] = min(self.loaded[i].values())
            if self.active:
                stack.set_teachers(rows)
        if not self.active or s < self.cfg.n_burn_in:
            return None
        for i in self.ids:
            self.lags[i] = max(self.lags[i], s - self.oldest[i])
        return self.spec

    def _await_first_checkpoints(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        missing = [j for j in range(len(self.runners)) if j not in self.ids]
        while True:
            missing = [j for j in missing if not self.store.published(j)]
            if not missing:
                return
            if self.stop(0.005):  # waits up to 5 ms for the parent's message
                raise _PeerStopped("stopped while waiting for peer checkpoints")
            if time.monotonic() > deadline:
                raise RuntimeError(f"model {missing[0]} published no first checkpoint "
                                   f"within {START_TIMEOUT_S} s")

    def _load(self, i: int, j: int) -> tuple[np.ndarray, int]:
        ck = self.store.load_latest(j, entity=self.runners[i].entity)
        if ck is None:
            raise RuntimeError(f"missing peer checkpoint for model {j}")
        return ck.params.values, ck.step


def train_baseline(arch: Architecture, group: GroupConfig, shard, n_steps: int,
                   validation: Batch, eval_every: int = 100, *,
                   ledger: CommLedger | None = None, run_id: str = "baseline"):
    """Synchronous-SGD training of a single group.

    Evaluates at step 0, every ``eval_every`` steps, and the final step; the
    recorded train loss is the mean objective since the previous record.
    Fully deterministic given the config seed. Raises DivergenceError (with
    the records so far attached) if the loss goes non-finite or past the
    abort threshold.
    """
    runner = GroupRunner(arch, group, shard, ledger=ledger, entity=run_id)
    records: list[MetricRecord] = []
    _train_loop([runner], n_steps, validation, eval_every, records)
    return runner.params, records


def mean_teacher_fn(teacher_params, distill: str):
    """Average prediction of the given models on one batch, in the form the
    loss expects: one forward over all of them, then ``_teacher_mean``, as a
    stack of one student with these teacher rows computes it in its step.

    Probabilities for soft_cross_entropy / kl_divergence, logits for
    logit_mse; fixed model order keeps the float reduction deterministic.
    """
    teacher_params = list(teacher_params)
    if not teacher_params:
        raise ValueError("need at least one teacher")
    arch, k = teacher_params[0].arch, len(teacher_params)
    values = np.stack([p.values for p in teacher_params])

    def fn(batch: Batch) -> np.ndarray:
        _validate_inputs(arch, batch.inputs)
        plan = Plan(arch, k, batch.size, n_grad=0)
        plan.inputs[...] = batch.inputs
        logits = Pass(plan, values).forward(plan.inputs)
        return _teacher_mean(logits[None], distill)[0]

    return fn


def _peer_runners(arch: Architecture, cfg: CodistillConfig, groups, shards, store,
                  ledger: CommLedger | None, run_id_prefix: str) -> list[GroupRunner]:
    """One runner per model after validating the codistillation arguments,
    each charging the run's one ledger: ``ledger``, else the store's, else a
    fresh one. A store with no ledger counts no checkpoint bytes."""
    if len(groups) != cfg.n_models or len(shards) != cfg.n_models:
        raise ValueError("need one group config and one shard per model")
    if len({g.seed for g in groups}) != cfg.n_models:
        raise ValueError("group seeds must be distinct")
    ledger = ledger or store._ledger or CommLedger()
    if store._ledger not in (None, ledger):
        raise ValueError("the store charges another ledger than the run's")
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
    runners = _peer_runners(arch, cfg, groups, shards, store, ledger, run_id_prefix)
    teachers = _PeerTeachers(cfg, runners, store)
    records: list[MetricRecord] = []
    _train_loop(runners, n_steps, validation, eval_every, records, teachers)
    return CodistillResult([r.params for r in runners], records, max(teachers.lags))


class _PeerStopped(RuntimeError):
    """A group stopped because a peer failed; the peer's error is the one to report."""


class _Reporter:
    """Stands in for a group process's record list: each batch of records
    goes to the parent as one ``(records, None)`` message."""

    def __init__(self, conn):
        self.conn = conn

    def extend(self, records) -> None:
        self.conn.send((records, None))


def _group_process(conn, earlier, i: int, cfg: CodistillConfig, runners, store, n_steps: int,
                   validation: Batch, eval_every: int) -> None:
    """Body of group i's process (``_fork``): train, sending the parent
    ``(records, None)`` at each evaluation and ``([], result)`` when it ends.

    A message from the parent, or end of file, stops the group before its
    next step and while it waits for its peers' first checkpoints: both
    checks ask one ``select.poll`` with the pipe registered, which, unlike
    ``conn.poll``, builds no selector per call. Closing ``earlier``, the
    parent's ends of earlier groups' pipes, leaves the parent the only
    holder of each. The runner charges one fresh ledger, and so does the
    store if the parent's charged one; its counts go back in the result.
    """
    for peer_conn in earlier:
        peer_conn.close()
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)

    def stop(timeout: float = 0.0) -> bool:
        """Whether the parent sent a message or is gone, waiting up to ``timeout`` s."""
        return bool(poller.poll(timeout * 1000.0))

    runner, teachers = runners[i], _PeerTeachers(cfg, runners, store, [i], stop)
    ledger = runner.ledger = CommLedger()
    store._ledger = None if store._ledger is None else ledger
    error = None
    try:
        _train_loop([runner], n_steps, validation, eval_every, _Reporter(conn), teachers,
                    stop=stop)
    except BaseException as err:  # handed to the parent, which re-raises it
        err.records = []  # the parent attaches them; a _Reporter does not pickle
        error = _portable(err)
    result = {"params": runner.params.values if error is None else None, "lag": teachers.lags[i],
              "ledger": ledger._counts, "error": error}
    try:
        conn.send(([], result))
    except OSError:
        pass  # the parent is gone


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

    The run's checkpoint files, the only files a run keeps in the directory,
    are cleared first; each group reports over a pipe (``_group_process``).
    The ledger counts of every group that finished are added to the run's
    ledger (see ``_peer_runners``). The first group to fail (raise, or die
    without a result) stops its peers before their next step, and its error
    is re-raised, with its original class and message, carrying every group's
    records in model-id order. No process outlives the call or the caller's
    process.
    """
    if not isinstance(store, FileCheckpointStore):
        raise ValueError("concurrent mode needs a FileCheckpointStore: its directory is "
                         "the group processes' only shared state")
    if cfg.n_models > MAX_GROUP_PROCESSES:
        raise ValueError(f"concurrent mode runs one process per model, at most "
                         f"{MAX_GROUP_PROCESSES}, not {cfg.n_models}")
    runners = _peer_runners(arch, cfg, groups, shards, store, ledger, run_id_prefix)
    n = cfg.n_models
    store.clear(range(n))
    procs = []
    running = {}  # the parent's end of each pipe still open -> its model id
    records: list[list[MetricRecord]] = [[] for _ in range(n)]
    results: list[dict | None] = [None] * n
    failures: list[BaseException] = []  # in the order the parent saw them
    deadline = None  # set by the first failure or the end: the groups' time to stop

    def stop() -> None:
        nonlocal deadline
        deadline = deadline or time.monotonic() + START_TIMEOUT_S
        for conn in running:
            try:
                conn.send(None)
            except OSError:
                pass  # that group has ended; its end of file is read next

    try:
        for i in range(n):
            proc, conn = _fork(f"process of model {i}", _group_process, list(running), i, cfg,
                               runners, store, n_steps, validation, eval_every)
            procs.append(proc)
            running[conn] = i
        while running:
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = multiprocessing.connection.wait(list(running), timeout)
            if not ready:
                break  # the rest are killed below
            for conn in ready:
                i = running[conn]
                try:
                    new, result = conn.recv()
                except (EOFError, OSError):
                    new, result = [], {"ledger": {}, "error": _reap(
                        procs[i], time.monotonic() + EVALUATOR_STOP_S)}
                records[i] += new
                if result is None:
                    continue
                del running[conn]
                conn.close()
                results[i] = result
                if result["error"] is not None:
                    failures.append(result["error"])
                    stop()
    finally:
        stop()
        for proc in procs:
            _reap(proc, deadline)
        for conn in running:
            conn.close()
    for result in results:
        for (entity, cause), nbytes in (result["ledger"] if result is not None else {}).items():
            runners[0].ledger.add(entity, cause, nbytes)
    records = [rec for group_records in records for rec in group_records]
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
                _StaticTeachers(teacher_params, distill, distill_weight))
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
