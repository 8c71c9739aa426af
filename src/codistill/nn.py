"""Minimal dense-network core.

Deterministic parameter initialization, forward pass, analytic backward pass,
and a binary checkpoint codec for the flat parameter vector. Two task heads
share the same machinery: a vector-input classifier and a fixed-context-window
next-token predictor (embedding lookup feeding an MLP over the concatenated
context). All arithmetic is float64.

The network kernel (``forward_trace`` and ``ForwardTrace.grad``) runs a stack
of M models over a leading model axis: parameters (M, P), inputs (M, R, ...),
logits (M, R, K), gradient (M, P). Each layer is one ``np.matmul``, which
makes the same BLAS call on every model's 2-D slice, and the lm embedding
gradient is one ``np.bincount``, which adds in the order ``np.add.at`` does,
so each model's result is bit-identical to running it alone.
``stack_logits`` is the same pass keeping no activations, for teachers and
validation. ``forward``, ``predict_proba`` and ``backward`` take one
``Parameters`` and one ``Batch``: a stack of one.

The training pass has two forms and one body. Given a ``Plan``, the
buffers for one shape of pass built once, ``forward_trace`` and
``ForwardTrace.grad`` write every activation, mask, delta, gradient and the
logits into it, so a training loop allocates nothing per pass for them, and
each result holds until the plan's next pass. Without one (the pure form,
and ``stack_logits`` always) each numpy call allocates its result, as a
plan with no buffers; the float operations, their operands and their order
are the same either way, so both forms give the same bits. Every other function here is pure, and
``softmax`` writes to an ``out`` only when given one.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CHECKPOINT_MAGIC = b"CODL"
CHECKPOINT_VERSION = 1

# magic, format version, arch fingerprint, step, model id, payload dtype flag,
# parameter count; little-endian, no padding (35 bytes total).
_HEADER = struct.Struct("<4sHQQIBQ")

TASK_CLASSIFICATION = "classification"
TASK_LM = "lm_fixed_context"


class SerializationError(ValueError):
    """Base class for checkpoint encode/decode failures."""


class CorruptHeaderError(SerializationError):
    pass


class FingerprintMismatchError(SerializationError):
    pass


class TruncatedPayloadError(SerializationError):
    pass


@dataclass(frozen=True)
class Architecture:
    """Shape of one model replica.

    ``task`` selects the head: ``classification`` consumes float vectors of
    width ``input_dim``; ``lm_fixed_context`` consumes ``context_window``
    token ids, embeds them and feeds the concatenation to the MLP, so it must
    satisfy ``input_dim == context_window * embedding_dim`` and
    ``output_dim == vocab_size``.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    task: str = TASK_CLASSIFICATION
    context_window: int | None = None
    vocab_size: int | None = None
    embedding_dim: int | None = None

    def __post_init__(self):
        # every message starts with the field it is about; the lm fields are
        # checked before input_dim, which they determine
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.task == TASK_LM:
            for name in ("context_window", "vocab_size", "embedding_dim"):
                v = getattr(self, name)
                if v is None or int(v) != v or v < 1:
                    raise ValueError(f"{name} must be a positive integer for the lm task")
        for name in ("input_dim", "output_dim"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
            object.__setattr__(self, name, int(v))
        if self.task == TASK_LM:
            if self.input_dim != self.context_window * self.embedding_dim:
                raise ValueError(
                    "input_dim must equal context_window * embedding_dim for the lm task "
                    f"({self.input_dim} != {self.context_window} * {self.embedding_dim})"
                )
            if self.output_dim != self.vocab_size:
                raise ValueError("output_dim must equal vocab_size for the lm task")
        elif self.task == TASK_CLASSIFICATION:
            if any(getattr(self, n) is not None for n in ("context_window", "vocab_size", "embedding_dim")):
                raise ValueError("context_window, vocab_size and embedding_dim are lm-only fields")
        else:
            raise ValueError(f"task {self.task!r} is unknown")

    def fingerprint(self) -> int:
        """Stable 64-bit hash over every field (process-independent); the
        hidden layers' activation, always relu, is part of the key."""
        key = repr((self.input_dim, self.hidden_dims, self.output_dim, "relu",
                    self.task, self.context_window, self.vocab_size, self.embedding_dim))
        return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


@lru_cache(maxsize=None)
def _layout(arch: Architecture) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Canonical (name, shape) sequence defining the flat parameter order.

    Embedding table first (lm only), then per linear layer its weight matrix
    followed by its bias vector.
    """
    entries = []
    if arch.task == TASK_LM:
        entries.append(("embed", (arch.vocab_size, arch.embedding_dim)))
    dims = (arch.input_dim,) + arch.hidden_dims + (arch.output_dim,)
    for i in range(len(dims) - 1):
        entries.append((f"w{i}", (dims[i], dims[i + 1])))
        entries.append((f"b{i}", (dims[i + 1],)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _slices(arch: Architecture) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """``_layout`` with each entry's (start, stop) range in the flat vector."""
    out = []
    offset = 0
    for name, shape in _layout(arch):
        size = math.prod(shape)
        out.append((name, shape, offset, offset + size))
        offset += size
    return tuple(out)


@lru_cache(maxsize=None)
def param_count(arch: Architecture) -> int:
    return _slices(arch)[-1][3]


@dataclass(frozen=True)
class Parameters:
    """Flat float64 parameter vector of one replica, tied to its Architecture.

    The values array is frozen at construction (pass a copy if you need to
    keep writing to yours); replicas and teacher caches can therefore share
    it safely.
    """

    arch: Architecture
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("parameter values must be a flat vector")
        if v.size != param_count(self.arch):
            raise ValueError(
                f"parameter count {v.size} does not match architecture ({param_count(self.arch)})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite parameter values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass
class Batch:
    """One minibatch: float features for classification, int token ids for lm."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.labels) != self.inputs.shape[0]:
            raise ValueError("inputs must be (B, d) with one label per row")
        if self.inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one example")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def init_params(arch: Architecture, seed: int) -> Parameters:
    """Scaled-normal weight init, zero biases; bit-identical per (arch, seed).

    Hidden layers use std sqrt(2/fan_in), the output layer sqrt(1/fan_in),
    the embedding table unit std (it plays the role of the input features).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    layout = _layout(arch)
    n_linear = sum(1 for name, _ in layout if name.startswith("w"))
    parts = []
    linear_index = 0
    for name, shape in layout:
        if name == "embed":
            parts.append(rng.standard_normal(shape).ravel())
        elif name.startswith("w"):
            fan_in = shape[0]
            last = linear_index == n_linear - 1
            std = np.sqrt((1.0 if last else 2.0) / fan_in)
            parts.append((rng.standard_normal(shape) * std).ravel())
            linear_index += 1
        else:
            parts.append(np.zeros(shape))
    return Parameters(arch, np.concatenate(parts))


def _views(arch: Architecture, values: np.ndarray) -> dict[str, np.ndarray]:
    """Each parameter tensor as a view; ``values`` is one flat vector or a
    stack of them, ``(M, P)``, whose leading axis every view keeps."""
    lead = values.shape[:-1]
    return {name: values[..., start:stop].reshape(lead + shape)
            for name, shape, start, stop in _slices(arch)}


def _validate_inputs(arch: Architecture, x: np.ndarray) -> None:
    if arch.task == TASK_LM:
        if x.shape[-1] != arch.context_window:
            raise ValueError(f"expected {arch.context_window} context tokens, got {x.shape[-1]}")
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError("lm inputs must be integer token ids")
        if x.min() < 0 or x.max() >= arch.vocab_size:
            raise ValueError("token id out of range")
    else:
        if x.shape[-1] != arch.input_dim:
            raise ValueError(f"expected input_dim {arch.input_dim}, got {x.shape[-1]}")


def _embedding_grad(tokens: np.ndarray, dinput: np.ndarray, vocab_size: int,
                    flat: np.ndarray | None = None) -> np.ndarray:
    """Scatter-add of each context position's input gradient into its token's
    embedding row, for M models at once: ``tokens`` (M, R, C) and ``dinput``
    (M, R, C, E) give (M, vocab_size, E).

    One ``np.bincount`` over the flat index (model * V + token) * E + column
    adds every cell's contributions in (row, position) order, starting from
    0.0: the order and arithmetic of ``np.add.at`` on each model, bit for bit.
    ``flat`` is an (M * R * C, E) buffer for that index.
    """
    M, E = tokens.shape[0], dinput.shape[-1]
    rows = np.arange(M).reshape(M, 1, 1) * vocab_size + tokens
    flat = np.add(rows.reshape(-1, 1) * E, np.arange(E), out=flat)
    return np.bincount(flat.ravel(), weights=dinput.ravel(),
                       minlength=M * vocab_size * E).reshape(M, vocab_size, E)


class Plan:
    """Buffers for passes of M models of one architecture over R rows each.

    Built once, a plan is reused by every training pass of that shape: each
    layer's output (the last is the logits), each hidden layer's relu mask
    and backpropagated delta and the (M, P) gradient with its views; for the
    lm head a flat (M * V, E) embedding table, the token-index buffers and
    the gathered and backpropagated inputs. Each pass overwrites what the
    last one left, so its results hold until the plan's next pass. ``views``
    keeps the per-layer views of the last two parameter stacks it was given,
    as a training stack alternating two buffers needs: the views of a buffer
    stay valid while it is rewritten.

    ``Plan(..., buffered=False)`` holds no buffers: every slot is None, so
    each numpy call of a pass allocates its result and frees it when the
    pass lets go, as the pure forms (``forward_trace`` without a plan, and
    ``stack_logits``) want.
    """

    def __init__(self, arch: Architecture, n_models: int, n_rows: int, *,
                 buffered: bool = True):
        M, R = n_models, n_rows

        def new(shape, dtype=np.float64):
            return np.empty(shape, dtype) if buffered else None

        hidden = arch.hidden_dims
        self.arch, self.n_models, self.n_rows = arch, M, R
        self.outputs = [new((M, R, w)) for w in hidden + (arch.output_dim,)]
        self.masks = [new((M, R, w), bool) for w in hidden]
        self.deltas = [new((M, R, w)) for w in hidden]
        self.grad = new((M, param_count(arch)))
        self.grad_views = None if self.grad is None else _views(arch, self.grad)
        self._views: list[tuple[np.ndarray, dict]] = []
        self.table = self.index = self.embedded = self.dinput = self.flat = None
        if arch.task == TASK_LM:
            C, V, E = arch.context_window, arch.vocab_size, arch.embedding_dim
            self.offsets = (np.arange(M) * V).reshape(M, 1, 1)
            self.table = new((M * V, E))
            self.index = new((M, R, C), np.intp)
            self.embedded = new((M * R * C, E))
            self.dinput = new((M, R, arch.input_dim))
            self.flat = new((M * R * C, E), np.intp)

    def views(self, values: np.ndarray) -> dict[str, np.ndarray]:
        for held, views in self._views:
            if held is values:
                return views
        views = _views(self.arch, values)
        self._views = [(values, views)] + self._views[:1]
        return views

    def gradient(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The (M, P) gradient array to fill and its per-layer views."""
        if self.grad is None:
            out = np.empty((self.n_models, param_count(self.arch)))
            return out, _views(self.arch, out)
        return self.grad, self.grad_views


@dataclass(eq=False, slots=True)
class ForwardTrace:
    """One forward pass of M models: their logits plus the activations
    backward reuses.

    ``grad`` backpropagates through the stored activations, so a training
    step that needs both the logits and the gradient runs the network once.
    It writes into the plan the pass ran with: a buffered plan's gradient
    holds until the plan's next pass.
    """

    arch: Architecture
    plan: Plan
    inputs: np.ndarray  # (M, R, ...); the lm gradient scatters back to these tokens
    views: dict[str, np.ndarray]
    acts: list[np.ndarray]  # input of each linear layer, (M, R, width)
    logits: np.ndarray  # (M, R, output_dim)

    def grad(self, dloss_dlogits: np.ndarray) -> np.ndarray:
        """Gradient for the loss whose logit gradient is supplied, (M, R, K).

        The loss functions in this package already fold the 1/R batch
        reduction into their logit gradient, so row m of the result is the
        gradient of model m's batch-mean loss: an (M, P) float64 stack in the
        ``Parameters`` layout, whose finiteness ``optim.step`` checks.
        """
        arch, v, acts, plan = self.arch, self.views, self.acts, self.plan
        d = np.asarray(dloss_dlogits, dtype=np.float64)
        if d.shape != self.logits.shape:
            raise ValueError(f"logit gradient shape {d.shape} does not match logits {self.logits.shape}")
        if not np.isfinite(d).all():
            raise ValueError("non-finite logit gradient")
        out, grads = plan.gradient()  # each gradient is written in place
        n_layers = len(arch.hidden_dims) + 1
        delta = d
        for i in reversed(range(n_layers)):
            np.matmul(acts[i].swapaxes(1, 2), delta, out=grads[f"w{i}"])
            delta.sum(axis=1, out=grads[f"b{i}"])
            if i > 0:
                # relu(z) > 0 exactly where z > 0
                mask = np.greater(acts[i], 0.0, out=plan.masks[i - 1])
                delta = np.matmul(delta, v[f"w{i}"].swapaxes(1, 2), out=plan.deltas[i - 1])
                delta *= mask
            elif arch.task == TASK_LM:
                dinput = np.matmul(delta, v["w0"].swapaxes(1, 2), out=plan.dinput)
                grads["embed"][...] = _embedding_grad(
                    self.inputs, dinput.reshape(self.inputs.shape + (-1,)), arch.vocab_size,
                    plan.flat)
        return out


def _run(arch: Architecture, values: np.ndarray, inputs: np.ndarray, plan: Plan | None,
         acts: list | None):
    """The network over a stack of M models; returns (plan, views, logits).

    ``values`` is an (M, P) stack of flat parameter vectors and ``inputs`` an
    (M, R, d) stack of feature rows, or (M, R, context_window) token ids, with
    block m fed to model m. Every layer is one ``np.matmul`` over the leading
    model axis, which runs the same BLAS call on each model's 2-D slice as the
    model alone would: model m's logits are bit-identical to a stack of one.
    Each result is written into ``plan``'s buffers, or, without a plan, into
    fresh arrays: then a layer's output is freed once the next layer has it,
    so at most two are alive at a time, unless ``acts`` keeps each layer's
    input for the gradient.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != param_count(arch):
        raise ValueError(f"parameter stack shape {values.shape} does not match architecture "
                         f"({param_count(arch)} per model)")
    if inputs.ndim != 3 or inputs.shape[0] != values.shape[0] or inputs.shape[1] < 1:
        raise ValueError(f"inputs {inputs.shape} must be (M, R, d) with R >= 1 rows for each "
                         f"of the {values.shape[0]} models")
    _validate_inputs(arch, inputs)
    M, R = inputs.shape[:2]
    if plan is None:
        plan = Plan(arch, M, R, buffered=False)
    elif (plan.arch, plan.n_models, plan.n_rows) != (arch, M, R):
        raise ValueError(f"plan for {plan.n_models} models of {plan.n_rows} rows cannot run "
                         f"inputs {inputs.shape}")
    v = plan.views(values)
    if arch.task == TASK_LM:
        # one flat table, so the gather is one unbuffered take (the inputs
        # were range-checked above)
        index = np.add(plan.offsets, inputs, out=plan.index)
        embed = v["embed"]
        if plan.table is None:
            table = embed.reshape(-1, arch.embedding_dim)
        else:
            table = plan.table
            np.copyto(table.reshape(embed.shape), embed)
        a = np.take(table, index.reshape(-1), axis=0, out=plan.embedded,
                    mode="clip").reshape(M, R, arch.input_dim)
    else:
        a = np.asarray(inputs, dtype=np.float64)
    n_layers = len(arch.hidden_dims) + 1
    # Bias and relu are applied in place: the same values, without the
    # multi-megabyte temporaries that a 5 000-row validation pass would
    # otherwise allocate, free and page-fault in again on every call.
    for i in range(n_layers):
        if acts is not None:
            acts.append(a)
        z = np.matmul(a, v[f"w{i}"], out=plan.outputs[i])
        z += v[f"b{i}"][:, None, :]
        if i < n_layers - 1:
            a = np.maximum(z, 0.0, out=z)
    return plan, v, z


def forward_trace(arch: Architecture, values: np.ndarray, inputs: np.ndarray,
                  plan: Plan | None = None) -> ForwardTrace:
    """Run M models of one architecture at once (see ``_run`` for the
    shapes), keeping each layer's input activations for backprop; given a
    ``plan``, in its buffers."""
    acts: list[np.ndarray] = []
    plan, v, logits = _run(arch, values, inputs, plan, acts)
    return ForwardTrace(arch, plan, inputs, v, acts, logits)


def stack_logits(arch: Architecture, values: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The (M, R, K) logits of M models at once, keeping no activations."""
    return _run(arch, values, inputs, None, None)[2]


def forward(params: Parameters, batch: Batch) -> np.ndarray:
    """Logits of shape (B, output_dim); pure and deterministic. A stack of one."""
    return stack_logits(params.arch, params.values[None], batch.inputs[None])[0]


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis with max subtraction; safe for extreme
    magnitudes. Written to ``out`` if given, which may be ``logits``."""
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def predict_proba(params: Parameters, batch: Batch) -> np.ndarray:
    """Predictive distribution, rows summing to 1."""
    return softmax(forward(params, batch))


def backward(params: Parameters, batch: Batch, dloss_dlogits: np.ndarray) -> np.ndarray:
    """Gradient for the loss whose logit gradient is supplied, as a flat vector.

    Runs the forward pass again for its activations; a caller that already
    holds a ``ForwardTrace`` should call its ``grad`` instead.
    """
    trace = forward_trace(params.arch, params.values[None], batch.inputs[None])
    return trace.grad(np.asarray(dloss_dlogits)[None])[0]


def serialize_params(params: Parameters, *, step: int = 0, model_id: int = 0,
                     float32: bool = False) -> bytes:
    """Encode a parameter vector in the binary checkpoint format.

    The optional 32-bit payload halves checkpoint size at the cost of the
    bit-exact round trip (teacher predictions tolerate the precision loss).
    """
    dtype = np.dtype("<f4") if float32 else np.dtype("<f8")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.arch.fingerprint(),
                          step, model_id, 1 if float32 else 0, params.values.size)
    return header + params.values.astype(dtype).tobytes()


def deserialize_checkpoint(data: bytes, arch: Architecture):
    """Decode checkpoint bytes, validating against the expected architecture.

    Returns (Parameters, step, model_id, float32). Raises CorruptHeaderError,
    FingerprintMismatchError or TruncatedPayloadError, each distinctly.
    """
    if len(data) < _HEADER.size:
        raise CorruptHeaderError(f"header needs {_HEADER.size} bytes, got {len(data)}")
    magic, version, fp, step, model_id, flag, count = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CorruptHeaderError(f"bad magic bytes {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CorruptHeaderError(f"unsupported format version {version}")
    if flag not in (0, 1):
        raise CorruptHeaderError(f"unknown payload dtype flag {flag}")
    if fp != arch.fingerprint():
        raise FingerprintMismatchError(
            f"checkpoint fingerprint {fp:#x} does not match architecture {arch.fingerprint():#x}"
        )
    if count != param_count(arch):
        raise CorruptHeaderError(f"parameter count {count} disagrees with architecture")
    width = 4 if flag else 8
    expected = _HEADER.size + count * width
    if len(data) != expected:
        raise TruncatedPayloadError(f"expected {expected} bytes total, got {len(data)}")
    dtype = np.dtype("<f4") if flag else np.dtype("<f8")
    values = np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise SerializationError("checkpoint payload contains non-finite values")
    return Parameters(arch, values), step, model_id, bool(flag)
