"""Minimal dense-network core.

Deterministic parameter initialization, forward pass, analytic backward pass,
and a binary checkpoint codec for the flat parameter vector. Two task heads
share the same machinery: a vector-input classifier and a fixed-context-window
next-token predictor (embedding lookup feeding an MLP over the concatenated
context). All arithmetic is float64.

The network kernel (``Pass.forward`` and ``Pass.backward``) runs a stack of
M models over a leading model axis: parameters (M, P), inputs (M, R, ...),
logits (M, R, K), gradient (M, P). Each layer is one ``np.matmul``, which
makes the same BLAS call on every model's 2-D slice, and the lm embedding
gradient is one ``np.bincount``, which adds in the order ``np.add.at`` does,
so each model's result is bit-identical to running it alone.

That kernel is the network's one body. A ``Plan`` holds the buffers for
one shape of pass, built once, and a ``Pass`` binds the buffers of a plan's
first n models to one parameter stack, with every per-layer view of the
parameters and the gradient. A pass writes every activation, mask, delta,
gradient and the logits into its plan, allocating none of them, and each
result holds until the plan's next pass. A training step keeps a Pass per
parameter buffer; a validation loop binds one forward-only plan
(``n_grad=0``) and runs each model through it. ``forward``,
``predict_proba`` and ``backward`` take one ``Parameters`` and one
``Batch``, a stack of one, and bind a plan per call (``forward`` reuses one
it is given). Every other function here is pure, and ``softmax`` writes to
an ``out`` only when given one.
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
    satisfy ``input_dim == context_window * embedding_dim``. Its embedding
    table and token ids span ``vocab_size``, its outputs and labels
    ``output_dim`` (for next-token prediction the same number).
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


class Batch:
    """One minibatch: float features for classification, int token ids for lm.

    Given ``rows``, ``inputs`` is the array the batch's rows are taken from:
    the first read of ``inputs`` gathers them, once, and keeps the copy, so
    a process that never reads them never holds them. ``size`` and
    ``labels`` never gather.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None):
        n = inputs.shape[0] if rows is None else len(rows)
        if inputs.ndim != 2 or len(labels) != n:
            raise ValueError("inputs must be (B, d) with one label per row")
        if n < 1:
            raise ValueError("batch must contain at least one example")
        self._inputs, self._rows = inputs, rows
        self.labels = labels

    @property
    def inputs(self) -> np.ndarray:
        if self._rows is not None:
            self._inputs, self._rows = self._inputs[self._rows], None
        return self._inputs

    @property
    def size(self) -> int:
        return self._inputs.shape[0] if self._rows is None else len(self._rows)


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
    """Width and dtype of a stack of input rows; ``Pass.forward`` checks the
    token range, at every pass."""
    if arch.task == TASK_LM:
        if x.shape[-1] != arch.context_window:
            raise ValueError(f"expected {arch.context_window} context tokens, got {x.shape[-1]}")
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError("lm inputs must be integer token ids")
    else:
        if x.shape[-1] != arch.input_dim:
            raise ValueError(f"expected input_dim {arch.input_dim}, got {x.shape[-1]}")
        if x.dtype.kind not in "iuf":
            raise ValueError(f"inputs must be real numbers, not {x.dtype}")


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

    Built once, a plan is reused by every pass of that shape: an (M, R, ...)
    input buffer a caller may copy each pass's inputs into, each layer's
    output (the last is the logits), and for the first G = ``n_grad`` models
    (all, by default; none for a forward-only plan, ``n_grad=0``) each hidden
    layer's relu mask and backpropagated delta and the (G, P) gradient; for
    the lm head also a flat (M * V, E) embedding table, the token-index
    buffers, the gathered inputs and the G models' bincount index and input
    gradient. Each pass overwrites what the last one left, so its results
    hold until the plan's next pass. A ``Pass`` binds the buffers of the
    plan's first n models to one parameter stack.

    The M - G forward-only rows (a stack's teacher rows) are spent once the
    forward's logits are read, so the backward's buffers live in them where
    they fit (with M >= 2G, as in every stack with teacher rows): each
    hidden layer's deltas in rows [G, 2G) of that layer's output, and the
    lm's bincount index (an ``intp`` view), then its input gradient, in the
    gathered embeddings after the first G * R * C rows. What does not fit
    is allocated. So a backward overwrites the forward-only rows' hidden
    outputs and gathered embeddings, never a gradient row's activations:
    a second backward after one forward gives the same gradient.
    """

    def __init__(self, arch: Architecture, n_models: int, n_rows: int, *,
                 n_grad: int | None = None):
        M, R = n_models, n_rows
        G = M if n_grad is None else n_grad
        if not 0 <= G <= M:
            raise ValueError(f"n_grad must lie in [0, {M}], got {G}")
        hidden = arch.hidden_dims
        lm = arch.task == TASK_LM
        self.arch, self.n_models, self.n_rows, self.n_grad = arch, M, R, G
        self.inputs = (np.empty((M, R, arch.context_window), np.int64) if lm
                       else np.empty((M, R, arch.input_dim)))
        self.outputs = [np.empty((M, R, w)) for w in hidden + (arch.output_dim,)]
        self.masks = [np.empty((G, R, w), bool) for w in hidden]
        self.deltas = [_carve(out[G:].reshape(-1), (G, R, w), np.float64)[0]
                       for out, w in zip(self.outputs, hidden)]
        self.grad = np.empty((G, param_count(arch)))
        self.offsets = self.table = self.index = self.embedded = self.dinput = self.flat = None
        if lm:
            C, V, E = arch.context_window, arch.vocab_size, arch.embedding_dim
            self.offsets = (np.arange(M) * V).reshape(M, 1, 1)
            self.table = np.empty((M * V, E))
            self.index = np.empty((M, R, C), np.intp)
            self.embedded = np.empty((M * R * C, E))
            spare = self.embedded[G * R * C:].reshape(-1)
            self.flat, spare = _carve(spare, (G * R * C, E), np.intp)
            self.dinput, _ = _carve(spare, (G, R, arch.input_dim), np.float64)


def _carve(spare: np.ndarray, shape: tuple[int, ...], dtype) -> tuple[np.ndarray, np.ndarray]:
    """A ``shape`` buffer of ``dtype`` at the start of ``spare``, a flat
    float64 buffer of forward-only rows, and what is left of ``spare``; a new
    buffer, and ``spare`` whole, if it does not fit there."""
    size = math.prod(shape)
    if spare.size < size or np.dtype(dtype).itemsize != spare.itemsize:
        return np.empty(shape, dtype), spare
    return spare[:size].view(dtype).reshape(shape), spare[size:]


def _head(buffer: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of a plan's buffer (the buffer itself if that
    is all of it)."""
    return buffer if len(buffer) == rows else buffer[:rows]


class Pass:
    """The network over the first ``n`` models of a plan, bound to one
    parameter stack ``values`` ((n, P) or more rows): each layer's weights,
    transposed weights and broadcast bias as views of ``values``, the
    gradient's per-layer views, and the plan's buffers cut to n models, built
    once.

    ``forward`` and ``backward`` are the network's one body. A training stack
    binds one Pass per parameter buffer and pass length and calls them every
    step; a validation loop binds one per model over one forward-only plan;
    the pure forms bind one per call. ``acts`` are the layer inputs a forward
    leaves in the plan, which ``backward`` reads: the gathered embeddings or
    the plan's input buffer, then each hidden layer's relu output. Backward
    needs n <= the plan's ``n_grad``; it overwrites the hidden outputs and
    gathered embeddings of the plan's forward-only rows (``Plan``), so
    whatever reads their forward results reads them before it.
    """

    __slots__ = ("arch", "layers", "weights_t", "outputs", "lm", "masks", "deltas", "grad",
                 "grad_views", "dinput", "flat", "acts")

    def __init__(self, plan: Plan, values: np.ndarray, n: int | None = None):
        arch = plan.arch
        n = plan.n_models if n is None else n
        v = _views(arch, values if len(values) == n else values[:n])
        n_layers = len(arch.hidden_dims) + 1
        self.arch = arch
        self.layers = [(v[f"w{i}"], v[f"b{i}"][:, None, :]) for i in range(n_layers)]
        self.weights_t = [w.swapaxes(1, 2) for w, _ in self.layers]
        self.outputs = [_head(o, n) for o in plan.outputs]
        self.masks = [_head(m, n) for m in plan.masks]
        self.deltas = [_head(d, n) for d in plan.deltas]
        self.grad = _head(plan.grad, n)
        g = _views(arch, self.grad)
        self.grad_views = ([g[f"w{i}"] for i in range(n_layers)],
                           [g[f"b{i}"] for i in range(n_layers)], g.get("embed"))
        first = _head(plan.inputs, n)
        self.lm = self.dinput = self.flat = None
        if arch.task == TASK_LM:
            lm_rows = n * plan.n_rows * arch.context_window
            table = _head(plan.table, n * arch.vocab_size)
            embedded = _head(plan.embedded, lm_rows)
            self.lm = (v["embed"], table, table.reshape(v["embed"].shape), plan.offsets[:n],
                       _head(plan.index, n), embedded)
            first = embedded.reshape(n, plan.n_rows, arch.input_dim)
            self.dinput = _head(plan.dinput, n)
            self.flat = _head(plan.flat, lm_rows)
        self.acts = [first] + self.outputs[:-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The (n, R, K) logits of inputs ``x``, (n, R, d) features or
        (n, R, C) token ids, block m fed to model m. Every layer is one
        ``np.matmul`` over the leading model axis, which runs the same BLAS
        call on each model's 2-D slice as the model alone would: model m's
        logits are bit-identical to a stack of one. Each result is written
        into the plan's buffers. A pass that ``backward`` follows is fed the
        plan's input buffer, which its first layer's gradient reads. Token
        ids are range-checked before the gather."""
        if self.lm is not None:
            embed, table, table_view, offsets, index, embedded = self.lm
            if (np.minimum.reduce(x, axis=None) < 0
                    or np.maximum.reduce(x, axis=None) >= self.arch.vocab_size):
                raise ValueError("token id out of range")
            # one flat table, so the gather is one take ("clip": already checked)
            index = np.add(offsets, x, out=index)
            table_view[...] = embed
            a = table.take(index.reshape(-1), axis=0, out=embedded,
                           mode="clip").reshape(x.shape[0], x.shape[1], self.arch.input_dim)
        else:
            a = np.asarray(x, dtype=np.float64)
        # Bias and relu are applied in place: the same values, without the
        # multi-megabyte temporaries a 5 000-row validation pass would
        # otherwise allocate, free and page-fault in again on every call.
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            z = np.matmul(a, w, out=self.outputs[i])
            z += b
            if i < last:
                a = np.maximum(z, 0.0, out=z)
        return z

    def backward(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The (n, P) gradient for the logit gradient ``d`` (n, R, K) of the
        last forward of ``x``, from the layer inputs it left in ``acts``; row
        m is model m's, in the ``Parameters`` layout, written into the plan's
        gradient buffer. Raises on a non-finite ``d``."""
        if not np.logical_and.reduce(np.isfinite(d), axis=None):
            raise ValueError("non-finite logit gradient")
        grad_w, grad_b, grad_embed = self.grad_views
        acts = self.acts
        delta = d
        for i in reversed(range(len(self.layers))):
            np.matmul(acts[i].swapaxes(1, 2), delta, out=grad_w[i])
            np.add.reduce(delta, axis=1, out=grad_b[i])
            if i > 0:
                # relu(z) > 0 exactly where z > 0
                mask = np.greater(acts[i], 0.0, out=self.masks[i - 1])
                delta = np.matmul(delta, self.weights_t[i], out=self.deltas[i - 1])
                delta *= mask
            elif self.lm is not None:
                dinput = np.matmul(delta, self.weights_t[0], out=self.dinput)
                grad_embed[...] = _embedding_grad(x, dinput.reshape(x.shape + (-1,)),
                                                  self.arch.vocab_size, self.flat)
        return self.grad


def _bind(params: Parameters, batch: Batch, plan: Plan | None) -> Pass:
    """A Pass of ``params`` alone over ``plan``, after the checks of the
    batch's inputs; without a plan, over a new forward-only one for the
    batch's rows."""
    arch = params.arch
    _validate_inputs(arch, batch.inputs)
    if plan is None:
        plan = Plan(arch, 1, batch.size, n_grad=0)
    elif (plan.arch, plan.n_models, plan.n_rows) != (arch, 1, batch.size):
        raise ValueError(f"plan for {plan.n_models} models of {plan.n_rows} rows cannot run "
                         f"one model over {batch.size} rows")
    return Pass(plan, params.values[None])


def forward(params: Parameters, batch: Batch, plan: Plan | None = None) -> np.ndarray:
    """Logits of shape (B, output_dim); deterministic. Written into
    ``plan``, a plan of one model over the batch's rows that any number of
    models may reuse in turn (each result holds until its next pass), or
    into a new plan's."""
    return _bind(params, batch, plan).forward(batch.inputs[None])[0]


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis with max subtraction; safe for extreme
    magnitudes. Written to ``out`` if given, which may be ``logits``."""
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def predict_proba(params: Parameters, batch: Batch) -> np.ndarray:
    """Predictive distribution, rows summing to 1."""
    return softmax(forward(params, batch))


def backward(params: Parameters, batch: Batch, dloss_dlogits: np.ndarray) -> np.ndarray:
    """Gradient for the loss whose logit gradient is supplied, as a flat
    vector: the forward pass again, over a plan of its own, then its
    backward, as a training step runs them."""
    plan = Plan(params.arch, 1, batch.size)
    net = _bind(params, batch, plan)
    d = np.asarray(dloss_dlogits, dtype=np.float64)
    if d.shape != (batch.size, params.arch.output_dim):
        raise ValueError(f"logit gradient shape {d.shape} does not match logits "
                         f"{(batch.size, params.arch.output_dim)}")
    x = plan.inputs
    x[0] = batch.inputs
    net.forward(x)
    return net.backward(x, d[None])[0]


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
