"""Minimal dense-network core.

Deterministic parameter initialization, forward pass, analytic backward pass,
and a binary checkpoint codec for the flat parameter vector. Two task heads
share the same machinery: a vector-input classifier and a fixed-context-window
next-token predictor (embedding lookup feeding an MLP over the concatenated
context). All arithmetic is float64 and every public function is pure.
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
    return {name: values[start:stop].reshape(shape) for name, shape, start, stop in _slices(arch)}


def _validate_inputs(arch: Architecture, batch: Batch) -> None:
    x = batch.inputs
    if arch.task == TASK_LM:
        if x.shape[1] != arch.context_window:
            raise ValueError(f"expected {arch.context_window} context tokens, got {x.shape[1]}")
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError("lm inputs must be integer token ids")
        if x.min() < 0 or x.max() >= arch.vocab_size:
            raise ValueError("token id out of range")
    else:
        if x.shape[1] != arch.input_dim:
            raise ValueError(f"expected input_dim {arch.input_dim}, got {x.shape[1]}")


@dataclass(eq=False, slots=True)
class ForwardTrace:
    """One forward pass: its logits plus the activations backward reuses.

    ``grad`` backpropagates through the stored activations, so a training
    step that needs both the logits and the gradient runs the network once.
    """

    params: Parameters
    batch: Batch
    views: dict[str, np.ndarray]
    acts: list[np.ndarray]  # input of each linear layer
    logits: np.ndarray  # (B, output_dim)

    def grad(self, dloss_dlogits: np.ndarray) -> np.ndarray:
        """Gradient for the loss whose logit gradient is supplied.

        The loss functions in this package already fold the 1/B batch
        reduction into their logit gradient, so the result is the gradient of
        the batch-mean loss: a flat float64 vector in the ``Parameters``
        layout, whose finiteness ``optim.step`` checks.
        """
        arch = self.params.arch
        batch, v, acts = self.batch, self.views, self.acts
        d = np.asarray(dloss_dlogits, dtype=np.float64)
        if d.shape != self.logits.shape:
            raise ValueError(f"logit gradient shape {d.shape} does not match logits {self.logits.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("non-finite logit gradient")
        grads: dict[str, np.ndarray] = {}
        n_layers = len(arch.hidden_dims) + 1
        delta = d
        for i in reversed(range(n_layers)):
            grads[f"w{i}"] = acts[i].T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                # relu(z) > 0 exactly where z > 0
                delta = (delta @ v[f"w{i}"].T) * (acts[i] > 0.0)
            elif arch.task == TASK_LM:
                dinput = (delta @ v["w0"].T).reshape(batch.size, arch.context_window, arch.embedding_dim)
                g = np.zeros_like(v["embed"])
                np.add.at(g, batch.inputs, dinput)
                grads["embed"] = g
        return np.concatenate([grads[name].ravel() for name, _ in _layout(arch)])


def forward_trace(params: Parameters, batch: Batch) -> ForwardTrace:
    """Run the net, keeping each layer's input activations for backprop."""
    arch = params.arch
    _validate_inputs(arch, batch)
    v = _views(arch, params.values)
    if arch.task == TASK_LM:
        a = v["embed"][batch.inputs].reshape(batch.size, arch.input_dim)
    else:
        a = np.asarray(batch.inputs, dtype=np.float64)
    acts = [a]
    n_layers = len(arch.hidden_dims) + 1
    # Bias and relu are applied in place: the same values, without the
    # multi-megabyte temporaries that a 5 000-row validation pass would
    # otherwise allocate, free and page-fault in again on every call.
    for i in range(n_layers):
        z = acts[-1] @ v[f"w{i}"]
        z += v[f"b{i}"]
        if i < n_layers - 1:
            acts.append(np.maximum(z, 0.0, out=z))
    return ForwardTrace(params, batch, v, acts, z)


def forward(params: Parameters, batch: Batch) -> np.ndarray:
    """Logits of shape (B, output_dim); pure and deterministic."""
    return forward_trace(params, batch).logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; safe for extreme magnitudes."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(params: Parameters, batch: Batch) -> np.ndarray:
    """Predictive distribution, rows summing to 1."""
    return softmax(forward(params, batch))


def backward(params: Parameters, batch: Batch, dloss_dlogits: np.ndarray) -> np.ndarray:
    """Gradient for the loss whose logit gradient is supplied, as a flat vector.

    Runs the forward pass again for its activations; a caller that already
    holds a ``ForwardTrace`` should call its ``grad`` instead.
    """
    return forward_trace(params, batch).grad(dloss_dlogits)


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
