"""Datasets, sharding, and deterministic batch streams.

Synthetic Gaussian-cluster classification stands in for large production
corpora; small text files feed the fixed-context character-level LM task.
Everything is reproducible: (seed, generation spec) fully determines the
dataset, the shard plan, and every batch a stream ever yields.

Each example is held once. ``gen_classification`` builds its inputs in place
and ``ingest_text`` keeps its windows as a strided view of the token ids; both
return read-only arrays. A train/validation split and a shard are row views:
they hold their source's arrays, read-only, and an index of the source rows
they contain. Each row index is held once: splitting a view composes the
indices, and a shard plan composes each disjoint shard's source rows once,
which its shards share (a shared shard, which holds every example, shares
its view's index). A batch stream holds only an epoch order of its view's
positions and yields source-row indices; the training step gathers the rows
once, into its own input and label buffers. ``take`` alone copies examples,
to materialize a subset on purpose. ``Dataset.as_batch`` of a view copies
its labels; its inputs are gathered on their first read, once per process,
so the validation rows are held only where they are validated: in the
evaluator or group process after its fork, or in the training process
itself on one CPU.
Generation and ingest work ``_CHUNK_ELEMENTS`` elements at a time (one row
of wider inputs), so their temporaries stay small.

Every integer array the data layer builds (token ids, class labels, row
indices, shard assignments and epoch orders) is held in the narrowest
unsigned type for its range, ``_index_type(bound)``: token ids and labels are
below the label-space size, row indices below the source's length, and an
epoch order's positions below its view's length. A seeded
order is such an array shuffled in place: the order and generator state of
``rng.permutation``, with no int64 permutation made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .nn import Batch

SHARD_MODES = ("disjoint", "shared")


@dataclass
class Dataset:
    """Ordered example collection with label-space metadata.

    ``source_inputs`` is (N, input_dim) float64 for classification or
    (N, window) integer token ids for lm; ``source_labels`` is (N,) integer
    class/token ids, kept in the type they are given (the generators give
    the narrowest unsigned type for ``n_classes``). ``rows`` is None when the
    dataset is its whole source, else it is a row view: the source rows it
    holds, in order, as integers. ``n``, ``inputs`` and ``labels`` read the
    dataset's own examples either way; on a view, each read of ``inputs`` or
    ``labels`` gathers a fresh copy.
    """

    source_inputs: np.ndarray
    source_labels: np.ndarray
    kind: str
    n_classes: int
    vocab: str | None = None
    provenance: dict = field(default_factory=dict)
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.source_labels = labels = np.asarray(self.source_labels)
        n = len(labels)
        if n == 0 or (self.rows is not None and len(self.rows) == 0):
            raise ValueError("dataset must be non-empty")
        if labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integer class ids, not {labels.dtype}")
        if self.rows is not None and self.rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be integer row indices, not {self.rows.dtype}")
        if self.source_inputs.shape[0] != n:
            raise ValueError("inputs and labels disagree on example count")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("label out of range")
        if self.rows is not None and not -n <= self.rows.min() <= self.rows.max() < n:
            raise IndexError("row index out of range")

    @property
    def n(self) -> int:
        return len(self.source_labels if self.rows is None else self.rows)

    @property
    def inputs(self) -> np.ndarray:
        return self.source_inputs if self.rows is None else self.source_inputs[self.rows]

    @property
    def labels(self) -> np.ndarray:
        return self.source_labels if self.rows is None else self.source_labels[self.rows]

    def as_batch(self) -> Batch:
        """The dataset's examples as one ``Batch``. A view's batch holds its
        own labels and gathers its inputs on their first read (``Batch``)."""
        return Batch(self.source_inputs, self.labels, self.rows)


def _index_type(bound: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every value in
    [0, bound)."""
    return np.min_scalar_type(bound - 1)


def _read_only(array: np.ndarray) -> np.ndarray:
    if not array.flags.writeable:
        return array
    out = array.view()
    out.flags.writeable = False
    return out


def _view(dataset: Dataset, indices) -> Dataset:
    """The examples at ``indices`` as a row view of ``dataset``'s source:
    only the row index is new memory, in ``_index_type`` of the source's
    length, and it is read-only like the source. ``indices`` count from
    the end when negative, as NumPy's do."""
    idx, n = np.asarray(indices), dataset.n
    if idx.size == 0:
        raise ValueError("dataset must be non-empty")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"rows must be integer row indices, not {idx.dtype}")
    lo, hi = idx.min(), idx.max()
    if not -n <= lo <= hi < n:
        raise IndexError("row index out of range")
    if lo < 0:
        idx = np.where(idx < 0, idx + n, idx)
    if dataset.rows is None:
        rows = idx.astype(_index_type(len(dataset.source_labels)))
    else:
        rows = dataset.rows[idx]
    rows.flags.writeable = False
    return _rows_view(dataset, rows)


def _rows_view(dataset: Dataset, rows: np.ndarray | None) -> Dataset:
    """``dataset``'s source, read-only, as a view holding the read-only
    source rows ``rows`` (None: the whole source)."""
    return Dataset(_read_only(dataset.source_inputs), _read_only(dataset.source_labels),
                   dataset.kind, dataset.n_classes, dataset.vocab, dict(dataset.provenance),
                   rows)


def take(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Materialize a subset: the row view's examples copied into writable
    arrays of their own (metadata is preserved)."""
    sub = _view(dataset, indices)
    return Dataset(sub.inputs, sub.labels, sub.kind, sub.n_classes, sub.vocab, sub.provenance)


def check_classification(n_examples: int, input_dim: int, n_classes: int,
                         difficulty: float) -> None:
    """``gen_classification``'s argument checks; each message starts with the
    parameter it is about."""
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if n_examples < n_classes:
        raise ValueError("n_examples must be at least n_classes: one example per class")
    if not 0.0 <= difficulty < np.inf:
        raise ValueError("difficulty must be finite and nonnegative")


# elements the generators build at a time (at least one row): 32 KiB of
# gen_classification's float64 centroid rows, or ingest_text's characters;
# below glibc's 128 KiB mmap threshold, so no temporary is mapped and faulted in
_CHUNK_ELEMENTS = 1 << 12


def gen_classification(seed: int, n_examples: int, input_dim: int, n_classes: int,
                       difficulty: float) -> Dataset:
    """Balanced Gaussian class-cluster mixture.

    ``difficulty`` is the ratio of within-cluster std to the mean
    nearest-neighbor centroid distance; 0 collapses every example onto its
    centroid. Class counts differ by at most one.

    The inputs are built in place: the noise is drawn, scaled by the std and
    then added to the centroid rows in chunks of ``_CHUNK_ELEMENTS``. Each
    element is the same float operation as ``centroids[labels] + std * noise``
    (product and sum commute exactly), so no full-size temporary is made.
    """
    check_classification(n_examples, input_dim, n_classes, difficulty)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    centroids = rng.standard_normal((n_classes, input_dim))
    dists = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    spacing = float(dists.min(axis=1).mean())
    std = difficulty * spacing
    counts = np.full(n_classes, n_examples // n_classes)
    counts[: n_examples % n_classes] += 1
    labels = np.repeat(np.arange(n_classes, dtype=_index_type(n_classes)), counts)
    rng.shuffle(labels)  # the same draws and order as labels[rng.permutation(n_examples)]
    inputs = rng.standard_normal((n_examples, input_dim))
    inputs *= std
    chunk = max(1, _CHUNK_ELEMENTS // input_dim)
    for start in range(0, n_examples, chunk):
        inputs[start:start + chunk] += centroids[labels[start:start + chunk]]
    inputs.flags.writeable = False
    labels.flags.writeable = False
    return Dataset(inputs, labels, "classification", n_classes, provenance={
        "generator": "classification", "seed": int(seed), "n": int(n_examples),
        "dim": int(input_dim), "classes": int(n_classes), "difficulty": float(difficulty),
    })


def _read_corpus(path, context_window: int) -> str:
    """A UTF-8 corpus's text, holding at least one example."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ValueError(f"empty corpus: {path}")
    if len(text) < context_window + 1:
        raise ValueError(f"corpus shorter than context_window + 1 ({context_window + 1} chars)")
    return text


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4")


def ingest_text(path, context_window: int) -> Dataset:
    """Character-level sliding-window dataset from a UTF-8 text file.

    Each example maps ``context_window`` consecutive characters to the next
    one; the vocabulary is the sorted set of characters in the corpus. A
    character's id is its code point's rank among the vocabulary's code
    points, found ``_CHUNK_ELEMENTS`` characters at a time. The token ids are
    held once, read-only, in ``_index_type`` of the vocabulary's size: the
    windows are their strided view and the labels a slice of them.
    """
    text = _read_corpus(path, context_window)
    vocab = "".join(sorted(set(text)))
    codes = _code_points(vocab)
    ids = np.empty(len(text), _index_type(len(vocab)))
    for start in range(0, len(text), _CHUNK_ELEMENTS):
        stop = start + _CHUNK_ELEMENTS
        ids[start:stop] = np.searchsorted(codes, _code_points(text[start:stop]))
    ids.flags.writeable = False
    contexts = np.lib.stride_tricks.sliding_window_view(ids, context_window)[:-1]
    labels = ids[context_window:]
    return Dataset(contexts, labels, "lm", len(vocab), vocab=vocab, provenance={
        "generator": "text", "source": str(path), "window": int(context_window),
        "vocab_size": len(vocab), "chars": len(text),
    })


def check_split(val_fraction: float) -> None:
    """``split_train_val``'s argument check; the message starts with the parameter."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")


def _validation_size(n_examples: int, val_fraction: float) -> int:
    """Examples ``split_train_val`` holds out: at least one, never all."""
    return min(max(int(round(n_examples * val_fraction)), 1), n_examples - 1)


def split_train_val(dataset: Dataset, val_fraction: float, seed: int):
    """Seeded held-out split, applied before any sharding.

    Returns (train, validation) as row views of ``dataset``; validation data
    is never sharded.
    """
    check_split(val_fraction)
    n_val = _validation_size(dataset.n, val_fraction)
    perm = np.arange(dataset.n, dtype=_index_type(dataset.n))
    np.random.default_rng(np.random.SeedSequence([int(seed), 1])).shuffle(perm)
    return _view(dataset, perm[n_val:]), _view(dataset, perm[:n_val])


@dataclass(eq=False)
class ShardPlan:
    """Each worker group's source rows of one dataset, ``dataset``.

    ``assignment[i]`` is shard i's source rows, read-only: composed once by
    ``make_shards``, and shared by every view ``shard`` returns. A shared
    plan's shards each hold every example, in order, through ``dataset``'s
    own row index (None for a whole source), so the plan holds no index of
    its own.
    """

    dataset: Dataset
    assignment: tuple[np.ndarray | None, ...]

    def shard(self, dataset: Dataset, i: int) -> Dataset:
        """Shard ``i`` as a row view of ``dataset``'s source holding the
        plan's own ``assignment[i]``, so it costs no memory. ``dataset`` must
        be the very dataset the plan was made from."""
        if dataset is not self.dataset:
            raise ValueError("dataset is not the one this shard plan was made from")
        return _rows_view(dataset, self.assignment[i])


def make_shards(dataset: Dataset, mode: str, n_shards: int, seed: int) -> ShardPlan:
    """Disjoint: a seeded permutation of the dataset's positions split
    round-robin (sizes differ by <= 1), each shard's part composed with the
    dataset's rows into source rows, once; over a whole source those are
    strided views of the permutation. Shared: every shard is the dataset's
    own rows. Either way each source row is held at most once, read-only,
    in ``_index_type`` of the source's length."""
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {mode!r}")
    if n_shards < 1 or n_shards > dataset.n:
        raise ValueError("need 1 <= n_shards <= n_examples")
    rows = None if dataset.rows is None else _read_only(dataset.rows)
    if mode == "shared":
        return ShardPlan(dataset, (rows,) * n_shards)
    perm = np.arange(dataset.n, dtype=_index_type(dataset.n))
    np.random.default_rng(np.random.SeedSequence([int(seed), 2])).shuffle(perm)
    shards = tuple(perm[i::n_shards] if rows is None else rows[perm[i::n_shards]]
                   for i in range(n_shards))
    for shard in shards:
        shard.flags.writeable = False
    return ShardPlan(dataset, shards)


def batch_stream(dataset: Dataset, batch_size: int, seed) -> Iterator[np.ndarray]:
    """Infinite deterministic stream of each batch's ``batch_size`` source-row
    indices, as ``intp``, ragged tail dropped. Each epoch shuffles the
    positions ``arange(n)`` in place, in ``_index_type(n)``, and a batch is
    the dataset's rows at its slice of them. A shuffle moves positions, not
    values, so the batches and the generator state are those of shuffling a
    copy of the rows, without holding one."""
    n = dataset.n
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must lie in [1, {n}]")
    rows = dataset.rows
    rng = np.random.default_rng(seed)
    while True:
        order = np.arange(n, dtype=_index_type(n))
        rng.shuffle(order)
        for start in range(0, n - batch_size + 1, batch_size):
            pos = order[start:start + batch_size]
            yield (pos if rows is None else rows.take(pos)).astype(np.intp)


def unigram(dataset: Dataset) -> np.ndarray:
    """Empirical label distribution over the dataset's label space."""
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    return counts / dataset.n
