"""Datasets, sharding, and deterministic batch streams.

Synthetic Gaussian-cluster classification stands in for large production
corpora; small text files feed the fixed-context character-level LM task.
Everything is reproducible: (seed, generation spec) fully determines the
dataset, the shard plan, and every batch a stream ever yields.
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

    ``inputs`` is (n, input_dim) float64 for classification or (n, window)
    int64 token ids for lm; ``labels`` is (n,) int64 class/token ids.
    """

    inputs: np.ndarray
    labels: np.ndarray
    kind: str
    n_classes: int
    vocab: str | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) == 0:
            raise ValueError("dataset must be non-empty")
        if self.inputs.shape[0] != len(self.labels):
            raise ValueError("inputs and labels disagree on example count")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("label out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    def as_batch(self) -> Batch:
        return Batch(self.inputs, self.labels)


def take(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Materialize a subset (fancy indexing copies; metadata is preserved)."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(dataset.inputs[idx], dataset.labels[idx], dataset.kind,
                   dataset.n_classes, dataset.vocab, dict(dataset.provenance))


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


def gen_classification(seed: int, n_examples: int, input_dim: int, n_classes: int,
                       difficulty: float) -> Dataset:
    """Balanced Gaussian class-cluster mixture.

    ``difficulty`` is the ratio of within-cluster std to the mean
    nearest-neighbor centroid distance; 0 collapses every example onto its
    centroid. Class counts differ by at most one.
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
    labels = np.repeat(np.arange(n_classes), counts)
    labels = labels[rng.permutation(n_examples)]
    inputs = centroids[labels] + std * rng.standard_normal((n_examples, input_dim))
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


def ingest_text(path, context_window: int) -> Dataset:
    """Character-level sliding-window dataset from a UTF-8 text file.

    Each example maps ``context_window`` consecutive characters to the next
    one; the vocabulary is the sorted set of characters in the corpus.
    """
    text = _read_corpus(path, context_window)
    vocab = "".join(sorted(set(text)))
    index = {c: i for i, c in enumerate(vocab)}
    ids = np.fromiter((index[c] for c in text), dtype=np.int64, count=len(text))
    contexts = np.lib.stride_tricks.sliding_window_view(ids, context_window)[:-1].copy()
    labels = ids[context_window:].copy()
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

    Returns (train, validation); validation data is never sharded.
    """
    check_split(val_fraction)
    n_val = _validation_size(dataset.n, val_fraction)
    perm = np.random.default_rng(np.random.SeedSequence([int(seed), 1])).permutation(dataset.n)
    return take(dataset, perm[n_val:]), take(dataset, perm[:n_val])


@dataclass
class ShardPlan:
    """Assignment of example indices to worker groups."""

    assignment: tuple[np.ndarray, ...]

    def shard(self, dataset: Dataset, i: int) -> Dataset:
        return take(dataset, self.assignment[i])


def make_shards(dataset: Dataset, mode: str, n_shards: int, seed: int) -> ShardPlan:
    """Disjoint: seeded permutation split round-robin (sizes differ by <= 1).
    Shared: every shard is the full index set."""
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {mode!r}")
    if n_shards < 1 or n_shards > dataset.n:
        raise ValueError("need 1 <= n_shards <= n_examples")
    if mode == "shared":
        assignment = tuple(np.arange(dataset.n, dtype=np.int64) for _ in range(n_shards))
    else:
        perm = np.random.default_rng(np.random.SeedSequence([int(seed), 2])).permutation(dataset.n)
        assignment = tuple(perm[i::n_shards].astype(np.int64) for i in range(n_shards))
    return ShardPlan(assignment)


def batch_stream(dataset: Dataset, batch_size: int, seed) -> Iterator[Batch]:
    """Infinite deterministic stream: seeded reshuffle each epoch, ragged tail
    dropped so every batch has exactly ``batch_size`` examples."""
    if batch_size < 1 or batch_size > dataset.n:
        raise ValueError(f"batch_size must lie in [1, {dataset.n}]")
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(dataset.n)
        for start in range(0, dataset.n - batch_size + 1, batch_size):
            idx = perm[start:start + batch_size]
            yield Batch(dataset.inputs[idx], dataset.labels[idx])


def unigram(dataset: Dataset) -> np.ndarray:
    """Empirical label distribution over the dataset's label space."""
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    return counts / dataset.n
