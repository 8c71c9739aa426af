"""Evaluation and analysis: validation metrics, steps-to-target, ensembling,
and prediction churn across retrains."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import combinations

import numpy as np

from .losses import _LOG_FLOOR, hard_ce_loss
from .nn import Batch, Parameters, Plan, forward, softmax

# MetricRecord's fields, in order, under their file names
CSV_COLUMNS = ("run_id", "step", "wall_seconds", "train_loss", "val_loss",
               "val_accuracy", "bytes_grad_exchange", "bytes_checkpoint")


@dataclass
class MetricRecord:
    """One experiment-output row (see CSV_COLUMNS for the file schema)."""

    run_id: str
    step: int
    wall_seconds: float
    train_loss: float | None
    validation_loss: float
    validation_accuracy: float
    bytes_grad_exchange: int = 0
    bytes_checkpoint: int = 0


def format_cell(value) -> str:
    """A CSV cell that parses back to the same value: floats by ``repr``, so
    bit-exact, and None as the empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_row(record: MetricRecord) -> str:
    """The record's CSV row, in CSV_COLUMNS order, without a newline."""
    return ",".join(format_cell(getattr(record, f.name)) for f in fields(MetricRecord))


def parse_row(line: str) -> MetricRecord:
    """Inverse of ``format_row``."""
    run_id, step, wall, train, val, acc, grad, ckpt = line.split(",")
    return MetricRecord(run_id, int(step), float(wall), float(train) if train else None,
                        float(val), float(acc), int(grad), int(ckpt))


@dataclass
class ChurnReport:
    """Prediction-difference aggregate over retrains of one training setup."""

    pair_churn: list[float]
    churn_mean: float
    churn_half_range: float
    val_losses: list[float]
    val_loss_mean: float
    val_loss_half_range: float

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(params: Parameters, validation: Batch, plan: Plan | None = None):
    """Mean cross entropy and top-1 accuracy over a validation batch.

    The loss is computed without a gradient and equals ``hard_ce``'s bit for
    bit. The logits are written into ``plan`` (see ``nn.forward``), which a
    caller validating several models over the same rows binds once. The
    accuracy's ``argmax`` reads them first; the loss then shifts them in
    place, since a shifted row can round two entries into a tie.
    """
    if validation.size == 0:
        raise ValueError("empty validation set")
    logits = forward(params, validation, plan)
    accuracy = float((logits.argmax(axis=1) == validation.labels).mean())
    return hard_ce_loss(validation.labels, logits, out=logits), accuracy


def probs_nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example negative log likelihood of given predictive distributions."""
    picked = probs[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, _LOG_FLOOR))


def steps_to_target(records, target_loss: float):
    """First recorded step whose validation loss is at or below the target."""
    for r in records:
        if r.validation_loss is not None and r.validation_loss <= target_loss:
            return r.step
    return None


def _check_same_arch(params_list):
    fps = {p.arch.fingerprint() for p in params_list}
    if len(fps) != 1:
        raise ValueError("architecture mismatch between models")


def ensemble_predict(params_list, batch: Batch) -> np.ndarray:
    """Arithmetic mean of the members' predictive distributions."""
    if not params_list:
        raise ValueError("empty ensemble")
    _check_same_arch(params_list)
    plan = Plan(params_list[0].arch, 1, batch.size, n_grad=0)
    acc = None
    for p in params_list:
        probs = softmax(forward(p, batch, plan))
        acc = probs if acc is None else acc + probs
    return acc / len(params_list)


def prediction_churn(params_a: Parameters, params_b: Parameters, validation: Batch) -> float:
    """Mean absolute prediction difference between two models.

    Averaged over examples and classes, which keeps the value in [0, 1] and
    reduces to the positive-class difference (up to a constant) for binary
    tasks. Symmetric and zero for identical parameters.
    """
    _check_same_arch([params_a, params_b])
    if validation.size == 0:
        raise ValueError("empty validation set")
    plan = Plan(params_a.arch, 1, validation.size, n_grad=0)
    pa = softmax(forward(params_a, validation, plan))
    pb = softmax(forward(params_b, validation, plan))
    return float(np.abs(pa - pb).mean())


def churn_experiment(train_fn, n_repeats: int, validation: Batch, *,
                     base_seed: int = 0) -> ChurnReport:
    """Retrain with seeds ``base_seed`` ... ``base_seed + n_repeats - 1`` and
    aggregate churn.

    ``train_fn(seed)`` must return the trained Parameters (for codistillation
    runs that is replica 0, one copy picked arbitrarily). Churn is computed
    over all unordered retrain pairs; both churn and validation log loss are
    reported as mean plus/minus half the range.
    """
    if n_repeats < 2:
        raise ValueError("need at least two retrains")
    models = [train_fn(base_seed + i) for i in range(n_repeats)]
    pair_churn = [prediction_churn(a, b, validation) for a, b in combinations(models, 2)]
    val_losses = [evaluate(m, validation)[0] for m in models]

    def half_range(xs):
        return (max(xs) - min(xs)) / 2.0

    return ChurnReport(
        pair_churn=pair_churn,
        churn_mean=float(np.mean(pair_churn)),
        churn_half_range=half_range(pair_churn),
        val_losses=val_losses,
        val_loss_mean=float(np.mean(val_losses)),
        val_loss_half_range=half_range(val_losses),
    )
