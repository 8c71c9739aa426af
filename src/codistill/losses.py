"""Training losses.

Every loss returns ``(loss, grad)``: the mean over the batch and the
gradient of that mean with respect to the logits, shaped like the logits.
Gradients therefore already carry the 1/B factor and the network backward
pass consumes them unchanged. Logits are (B, K), or a stack (M, B, K) of M
models' batches with labels (M, B); the loss is then one mean per model, (M,),
and every expression runs once over the stack, with model m's loss and
gradient bit-identical to its batch alone.

The hard-label loss is always cross entropy; the one auxiliary term is a
distillation loss against a teacher signal (soft-target cross entropy, mean
squared logit error, or KL divergence). Label smoothing is that term with
soft-target cross entropy toward a constant teacher, the uniform or the
unigram distribution (Yuan et al., "Revisiting Knowledge Distillation via
Label Smoothing Regularization", CVPR 2020). Validation's loss is
``hard_ce_loss``: ``hard_ce``'s loss, bit for bit, without its gradient.

Each loss has one body, as the network's pass has: it writes every array
it computes into a ``LossPlan``, the buffers for one shape of logits, built
once. A training step keeps one plan; the public losses, and
``combined_loss`` without one, build a plan per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DISTILL_KINDS = ("soft_cross_entropy", "logit_mse", "kl_divergence", "none")

# probabilities are clamped here before any explicit log
_LOG_FLOOR = 1e-12


class LossPlan:
    """Buffers for the losses of logits of one shape, (..., B, K), built once:
    the softmax's parts, the picked-index base, the per-row and per-model
    sums and each term's loss and logit gradient. A loss writes every array
    into its plan, so its results hold until the plan's next use.
    """

    def __init__(self, shape):
        shape = tuple(shape)
        lead, K = shape[:-1], shape[-1]
        # flat index of each row's first entry; plus its label, of its labelled one
        self.base = np.arange(0, math.prod(lead) * K, K)
        self.picked = np.empty(math.prod(lead), np.intp)
        self.taken = np.empty(math.prod(lead))
        self.row_max = np.empty(lead + (1,))
        self.row_sum = np.empty(lead + (1,))
        self.z = np.empty(shape)  # the shifted logits, then the log-probabilities
        self.p = np.empty(shape)  # exp of the shifted logits, then the probabilities
        self.rows = np.empty(lead)
        self.loss = np.empty(lead[:-1])
        self.grad = np.empty(shape)
        self.dloss = np.empty(lead[:-1])
        self.dgrad = np.empty(shape)
        self.prod = np.empty(shape)


def _softmax_parts(logits: np.ndarray, plan: LossPlan):
    """(probabilities, log-probabilities), both via max subtraction."""
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True, out=plan.row_max),
                    out=plan.z)
    e = np.exp(z, out=plan.p)
    se = np.add.reduce(e, axis=-1, keepdims=True, out=plan.row_sum)
    p = np.divide(e, se, out=plan.p)
    return p, np.subtract(z, np.log(se, out=plan.row_sum), out=plan.z)


def _check_teacher_probs(t: np.ndarray, logits: np.ndarray, plan: LossPlan) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"teacher shape {t.shape} does not match logits {logits.shape}")
    if np.minimum.reduce(t, axis=None) < 0.0 or np.maximum.reduce(np.abs(np.subtract(
            np.add.reduce(t, axis=-1, out=plan.rows), 1.0, out=plan.rows), out=plan.rows),
            axis=None) > 1e-6:
        raise ValueError("teacher rows are not probability vectors (normalized within 1e-6)")
    return t


def _check_labels(labels: np.ndarray, logits: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match batch size "
                         f"{logits.shape[:-1]}")
    if (np.minimum.reduce(labels, axis=None) < 0
            or np.maximum.reduce(labels, axis=None) >= logits.shape[-1]):
        raise ValueError("label out of range")
    return labels


# The _from_parts helpers take _softmax_parts(logits), so one softmax serves
# the hard and the auxiliary term of a combined loss. Each writes its results
# to its own slots of the plan; np.positive is a copy (the identity, written
# to a buffer).

def _hard_ce_from_parts(labels: np.ndarray, p: np.ndarray, log_p: np.ndarray, plan: LossPlan):
    B = p.shape[-2]
    picked = np.add(plan.base, labels.reshape(-1), out=plan.picked)
    loss = np.add.reduce(log_p.take(picked, out=plan.taken).reshape(labels.shape), axis=-1,
                         out=plan.loss)
    loss = np.negative(np.divide(loss, B, out=plan.loss), out=plan.loss)
    grad = np.positive(p, out=plan.grad)
    grad.reshape(-1)[picked] -= 1.0
    grad /= B
    return loss, grad


def _per_model(terms: np.ndarray, B: int, plan: LossPlan) -> np.ndarray:
    """``terms.sum(axis=-1).sum(axis=-1) / B``: each model's batch mean of its
    rows' sums, in the plan's ``dloss``."""
    rows = np.add.reduce(terms, axis=-1, out=plan.rows)
    return np.divide(np.add.reduce(rows, axis=-1, out=plan.dloss), B, out=plan.dloss)


def _soft_ce_from_parts(t: np.ndarray, p: np.ndarray, log_p: np.ndarray, plan: LossPlan):
    B = p.shape[-2]
    loss = np.negative(_per_model(np.multiply(t, log_p, out=plan.prod), B, plan),
                       out=plan.dloss)
    grad = np.subtract(p, t, out=plan.dgrad)
    grad /= B
    return loss, grad


def _kl_div_from_parts(t: np.ndarray, p: np.ndarray, log_p: np.ndarray, plan: LossPlan):
    t_log_t = np.where(t > 0.0, t * np.log(np.maximum(t, _LOG_FLOOR)), 0.0)
    B = p.shape[-2]
    terms = np.subtract(t_log_t, np.multiply(t, log_p, out=plan.prod), out=plan.prod)
    loss = np.maximum(_per_model(terms, B, plan), 0.0, out=plan.dloss)
    grad = np.subtract(p, t, out=plan.dgrad)
    grad /= B
    return loss, grad


def _logit_mse(t: np.ndarray, logits: np.ndarray, plan: LossPlan):
    d = np.subtract(logits, t, out=plan.dgrad)
    per_model = d.shape[-2] * d.shape[-1]
    squares = np.multiply(d, d, out=plan.prod).reshape(d.shape[:-2] + (per_model,))
    loss = np.divide(np.add.reduce(squares, axis=-1, out=plan.dloss), per_model,
                     out=plan.dloss)
    grad = np.multiply(2.0, d, out=plan.dgrad)
    grad /= per_model
    return loss, grad


def hard_ce(labels: np.ndarray, logits: np.ndarray):
    """Mean cross entropy against integer labels.

    loss = mean_b -log softmax(z_b)[y_b], grad = (softmax(z) - onehot(y)) / B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    plan = LossPlan(logits.shape)
    labels = _check_labels(labels, logits)
    return _hard_ce_from_parts(labels, *_softmax_parts(logits, plan), plan)


def hard_ce_loss(labels: np.ndarray, logits: np.ndarray, out: np.ndarray | None = None) -> float:
    """The loss of ``hard_ce`` alone, bit for bit, without its gradient.

    With z = logits - rowmax, -log softmax(z)[y] is z[y] - log(sum(exp(z))),
    the same float operations ``hard_ce`` does on the picked entries. The
    shifted logits are written into ``out`` if given, which may be
    ``logits`` itself: a caller that owns its logits shifts them in place.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits)
    z = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    picked = z[np.arange(len(labels)), labels]
    picked -= np.log(np.exp(z, out=z).sum(axis=1))
    return float(-picked.mean())


def soft_ce(teacher_probs: np.ndarray, logits: np.ndarray):
    """Cross entropy treating the teacher distribution as soft targets.

    loss = mean_b -sum_k t_k log softmax(z)_k, grad = (softmax(z) - t) / B.
    With a one-hot teacher this coincides exactly with hard_ce.
    """
    logits = np.asarray(logits, dtype=np.float64)
    plan = LossPlan(logits.shape)
    t = _check_teacher_probs(teacher_probs, logits, plan)
    return _soft_ce_from_parts(t, *_softmax_parts(logits, plan), plan)


def logit_mse(teacher_logits: np.ndarray, logits: np.ndarray):
    """Mean over batch and classes of the squared logit difference."""
    logits = np.asarray(logits, dtype=np.float64)
    plan = LossPlan(logits.shape)
    return _logit_mse(_check_teacher_logits(teacher_logits, logits), logits, plan)


def kl_div(teacher_probs: np.ndarray, logits: np.ndarray):
    """KL(teacher || softmax(logits)), with 0 log 0 = 0.

    The gradient is identical to soft_ce; the loss differs from it by the
    teacher entropy. Rounding can push the exact-zero case a hair negative,
    so the loss is clamped at 0.
    """
    logits = np.asarray(logits, dtype=np.float64)
    plan = LossPlan(logits.shape)
    t = _check_teacher_probs(teacher_probs, logits, plan)
    return _kl_div_from_parts(t, *_softmax_parts(logits, plan), plan)


@dataclass(frozen=True)
class CombinedLossSpec:
    """Hard-label loss plus an optional distillation term scaled by
    ``distill_weight``."""

    distill: str = "none"
    distill_weight: float = 1.0

    def __post_init__(self):
        if self.distill not in DISTILL_KINDS:
            raise ValueError(f"unknown distillation loss {self.distill!r}")
        if self.distill_weight < 0.0:
            raise ValueError("distill_weight must be nonnegative")


def _check_teacher_logits(t: np.ndarray, logits: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"teacher shape {t.shape} does not match logits {logits.shape}")
    return t


def _distill_term(kind: str, teacher_signal: np.ndarray, logits: np.ndarray, p: np.ndarray,
                  log_p: np.ndarray, plan: LossPlan):
    if kind == "logit_mse":
        return _logit_mse(_check_teacher_logits(teacher_signal, logits), logits, plan)
    t = _check_teacher_probs(teacher_signal, logits, plan)
    if kind == "kl_divergence":
        return _kl_div_from_parts(t, p, log_p, plan)
    return _soft_ce_from_parts(t, p, log_p, plan)


def combined_loss(spec: CombinedLossSpec, labels: np.ndarray, logits: np.ndarray,
                  teacher_signal: np.ndarray | None = None, plan: LossPlan | None = None):
    """Full training objective for one batch.

    ``teacher_signal`` must be supplied exactly when ``spec.distill`` is
    active: mean teacher probabilities for soft_cross_entropy / kl_divergence,
    mean teacher logits for logit_mse. With weight 0 (or no auxiliary term at
    all) the result is bit-identical to hard_ce. The softmax of the logits is
    computed once and shared by the hard and the auxiliary term; the result
    is bit-identical to adding the separately computed terms. Given a
    ``LossPlan`` for the logits' shape, as a training step is, the loss and
    its gradient are written into its buffers; without one, into a new
    plan's.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits)
    if plan is None:
        plan = LossPlan(logits.shape)
    p, log_p = _softmax_parts(logits, plan)
    loss, grad = _hard_ce_from_parts(labels, p, log_p, plan)
    if spec.distill != "none":
        if teacher_signal is None:
            raise ValueError("missing teacher signal for distillation loss")
        w = spec.distill_weight
        if w == 0.0:
            return loss, grad
        dloss, dgrad = _distill_term(spec.distill, teacher_signal, logits, p, log_p, plan)
        return (np.add(loss, np.multiply(w, dloss, out=plan.dloss), out=plan.loss),
                np.add(grad, np.multiply(w, dgrad, out=plan.dgrad), out=plan.grad))
    if teacher_signal is not None:
        raise ValueError("teacher signal supplied but distillation is disabled")
    return loss, grad
