"""Training losses.

Every loss returns ``(loss, grad)``: the scalar mean over the batch and the
gradient of that mean with respect to the logits, shaped like the logits.
Gradients therefore already carry the 1/B factor and the network backward
pass consumes them unchanged.

The hard-label loss is always cross entropy; the one auxiliary term is a
distillation loss against a teacher signal (soft-target cross entropy, mean
squared logit error, or KL divergence). Label smoothing is that term with
soft-target cross entropy toward a constant teacher, the uniform or the
unigram distribution (Yuan et al., "Revisiting Knowledge Distillation via
Label Smoothing Regularization", CVPR 2020).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DISTILL_KINDS = ("soft_cross_entropy", "logit_mse", "kl_divergence", "none")

# probabilities are clamped here before any explicit log
_LOG_FLOOR = 1e-12


def _softmax_parts(logits: np.ndarray):
    """(probabilities, log-probabilities), both via max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    se = e.sum(axis=1, keepdims=True)
    return e / se, z - np.log(se)


def _check_teacher_probs(t: np.ndarray, logits: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"teacher shape {t.shape} does not match logits {logits.shape}")
    if t.min() < 0.0 or np.abs(t.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("teacher rows are not probability vectors (normalized within 1e-6)")
    return t


def _check_labels(labels: np.ndarray, logits: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    B, K = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} does not match batch size {B}")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError("label out of range")
    return labels


# The _from_parts helpers take _softmax_parts(logits), so one softmax serves
# the hard and the auxiliary term of a combined loss.

def _hard_ce_from_parts(labels: np.ndarray, parts):
    p, log_p = parts
    B = p.shape[0]
    rows = np.arange(B)
    loss = float(-log_p[rows, labels].mean())
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad /= B
    return loss, grad


def _soft_ce_from_parts(t: np.ndarray, parts):
    p, log_p = parts
    loss = float(-(t * log_p).sum(axis=1).mean())
    grad = (p - t) / p.shape[0]
    return loss, grad


def _kl_div_from_parts(t: np.ndarray, parts):
    p, log_p = parts
    t_log_t = np.where(t > 0.0, t * np.log(np.maximum(t, _LOG_FLOOR)), 0.0)
    loss = max(float((t_log_t - t * log_p).sum(axis=1).mean()), 0.0)
    grad = (p - t) / p.shape[0]
    return loss, grad


def hard_ce(labels: np.ndarray, logits: np.ndarray):
    """Mean cross entropy against integer labels.

    loss = mean_b -log softmax(z_b)[y_b], grad = (softmax(z) - onehot(y)) / B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits)
    return _hard_ce_from_parts(labels, _softmax_parts(logits))


def hard_ce_loss(labels: np.ndarray, logits: np.ndarray) -> float:
    """The loss of ``hard_ce`` alone, bit for bit, without its gradient.

    With z = logits - rowmax, -log softmax(z)[y] is z[y] - log(sum(exp(z))),
    the same float operations ``hard_ce`` does on the picked entries.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits)
    z = logits - logits.max(axis=1, keepdims=True)
    picked = z[np.arange(len(labels)), labels] - np.log(np.exp(z).sum(axis=1))
    return float(-picked.mean())


def soft_ce(teacher_probs: np.ndarray, logits: np.ndarray):
    """Cross entropy treating the teacher distribution as soft targets.

    loss = mean_b -sum_k t_k log softmax(z)_k, grad = (softmax(z) - t) / B.
    With a one-hot teacher this coincides exactly with hard_ce.
    """
    logits = np.asarray(logits, dtype=np.float64)
    t = _check_teacher_probs(teacher_probs, logits)
    return _soft_ce_from_parts(t, _softmax_parts(logits))


def logit_mse(teacher_logits: np.ndarray, logits: np.ndarray):
    """Mean over batch and classes of the squared logit difference."""
    logits = np.asarray(logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"teacher shape {t.shape} does not match logits {logits.shape}")
    d = logits - t
    loss = float((d * d).mean())
    grad = 2.0 * d / d.size
    return loss, grad


def kl_div(teacher_probs: np.ndarray, logits: np.ndarray):
    """KL(teacher || softmax(logits)), with 0 log 0 = 0.

    The gradient is identical to soft_ce; the loss differs from it by the
    teacher entropy. Rounding can push the exact-zero case a hair negative,
    so the loss is clamped at 0.
    """
    logits = np.asarray(logits, dtype=np.float64)
    t = _check_teacher_probs(teacher_probs, logits)
    return _kl_div_from_parts(t, _softmax_parts(logits))


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


def _distill_term(kind: str, teacher_signal: np.ndarray, logits: np.ndarray, parts):
    if kind == "logit_mse":
        return logit_mse(teacher_signal, logits)
    t = _check_teacher_probs(teacher_signal, logits)
    if kind == "kl_divergence":
        return _kl_div_from_parts(t, parts)
    return _soft_ce_from_parts(t, parts)


def combined_loss(spec: CombinedLossSpec, labels: np.ndarray, logits: np.ndarray,
                  teacher_signal: np.ndarray | None = None):
    """Full training objective for one batch.

    ``teacher_signal`` must be supplied exactly when ``spec.distill`` is
    active: mean teacher probabilities for soft_cross_entropy / kl_divergence,
    mean teacher logits for logit_mse. With weight 0 (or no auxiliary term at
    all) the result is bit-identical to hard_ce. The softmax of the logits is
    computed once and shared by the hard and the auxiliary term; the result
    is bit-identical to adding the separately computed terms.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits)
    parts = _softmax_parts(logits)
    loss, grad = _hard_ce_from_parts(labels, parts)
    if spec.distill != "none":
        if teacher_signal is None:
            raise ValueError("missing teacher signal for distillation loss")
        if spec.distill_weight == 0.0:
            return loss, grad
        dloss, dgrad = _distill_term(spec.distill, teacher_signal, logits, parts)
        return loss + spec.distill_weight * dloss, grad + spec.distill_weight * dgrad
    if teacher_signal is not None:
        raise ValueError("teacher signal supplied but distillation is disabled")
    return loss, grad
