"""Per-replica optimizers: plain SGD, Adam, Adagrad.

``step`` is pure: it returns fresh arrays and never mutates its inputs, so
identical inputs give bit-identical outputs. Every update is elementwise, so
the parameters may be one flat vector or an (M, P) stack of M models' vectors
(with state of the same shape): each row gets exactly the update it would get
alone. Optimizer state stays with its worker group; checkpoints exchanged
between groups carry parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMIZER_KINDS = ("sgd", "adam", "adagrad")


class NonFiniteGradientError(ValueError):
    """Raised instead of silently producing NaN parameters."""


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    adagrad_eps: float = 1e-10

    def __post_init__(self):
        # every message starts with the field it is about
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"kind {self.kind!r} is not an optimizer")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        for name in ("eps", "adagrad_eps"):  # 0 gives 0/0 where a gradient stays 0
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class OptimizerState:
    """Kind-specific accumulators, laid out like the flat parameter vector."""

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    acc: np.ndarray | None = None


def init_state(config: OptimizerConfig, n_params) -> OptimizerState:
    """Fresh state for ``n_params`` parameters, or for a stack of that shape."""
    if config.kind == "adam":
        return OptimizerState(t=0, m=np.zeros(n_params), v=np.zeros(n_params))
    if config.kind == "adagrad":
        return OptimizerState(acc=np.zeros(n_params))
    return OptimizerState()


def step(config: OptimizerConfig, state: OptimizerState, values: np.ndarray,
         grad: np.ndarray):
    """Apply one update; returns (new_values, new_state)."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != values.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {values.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteGradientError("gradient contains NaN or Inf")
    lr = config.learning_rate
    # each update below is the textbook expression, evaluated in the same
    # order, with its temporaries reused in place
    if config.kind == "sgd":
        update = lr * g
        return np.subtract(values, update, out=update), state
    if config.kind == "adam":
        t = state.t + 1
        m = config.beta1 * state.m
        m += (1.0 - config.beta1) * g
        v = config.beta2 * state.v
        v += (1.0 - config.beta2) * (g * g)
        denom = np.sqrt(v / (1.0 - config.beta2 ** t))
        denom += config.eps
        update = lr * (m / (1.0 - config.beta1 ** t))
        update /= denom
        return np.subtract(values, update, out=update), OptimizerState(t=t, m=m, v=v)
    acc = g * g
    np.add(state.acc, acc, out=acc)
    denom = np.sqrt(acc)
    denom += config.adagrad_eps
    update = lr * g
    update /= denom
    return np.subtract(values, update, out=update), OptimizerState(acc=acc)
