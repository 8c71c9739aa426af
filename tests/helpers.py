"""Shared test oracles.

The finite-difference and naive-loop implementations here are deliberately
independent of the library's vectorized code paths: plain Python loops, one
perturbed evaluation per coordinate.
"""

import numpy as np

from codistill.nn import TASK_LM, Batch, Parameters, _layout, _views, forward


def rel_err(a, b, floor=1e-6):
    """Elementwise relative error with a floor for near-zero denominators."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def fd_logit_grad(loss_fn, logits, h=1e-5):
    """Central finite differences of a scalar loss with respect to the logits."""
    logits = np.asarray(logits, dtype=float)
    g = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        zp = logits.copy()
        zp[idx] += h
        zm = logits.copy()
        zm[idx] -= h
        g[idx] = (loss_fn(zp) - loss_fn(zm)) / (2 * h)
    return g


def fd_param_grad(params, batch, loss_of_logits, h=1e-5):
    """Central finite differences of loss_of_logits(forward(...)) per parameter."""
    base = params.values
    g = np.zeros_like(base)
    for j in range(base.size):
        vp = base.copy()
        vp[j] += h
        vm = base.copy()
        vm[j] -= h
        lp = loss_of_logits(forward(Parameters(params.arch, vp), batch))
        lm = loss_of_logits(forward(Parameters(params.arch, vm), batch))
        g[j] = (lp - lm) / (2 * h)
    return g


def naive_mlp_forward(params, x):
    """Loop-based re-implementation of the classifier forward pass."""
    arch = params.arch
    dims = (arch.input_dim,) + arch.hidden_dims + (arch.output_dim,)
    weights, biases = [], []
    off = 0
    for i in range(len(dims) - 1):
        w = params.values[off:off + dims[i] * dims[i + 1]].reshape(dims[i], dims[i + 1])
        off += dims[i] * dims[i + 1]
        b = params.values[off:off + dims[i + 1]]
        off += dims[i + 1]
        weights.append(w)
        biases.append(b)
    out = np.zeros((x.shape[0], arch.output_dim))
    for r in range(x.shape[0]):
        a = x[r]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            z = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                s = 0.0
                for i in range(w.shape[0]):
                    s += a[i] * w[i, j]
                z[j] = s + b[j]
            a = np.maximum(z, 0.0) if layer < len(weights) - 1 else z
        out[r] = a
    return out


def recompute_backward(params, batch, dlogits):
    """(logits, gradient) the way the network was first written: a fresh
    forward pass that keeps every pre-activation, out-of-place bias and relu,
    and relu masks taken from the pre-activations. The library's pass must
    match it bit for bit."""
    arch = params.arch
    v = _views(arch, params.values)
    if arch.task == TASK_LM:
        a = v["embed"][batch.inputs].reshape(batch.size, arch.input_dim)
    else:
        a = np.asarray(batch.inputs, dtype=np.float64)
    acts, pres = [a], []
    n_layers = len(arch.hidden_dims) + 1
    for i in range(n_layers):
        z = acts[-1] @ v[f"w{i}"] + v[f"b{i}"]
        pres.append(z)
        if i < n_layers - 1:
            acts.append(np.maximum(z, 0.0))
    grads = {}
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in reversed(range(n_layers)):
        grads[f"w{i}"] = acts[i].T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ v[f"w{i}"].T) * (pres[i - 1] > 0.0)
        elif arch.task == TASK_LM:
            dinput = (delta @ v["w0"].T).reshape(batch.size, arch.context_window,
                                                 arch.embedding_dim)
            grads["embed"] = embedding_grad_add_at(batch.inputs, dinput, arch.vocab_size)
    flat = np.concatenate([grads[name].ravel() for name, _ in _layout(arch)])
    return pres[-1], flat


def embedding_grad_add_at(tokens, dinput, vocab_size):
    """One model's embedding gradient the way it was first written: each
    (row, position)'s input gradient added into its token's row by
    ``np.add.at``. ``tokens`` is (R, C), ``dinput`` (R, C, E)."""
    g = np.zeros((vocab_size, dinput.shape[-1]))
    np.add.at(g, tokens, dinput)
    return g


def interleave(streams):
    """Merge W streams of size B into one stream of size W*B.

    The step-t batch is the concatenation, in stream order, of the members'
    step-t batches, so a single consumer sees exactly the examples the W
    separate consumers would have seen at each step.
    """
    streams = list(streams)
    while True:
        parts = [next(s) for s in streams]
        yield Batch(np.concatenate([p.inputs for p in parts], axis=0),
                    np.concatenate([p.labels for p in parts], axis=0))
