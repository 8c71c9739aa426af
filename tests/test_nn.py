import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codistill import nn
from codistill.losses import hard_ce
from codistill.nn import (Architecture, Batch, CorruptHeaderError, FingerprintMismatchError,
                          Parameters, Pass, Plan, TruncatedPayloadError, _embedding_grad, _layout,
                          _slices, _views, backward, deserialize_checkpoint, forward, init_params,
                          param_count, predict_proba, serialize_params, softmax)
from helpers import (embedding_grad_add_at, fd_param_grad, naive_mlp_forward,
                     recompute_backward, rel_err)


class TestArchitecture:
    def test_equality_and_fingerprint(self):
        a = Architecture(6, (8, 5), 4)
        b = Architecture(6, [8, 5], 4)
        assert a == b
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != Architecture(6, (8, 6), 4).fingerprint()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Architecture(0, (8,), 4)

    def test_lm_dimension_invariant(self):
        with pytest.raises(ValueError, match="context_window"):
            Architecture(13, (8,), 9, task="lm_fixed_context",
                         context_window=3, vocab_size=9, embedding_dim=4)
        ok = Architecture(12, (8,), 9, task="lm_fixed_context",
                          context_window=3, vocab_size=9, embedding_dim=4)
        assert param_count(ok) == 9 * 4 + (12 * 8 + 8) + (8 * 9 + 9)

    @pytest.mark.parametrize("arch_name", ["small_arch", "lm_arch"])
    def test_cached_slices_match_layout(self, arch_name, request):
        arch = request.getfixturevalue(arch_name)
        slices = _slices(arch)
        assert [(name, shape) for name, shape, _, _ in slices] == list(_layout(arch))
        offset = 0
        for _, shape, start, stop in slices:
            assert start == offset
            offset += int(np.prod(shape))
            assert stop == offset
        assert param_count(arch) == offset
        values = np.arange(float(offset))
        views = _views(arch, values)
        for name, shape, start, stop in slices:
            assert views[name].shape == shape
            assert np.array_equal(views[name].ravel(), values[start:stop])


class TestInitParams:
    def test_deterministic(self, small_arch):
        a = init_params(small_arch, 7)
        b = init_params(small_arch, 7)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self, small_arch):
        a = init_params(small_arch, 7)
        b = init_params(small_arch, 8)
        assert not np.array_equal(a.values, b.values)

    def test_biases_zero(self, small_arch):
        p = init_params(small_arch, 7)
        # layout: w0 (6x8), b0 (8), w1 (8x5), b1 (5), w2 (5x4), b2 (4)
        off = 6 * 8
        assert np.all(p.values[off:off + 8] == 0.0)
        off += 8 + 8 * 5
        assert np.all(p.values[off:off + 5] == 0.0)
        off += 5 + 5 * 4
        assert np.all(p.values[off:off + 4] == 0.0)

    def test_param_count_enforced(self, small_arch):
        with pytest.raises(ValueError, match="count"):
            Parameters(small_arch, np.zeros(3))

    def test_non_finite_rejected(self, small_arch):
        bad = np.zeros(param_count(small_arch))
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Parameters(small_arch, bad)


class TestForward:
    def test_zero_params_give_zero_logits(self, small_arch, small_batch):
        p = Parameters(small_arch, np.zeros(param_count(small_arch)))
        assert np.all(forward(p, small_batch) == 0.0)

    def test_single_linear_layer(self):
        arch = Architecture(1, (), 1)
        p = Parameters(arch, np.array([2.0, 1.0]))  # w=2, b=1
        out = forward(p, Batch(np.array([[3.0]]), np.array([0])))
        assert out.shape == (1, 1)
        assert out[0, 0] == 7.0

    def test_matches_naive_loop_oracle(self, small_arch, small_batch, small_params):
        got = forward(small_params, small_batch)
        want = naive_mlp_forward(small_params, small_batch.inputs)
        assert np.abs(got - want).max() < 1e-12

    def test_dimension_mismatch(self, small_params):
        with pytest.raises(ValueError, match="input_dim"):
            forward(small_params, Batch(np.zeros((2, 5)), np.zeros(2, dtype=int)))

    def test_pure(self, small_params, small_batch):
        before_inputs = small_batch.inputs.copy()
        before_values = small_params.values.copy()
        forward(small_params, small_batch)
        assert np.array_equal(small_batch.inputs, before_inputs)
        assert np.array_equal(small_params.values, before_values)

    def test_lm_token_ids_range_checked(self, lm_arch, lm_batch):
        p = init_params(lm_arch, 1)
        for bad in (lm_arch.vocab_size, -1):
            tokens = lm_batch.inputs.copy()
            tokens[2, 1] = bad
            with pytest.raises(ValueError, match="token id out of range"):
                forward(p, Batch(tokens, lm_batch.labels))

    def test_lm_context_width_checked(self, lm_arch, lm_batch):
        wide = np.zeros((lm_batch.size, lm_arch.context_window + 1), np.int64)
        with pytest.raises(ValueError, match="expected 3 context tokens, got 4"):
            forward(init_params(lm_arch, 1), Batch(wide, lm_batch.labels))

    def test_lm_forward_shape(self, lm_arch, lm_batch):
        p = init_params(lm_arch, 1)
        out = forward(p, lm_batch)
        assert out.shape == (lm_batch.size, lm_arch.output_dim)
        assert np.all(np.isfinite(out))


class TestPredictProba:
    def test_uniform_logits(self):
        p = softmax(np.zeros((1, 3)))
        assert np.abs(p - 1 / 3).max() < 1e-15

    def test_log3(self):
        p = softmax(np.array([[0.0, np.log(3.0)]]))
        assert np.abs(p - [0.25, 0.75]).max() < 1e-12

    def test_extreme_logits_stable(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] > 1 - 1e-12 and p[0, 1] < 1e-12

    def test_rows_sum_to_one(self, small_params, small_batch):
        p = predict_proba(small_params, small_batch)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
        assert p.min() > 0.0 and p.max() < 1.0

    @given(hnp.arrays(np.float64,
                      st.tuples(st.integers(1, 5), st.integers(1, 6)),
                      elements=st.floats(-1e4, 1e4)))
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_property(self, logits):
        p = softmax(logits)
        assert np.all(np.isfinite(p))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


class TestBackward:
    def test_zero_upstream_gives_zero_grad(self, small_params, small_batch):
        g = backward(small_params, small_batch, np.zeros((small_batch.size, 4)))
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self, small_arch, small_batch):
        for seed in range(10):
            p = init_params(small_arch, seed)
            logits = forward(p, small_batch)
            _, dlogits = hard_ce(small_batch.labels, logits)
            analytic = backward(p, small_batch, dlogits)
            fd = fd_param_grad(p, small_batch,
                               lambda z: hard_ce(small_batch.labels, z)[0])
            assert rel_err(analytic, fd).max() < 1e-4

    def test_lm_matches_finite_differences(self, lm_arch, lm_batch):
        p = init_params(lm_arch, 2)
        logits = forward(p, lm_batch)
        _, dlogits = hard_ce(lm_batch.labels, logits)
        analytic = backward(p, lm_batch, dlogits)
        fd = fd_param_grad(p, lm_batch, lambda z: hard_ce(lm_batch.labels, z)[0])
        assert rel_err(analytic, fd).max() < 1e-4

    def test_deterministic(self, small_params, small_batch):
        logits = forward(small_params, small_batch)
        _, dlogits = hard_ce(small_batch.labels, logits)
        a = backward(small_params, small_batch, dlogits)
        b = backward(small_params, small_batch, dlogits)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, small_params, small_batch):
        with pytest.raises(ValueError, match="shape"):
            backward(small_params, small_batch, np.zeros((small_batch.size, 3)))

    def test_non_finite_upstream(self, small_params, small_batch):
        bad = np.zeros((small_batch.size, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            backward(small_params, small_batch, bad)


def _trace_case(arch, seed, batch_size):
    rng = np.random.default_rng(seed)
    params = Parameters(arch, rng.standard_normal(param_count(arch)))
    if arch.task == "lm_fixed_context":
        inputs = rng.integers(0, arch.vocab_size, size=(batch_size, arch.context_window))
    else:
        inputs = rng.standard_normal((batch_size, arch.input_dim)) * 3
    return params, Batch(inputs, rng.integers(0, arch.output_dim, size=batch_size))


def _stack_of_one(params, batch, forward_only=0):
    """One model's pass as a training step runs it: a plan whose input buffer
    is fed the batch, then the forward. With ``forward_only`` k, the plan
    also holds k forward-only rows of other parameters, fed the same batch,
    that the forward runs too, as a stack's teacher rows: the model's
    backward buffers then live in them. Returns the model's pass, inputs and
    logits."""
    plan = Plan(params.arch, 1 + forward_only, batch.size, n_grad=1)
    plan.inputs[...] = batch.inputs
    values = np.stack([params.values] + [params.values * 0.5 + k for k in range(forward_only)])
    logits = Pass(plan, values).forward(plan.inputs)[:1]
    return Pass(plan, values, 1), plan.inputs[:1], logits


class TestPass:
    """One forward pass serves both the loss and the gradient; both must be
    bit-identical to a fresh forward and a backward that recomputes it."""

    @pytest.mark.parametrize("forward_only", [0, 2])
    @pytest.mark.parametrize("arch_name", ["small_arch", "lm_arch"])
    @given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_grad_equals_recompute_then_backward(self, arch_name, forward_only, seed,
                                                 batch_size, request):
        arch = request.getfixturevalue(arch_name)
        params, batch = _trace_case(arch, seed, batch_size)
        net, x, logits = _stack_of_one(params, batch, forward_only)
        _, dlogits = hard_ce(batch.labels, logits[0])
        want_logits, want_grad = recompute_backward(params, batch, dlogits)
        assert np.array_equal(logits[0], want_logits)
        assert np.array_equal(forward(params, batch), want_logits)
        got = net.backward(x, dlogits[None]).copy()
        assert got.shape == (1, param_count(arch))
        assert np.array_equal(got[0], want_grad)
        assert np.array_equal(backward(params, batch, dlogits), want_grad)
        # the activations left in the plan are not consumed by a gradient
        assert np.array_equal(net.backward(x, dlogits[None]), got)

    @pytest.mark.parametrize("arch_name", ["small_arch", "lm_arch"])
    def test_large_batch_matches_recompute(self, arch_name, request):
        arch = request.getfixturevalue(arch_name)
        params, batch = _trace_case(arch, 3, 2000)
        net, x, logits = _stack_of_one(params, batch)
        dlogits = np.random.default_rng(4).standard_normal(logits.shape[1:])
        want_logits, want_grad = recompute_backward(params, batch, dlogits)
        assert np.array_equal(logits[0], want_logits)
        assert np.array_equal(net.backward(x, dlogits[None])[0], want_grad)

    def test_grad_checks_upstream(self, small_params, small_batch):
        net, x, _ = _stack_of_one(small_params, small_batch)
        with pytest.raises(ValueError, match="shape"):
            backward(small_params, small_batch, np.zeros((small_batch.size, 3)))
        bad = np.zeros((1, small_batch.size, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            net.backward(x, bad)

    def test_validates_inputs(self, small_params):
        batch = Batch(np.zeros((2, 5)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="input_dim"):
            forward(small_params, batch)
        with pytest.raises(ValueError, match="input_dim"):
            backward(small_params, batch, np.zeros((2, 4)))


DESK_ARCH = Architecture(32, (64, 32), 10)
DESK_LM = Architecture(8 * 16, (64, 32), 40, task="lm_fixed_context", context_window=8,
                       vocab_size=40, embedding_dim=16)


class TestStackedKernel:
    """M models in one stacked forward and gradient give each model exactly
    what its own 2-D pass gives: the lockstep step relies on this, and a numpy
    or BLAS change that broke it fails here by name."""

    @pytest.mark.parametrize("arch", [DESK_ARCH, DESK_LM], ids=["classification", "lm"])
    @pytest.mark.parametrize("n_models", [1, 2, 4, 12])
    @pytest.mark.parametrize("rows", [32, 64])
    def test_stack_equals_each_model_alone(self, arch, n_models, rows):
        cases = [_trace_case(arch, 100 * n_models + m, rows) for m in range(n_models)]
        values = np.stack([p.values for p, _ in cases])
        plan = Plan(arch, n_models, rows)
        x = plan.inputs
        x[...] = np.stack([b.inputs for _, b in cases])
        net = Pass(plan, values)
        logits = net.forward(x)
        dlogits = np.stack([hard_ce(b.labels, logits[m])[1]
                            for m, (_, b) in enumerate(cases)])
        grads = net.backward(x, dlogits)
        assert logits.shape == (n_models, rows, arch.output_dim)
        assert grads.shape == (n_models, param_count(arch))
        # the forward-only pass, as teachers and validation run it
        forward_only = Pass(Plan(arch, n_models, rows, n_grad=0), values)
        assert np.array_equal(forward_only.forward(x.copy()), logits)
        for m, (params, batch) in enumerate(cases):
            want_logits, want_grad = recompute_backward(params, batch, dlogits[m])
            assert np.array_equal(logits[m], want_logits)
            assert np.array_equal(grads[m], want_grad)

    @given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 5),
           rows=st.integers(1, 40), window=st.integers(1, 6), vocab=st.integers(1, 12),
           dim=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_bincount_scatter_equals_add_at(self, seed, n_models, rows, window, vocab, dim):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, vocab, size=(n_models, rows, window))
        # magnitudes far apart, so any change of summation order shows
        dinput = rng.standard_normal((n_models, rows, window, dim)) * 10.0 ** rng.integers(
            -100, 100, size=(n_models, rows, window, dim))
        got = _embedding_grad(tokens, dinput, vocab)
        for m in range(n_models):
            assert np.array_equal(got[m], embedding_grad_add_at(tokens[m], dinput[m], vocab))


class TestSerialization:
    def test_round_trip_bit_exact(self, small_arch):
        p = init_params(small_arch, 11)
        data = serialize_params(p, step=123, model_id=4)
        q, step, model_id, f32 = deserialize_checkpoint(data, small_arch)
        assert step == 123 and model_id == 4 and not f32
        assert np.array_equal(p.values, q.values)

    def test_round_trip_any_params_property(self, small_arch):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Parameters(small_arch, rng.standard_normal(param_count(small_arch)) * 100)
            assert np.array_equal(
                deserialize_checkpoint(serialize_params(p), small_arch)[0].values, p.values)

    def test_float32_payload(self, small_arch):
        p = init_params(small_arch, 11)
        data = serialize_params(p, float32=True)
        assert len(data) < len(serialize_params(p))
        q = deserialize_checkpoint(data, small_arch)[0]
        assert np.abs(q.values - p.values).max() < 1e-6

    def test_wrong_magic(self, small_arch):
        data = serialize_params(init_params(small_arch, 1))
        with pytest.raises(CorruptHeaderError):
            deserialize_checkpoint(b"XXXX" + data[4:], small_arch)

    def test_fingerprint_mismatch(self, small_arch):
        other = Architecture(6, (8, 6), 4)
        data = serialize_params(init_params(small_arch, 1))
        with pytest.raises(FingerprintMismatchError):
            deserialize_checkpoint(data, other)

    def test_truncated_payload(self, small_arch):
        data = serialize_params(init_params(small_arch, 1))
        with pytest.raises(TruncatedPayloadError):
            deserialize_checkpoint(data[:-4], small_arch)

    @pytest.mark.parametrize("field, value, match", [
        (1, 2, "unsupported format version 2"),
        (5, 2, "unknown payload dtype flag 2"),
        (6, 999, "parameter count 999 disagrees with architecture"),
    ], ids=["version", "dtype_flag", "count"])
    def test_header_fields_checked(self, small_arch, field, value, match):
        """magic, version, fingerprint, step, model id, dtype flag, count"""
        data = serialize_params(init_params(small_arch, 1))
        fields = list(nn._HEADER.unpack_from(data))
        fields[field] = value
        with pytest.raises(CorruptHeaderError, match=match):
            deserialize_checkpoint(nn._HEADER.pack(*fields) + data[nn._HEADER.size:], small_arch)

    def test_short_header(self, small_arch):
        with pytest.raises(CorruptHeaderError):
            deserialize_checkpoint(b"CODL", small_arch)


class TestPlan:
    """A plan's buffers give the pure forms' numbers bit for bit, pass after
    pass, with the parameter stack alternating between two buffers as a
    training stack's does."""

    @pytest.mark.parametrize("arch", [DESK_ARCH, DESK_LM], ids=["classification", "lm"])
    def test_buffered_passes_equal_pure_forms(self, arch):
        M, R = 3, 16
        plan = Plan(arch, M, R)
        buffers = [np.empty((M, param_count(arch))) for _ in range(2)]
        passes = [Pass(plan, b) for b in buffers]  # bound once, as a training stack's
        x = plan.inputs
        rng = np.random.default_rng(6)
        for k in range(4):
            cases = [_trace_case(arch, 10 * k + m, R) for m in range(M)]
            values = buffers[k % 2]
            values[...] = np.stack([p.values for p, _ in cases])
            x[...] = np.stack([b.inputs for _, b in cases])
            dlogits = rng.standard_normal((M, R, arch.output_dim))
            net = passes[k % 2]
            logits = net.forward(x)
            assert logits is plan.outputs[-1]
            grad = net.backward(x, dlogits)
            assert grad is plan.grad
            for m, (params, batch) in enumerate(cases):
                assert np.array_equal(logits[m], forward(params, batch))
                assert np.array_equal(grad[m], backward(params, batch, dlogits[m]))

    @pytest.mark.parametrize("arch", [DESK_ARCH, DESK_LM], ids=["classification", "lm"])
    @pytest.mark.parametrize("n_models,n_grad", [(2, 1), (3, 1), (5, 2), (16, 4), (3, 2)])
    def test_backward_buffers_live_in_forward_only_rows(self, arch, n_models, n_grad):
        """With M >= 2G forward-only rows, each hidden layer's deltas are rows
        [G, 2G) of that layer's output; the lm's bincount index, then its
        input gradient where it fits (M >= 3G), follow in the forward-only
        rows' gathered embeddings. None shares a gradient row's activations.
        A plan with fewer forward-only rows allocates them."""
        M, G, R = n_models, n_grad, 8
        plan = Plan(arch, M, R, n_grad=G)
        spare = M >= 2 * G
        for out, delta in zip(plan.outputs, plan.deltas):
            assert delta.shape == (G, R, out.shape[-1])
            assert np.shares_memory(delta, out[G:2 * G]) == spare
            assert not np.shares_memory(delta, out[:G])
        if arch.task == "lm_fixed_context":
            lm_rows = G * R * arch.context_window
            grad_rows, teacher_rows = plan.embedded[:lm_rows], plan.embedded[lm_rows:]
            assert plan.flat.dtype == np.intp and plan.flat.shape == (lm_rows, arch.embedding_dim)
            assert np.shares_memory(plan.flat, teacher_rows) == spare
            assert np.shares_memory(plan.dinput, teacher_rows) == (M >= 3 * G)
            for buffer in (plan.flat, plan.dinput):
                assert not np.shares_memory(buffer, grad_rows)
            assert not np.shares_memory(plan.flat, plan.dinput)

    def test_shape_must_match(self, small_params, small_batch):
        plan = Plan(small_params.arch, 1, small_batch.size + 1)
        with pytest.raises(ValueError, match="plan"):
            forward(small_params, small_batch, plan)

    @pytest.mark.parametrize("arch", [DESK_ARCH, DESK_LM], ids=["classification", "lm"])
    def test_forward_only_plan_holds_no_gradient_memory(self, arch):
        plan = Plan(arch, 4, 50, n_grad=0)
        grad_slots = plan.masks + plan.deltas + [plan.grad]
        if arch.task == "lm_fixed_context":
            grad_slots += [plan.dinput, plan.flat]
        assert sum(a.nbytes for a in grad_slots) == 0
        assert plan.outputs[-1].shape == (4, 50, arch.output_dim)
        for n_grad in (-1, 5):
            with pytest.raises(ValueError, match="n_grad"):
                Plan(arch, 4, 50, n_grad=n_grad)


class TestBatch:
    def test_rows_are_gathered_once_on_first_read(self):
        source = np.arange(12.0).reshape(6, 2)
        batch = Batch(source, np.array([1, 0]), np.array([4, 1]))
        assert batch.size == 2
        first = batch.inputs
        assert np.array_equal(first, source[[4, 1]]) and batch.inputs is first
        with pytest.raises(ValueError, match="one label per row"):
            Batch(source, np.array([1, 0, 1]), np.array([4, 1]))
        with pytest.raises(ValueError, match="at least one example"):
            Batch(source, np.array([], dtype=int), np.array([], dtype=int))
