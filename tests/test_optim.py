import numpy as np
import pytest

from codistill.optim import (NonFiniteGradientError, OptimizerConfig, init_state, step)


def run_steps(config, x0, grad_fn, n):
    state = init_state(config, len(x0))
    x = np.asarray(x0, dtype=float)
    for _ in range(n):
        x, state = step(config, state, x, grad_fn(x))
    return x


class TestSGD:
    def test_arithmetic(self):
        cfg = OptimizerConfig("sgd", 0.1)
        new, _ = step(cfg, init_state(cfg, 1), np.array([1.0]), np.array([2.0]))
        assert new[0] == 0.8

    def test_scaling_commutes_for_powers_of_two(self):
        x = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 0.7, -1.1])
        for c in (2.0, 4.0, 0.25):
            a, _ = step(OptimizerConfig("sgd", 0.1), init_state(OptimizerConfig("sgd", 0.1), 3),
                        x, c * g)
            b, _ = step(OptimizerConfig("sgd", 0.1 * c), init_state(OptimizerConfig("sgd", 0.1 * c), 3),
                        x, g)
            assert np.array_equal(a, b)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        cfg = OptimizerConfig("adam", 0.01)
        g = np.array([3.0, -0.002, 11.0])
        new, state = step(cfg, init_state(cfg, 3), np.zeros(3), g)
        assert state.t == 1
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) up to eps effects
        assert np.abs(new + 0.01 * np.sign(g)).max() < 1e-4

    def test_state_advances(self):
        cfg = OptimizerConfig("adam", 0.01)
        state = init_state(cfg, 2)
        x = np.zeros(2)
        for t in range(1, 4):
            x, state = step(cfg, state, x, np.ones(2))
            assert state.t == t


class TestAdagrad:
    def test_first_step(self):
        cfg = OptimizerConfig("adagrad", 0.001)
        new, state = step(cfg, init_state(cfg, 1), np.array([0.0]), np.array([3.0]))
        # g / sqrt(g^2) = sign(g)
        assert abs(new[0] + 0.001) < 1e-9
        assert state.acc[0] == 9.0

    def test_accumulator_monotone(self):
        cfg = OptimizerConfig("adagrad", 0.01)
        rng = np.random.default_rng(0)
        state = init_state(cfg, 4)
        x = np.zeros(4)
        prev = state.acc.copy()
        for _ in range(50):
            x, state = step(cfg, state, x, rng.standard_normal(4))
            assert np.all(state.acc >= prev)
            prev = state.acc.copy()


class TestCommon:
    def test_deterministic(self):
        for kind, lr in (("sgd", 0.1), ("adam", 0.01), ("adagrad", 0.01)):
            cfg = OptimizerConfig(kind, lr)
            s0 = init_state(cfg, 3)
            x = np.array([1.0, 2.0, 3.0])
            g = np.array([0.1, -0.2, 0.3])
            a, sa = step(cfg, s0, x, g)
            b, sb = step(cfg, s0, x, g)
            assert np.array_equal(a, b)
            assert sa.t == sb.t

    def test_inputs_not_mutated(self):
        cfg = OptimizerConfig("adam", 0.01)
        state = init_state(cfg, 2)
        x = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        x0, g0, m0 = x.copy(), g.copy(), state.m.copy()
        step(cfg, state, x, g)
        assert np.array_equal(x, x0) and np.array_equal(g, g0)
        assert np.array_equal(state.m, m0)

    def test_non_finite_gradient(self):
        cfg = OptimizerConfig("sgd", 0.1)
        with pytest.raises(NonFiniteGradientError):
            step(cfg, init_state(cfg, 2), np.zeros(2), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    def test_gradient_shape_must_match(self, kind):
        cfg = OptimizerConfig(kind, 0.1)
        with pytest.raises(ValueError, match=r"gradient shape \(3,\) does not match parameters"):
            step(cfg, init_state(cfg, 2), np.zeros(2), np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig("momentum", 0.1)
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", 0.0)
        with pytest.raises(ValueError):
            OptimizerConfig("adam", 0.1, beta1=1.0)

    def test_converges_on_convex_quadratic(self):
        # f(x) = 0.5 (x - m)^T A (x - m); closed-form minimum is m
        A = np.array([[3.0, 0.4], [0.4, 1.0]])
        m = np.array([1.5, -2.0])

        def grad(x):
            return A @ (x - m)

        def f(x):
            d = x - m
            return 0.5 * d @ A @ d

        for cfg in (OptimizerConfig("sgd", 0.1), OptimizerConfig("adam", 0.05),
                    OptimizerConfig("adagrad", 0.9)):
            x = run_steps(cfg, np.array([4.0, 4.0]), grad, 10_000)
            assert f(x) < 1e-6, cfg.kind


class TestBufferForm:
    """``step(..., scratch=)`` updates the values and the state's arrays in
    place; over several steps it gives the pure form's numbers bit for bit,
    on a flat vector and on an (M, P) stack."""

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_matches_pure_form(self, kind, shape):
        cfg = OptimizerConfig(kind, 0.05)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(shape)
        pure_x, pure_state = x, init_state(cfg, shape)
        values, state, scratch = x.copy(), init_state(cfg, shape), np.empty(shape)
        held = {name: getattr(state, name) for name in ("m", "v", "acc")}
        for _ in range(4):
            g = rng.standard_normal(shape)
            pure_x, pure_state = step(cfg, pure_state, pure_x, g)
            new, state = step(cfg, state, values, g.copy(), scratch=scratch)
            assert new is values
            assert np.array_equal(values, pure_x)
            assert state.t == pure_state.t
            for name, array in held.items():
                a, b = getattr(state, name), getattr(pure_state, name)
                assert a is array
                assert (a is None and b is None) or np.array_equal(a, b)
