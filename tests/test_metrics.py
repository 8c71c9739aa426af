import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codistill.data import gen_classification, split_train_val
from codistill.distrib import GroupConfig, train_baseline
from codistill.losses import CombinedLossSpec, hard_ce
from codistill.metrics import (CSV_COLUMNS, MetricRecord, churn_experiment, ensemble_predict,
                               evaluate, format_row, parse_row,
                               prediction_churn, probs_nll, steps_to_target)
from codistill.nn import (Architecture, Batch, Parameters, Plan, forward, init_params,
                          param_count, predict_proba)
from codistill.optim import OptimizerConfig

ARCH = Architecture(5, (8,), 3)


def rand_params(seed):
    return init_params(ARCH, seed)


def rand_val(seed, n=40):
    rng = np.random.default_rng(seed)
    return Batch(rng.standard_normal((n, 5)), rng.integers(0, 3, size=n))


def record(step, loss):
    return MetricRecord("r", step, 0.0, None, loss, 0.0)


class TestEvaluate:
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e100])
    def test_loss_equals_hard_ce_bit_for_bit(self, scale):
        p = Parameters(ARCH, rand_params(3).values * scale)
        val = rand_val(4, n=300)
        loss, acc = evaluate(p, val)
        logits = forward(p, val)
        assert loss == hard_ce(val.labels, logits)[0]
        assert acc == float((logits.argmax(axis=1) == val.labels).mean())

    def test_uniform_predictor(self):
        p = Parameters(ARCH, np.zeros(param_count(ARCH)))
        val = rand_val(0)
        loss, acc = evaluate(p, val)
        assert abs(loss - np.log(3)) < 1e-12
        # argmax over equal logits picks class 0
        assert abs(acc - (val.labels == 0).mean()) < 1e-12

    def test_uniform_predictor_ten_classes(self):
        arch = Architecture(5, (8,), 10)
        p = Parameters(arch, np.zeros(param_count(arch)))
        rng = np.random.default_rng(1)
        val = Batch(rng.standard_normal((500, 5)), rng.integers(0, 10, size=500))
        loss, acc = evaluate(p, val)
        assert abs(loss - np.log(10)) < 1e-12
        assert acc < 0.25  # near chance

    def test_perfect_confident_predictor(self):
        arch = Architecture(3, (), 3)
        # logits = 1000 * onehot(input direction)
        values = np.concatenate([np.eye(3).ravel() * 1000.0, np.zeros(3)])
        p = Parameters(arch, values)
        val = Batch(np.eye(3)[np.array([0, 1, 2, 1])], np.array([0, 1, 2, 1]))
        loss, acc = evaluate(p, val)
        assert loss < 1e-12
        assert acc == 1.0

    def test_matches_naive_loop_oracle(self):
        p = rand_params(1)
        val = rand_val(2)
        loss, acc = evaluate(p, val)
        # independent per-example computation
        total, correct = 0.0, 0
        for i in range(val.size):
            one = Batch(val.inputs[i:i + 1], val.labels[i:i + 1])
            probs = predict_proba(p, one)[0]
            total += -np.log(probs[val.labels[i]])
            correct += int(probs.argmax() == val.labels[i])
        assert abs(loss - total / val.size) < 1e-12
        assert acc == correct / val.size

    @pytest.mark.parametrize("head", ["classification", "lm"])
    def test_one_plan_serves_many_models(self, head, lm_arch):
        """One forward-only plan, as a validation loop binds it, reused by 4
        models in turn: each result is bit-identical to a call with a plan of
        its own."""
        if head == "lm":
            arch, rng = lm_arch, np.random.default_rng(8)
            val = Batch(rng.integers(0, arch.vocab_size, size=(300, arch.context_window)),
                        rng.integers(0, arch.vocab_size, size=300))
        else:
            arch, val = ARCH, rand_val(8, n=300)
        plan = Plan(arch, 1, val.size, n_grad=0)
        models = [init_params(arch, s) for s in range(4)]
        got = [evaluate(m, val, plan) for m in models]
        assert got == [evaluate(m, val) for m in models]
        assert len(set(got)) == 4

    def test_empty_validation(self):
        """``Batch`` refuses an empty batch; ``evaluate`` still checks
        whatever it is given, here a stand-in with no rows."""
        class Empty:
            size = 0
            inputs = np.zeros((0, 5))
            labels = np.zeros(0, dtype=int)

        with pytest.raises(ValueError, match="at least one example"):
            Batch(np.zeros((0, 5)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty validation set"):
            evaluate(rand_params(0), Empty())


class TestStepsToTarget:
    def test_examples(self):
        records = [record(100, 1.0), record(200, 0.8), record(300, 0.6)]
        assert steps_to_target(records, 0.7) == 300
        assert steps_to_target(records, 2.0) == 100
        assert steps_to_target(records, 0.1) is None


class TestEnsemble:
    def test_identical_members_equal_single_model(self):
        p = rand_params(3)
        val = rand_val(4)
        ens = ensemble_predict([p, p], val)
        assert np.abs(ens - predict_proba(p, val)).max() < 1e-15

    def test_opposite_constant_predictors(self):
        arch = Architecture(1, (), 2)  # values: w (1x2) then b (2)
        a = Parameters(arch, np.array([1000.0, 0.0, 0.0, 0.0]))  # always class 0
        b = Parameters(arch, np.array([0.0, 1000.0, 0.0, 0.0]))  # always class 1
        val = Batch(np.ones((3, 1)), np.array([0, 1, 0]))
        ens = ensemble_predict([a, b], val)
        assert np.abs(ens - 0.5).max() < 1e-12

    def test_rows_sum_to_one(self):
        members = [rand_params(s) for s in range(4)]
        ens = ensemble_predict(members, rand_val(5))
        assert np.abs(ens.sum(axis=1) - 1.0).max() < 1e-12

    def test_jensen_bound_every_example(self):
        members = [rand_params(s) for s in (7, 8)]
        val = rand_val(6, n=100)
        ens_nll = probs_nll(ensemble_predict(members, val), val.labels)
        member_nll = np.mean([probs_nll(predict_proba(m, val), val.labels)
                              for m in members], axis=0)
        assert np.all(ens_nll <= member_nll + 1e-12)

    def test_architecture_mismatch(self):
        other = init_params(Architecture(5, (9,), 3), 0)
        with pytest.raises(ValueError, match="mismatch"):
            ensemble_predict([rand_params(0), other], rand_val(0))

    def test_empty_ensemble(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            ensemble_predict([], rand_val(1))


class TestPredictionChurn:
    def test_identical_models_zero(self):
        p = rand_params(9)
        assert prediction_churn(p, p, rand_val(1)) == 0.0

    def test_opposite_constant_predictors_one(self):
        arch = Architecture(1, (), 2)
        a = Parameters(arch, np.array([1000.0, 0.0, 0.0, 0.0]))
        b = Parameters(arch, np.array([0.0, 1000.0, 0.0, 0.0]))
        val = Batch(np.ones((5, 1)), np.zeros(5, dtype=int))
        assert abs(prediction_churn(a, b, val) - 1.0) < 1e-12

    def test_symmetric(self):
        a, b = rand_params(1), rand_params(2)
        val = rand_val(3)
        assert prediction_churn(a, b, val) == prediction_churn(b, a, val)

    def test_pseudometric_properties(self):
        val = rand_val(4, n=30)
        models = [rand_params(s) for s in range(5)]
        for x in models:
            assert prediction_churn(x, x, val) == 0.0
        for x, y, z in [(0, 1, 2), (1, 3, 4), (0, 2, 4)]:
            dxy = prediction_churn(models[x], models[y], val)
            dyz = prediction_churn(models[y], models[z], val)
            dxz = prediction_churn(models[x], models[z], val)
            assert dxy >= 0.0
            assert dxz <= dxy + dyz + 1e-15


class TestChurnExperiment:
    def _train_fn(self, train, val):
        group = lambda seed: GroupConfig(1, 16, OptimizerConfig("sgd", 0.2),
                                         CombinedLossSpec(), seed)

        def fn(seed):
            params, _ = train_baseline(ARCH, group(seed), train, 60, val, eval_every=60)
            return params

        return fn

    def test_forced_identical_seeds_give_zero_churn(self):
        ds = gen_classification(2, 300, 5, 3, 0.3)
        train, val = split_train_val(ds, 0.1, 2)
        train_fn = self._train_fn(train, val.as_batch())
        report = churn_experiment(lambda seed: train_fn(7), 2, val.as_batch())
        assert report.churn_mean == 0.0

    def test_independent_retrains_have_positive_churn(self):
        ds = gen_classification(2, 300, 5, 3, 0.3)
        train, val = split_train_val(ds, 0.1, 2)
        report = churn_experiment(self._train_fn(train, val.as_batch()), 3,
                                  val.as_batch(), base_seed=0)
        assert report.churn_mean > 0.0
        assert len(report.pair_churn) == 3  # all unordered pairs of 3 retrains
        assert report.churn_half_range >= 0.0
        assert report.val_loss_half_range >= 0.0

    def test_requires_two_repeats(self):
        with pytest.raises(ValueError, match="two"):
            churn_experiment(lambda s: rand_params(s), 1, rand_val(0))


# finite floats of magnitude 1e-300 to 1e300, either sign, and signed zero
floats = (st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)
          | st.sampled_from([0.0, -0.0]))
byte_counts = st.integers(0, 10**30)


class TestRecordCodec:
    """One row format serves metrics.csv and the concurrent groups' record files."""

    @given(st.builds(MetricRecord, st.text("abcxyz019._", min_size=1),
                     st.integers(0, 10**12), floats, st.none() | floats, floats, floats,
                     byte_counts, byte_counts))
    def test_row_round_trip_is_exact(self, record):
        row = format_row(record)
        assert len(row.split(",")) == len(CSV_COLUMNS)
        assert parse_row(row) == record
        assert format_row(parse_row(row)) == row  # keeps the sign of -0.0 too
