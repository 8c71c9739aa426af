import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codistill.data import Dataset
from codistill.experiments import _smoothing_teachers
from codistill.losses import (CombinedLossSpec, combined_loss, hard_ce, hard_ce_loss, kl_div,
                              logit_mse, soft_ce)
from codistill.nn import Batch, softmax
from helpers import fd_logit_grad, rel_err


def random_case(rng, B=4, K=5):
    logits = rng.standard_normal((B, K)) * 3
    labels = rng.integers(0, K, size=B)
    teacher = softmax(rng.standard_normal((B, K)) * 2)
    return logits, labels, teacher


class TestHardCE:
    def test_uniform_logits(self):
        loss, _ = hard_ce(np.array([0]), np.zeros((1, 4)))
        assert abs(loss - np.log(4)) < 1e-12

    def test_confident_correct(self):
        loss, grad = hard_ce(np.array([0]), np.array([[1e3, 0.0]]))
        assert loss < 1e-12
        assert np.abs(grad).max() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            hard_ce(np.array([4]), np.zeros((1, 4)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits, labels, _ = random_case(rng)
        _, grad = hard_ce(labels, logits)
        fd = fd_logit_grad(lambda z: hard_ce(labels, z)[0], logits)
        assert rel_err(grad, fd).max() < 1e-6


class TestHardCELoss:
    """The gradient-free loss validation uses equals hard_ce's loss bit for bit."""

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                      elements=st.floats(-1e300, 1e300)),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_hard_ce_loss(self, logits, data):
        labels = data.draw(hnp.arrays(np.int64, logits.shape[0],
                                      elements=st.integers(0, logits.shape[1] - 1)))
        want = hard_ce(labels, logits)[0]
        got = hard_ce_loss(labels, logits)
        assert got == want

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e3, 1e100, 1e300])
    def test_extreme_magnitudes(self, scale):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((500, 10)) * scale
        labels = rng.integers(0, 10, size=500)
        assert hard_ce_loss(labels, logits) == hard_ce(labels, logits)[0]

    def test_same_label_checks(self):
        with pytest.raises(ValueError, match="range"):
            hard_ce_loss(np.array([4]), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="batch size"):
            hard_ce_loss(np.array([0, 1]), np.zeros((1, 4)))


class TestSoftCE:
    def test_onehot_teacher_equals_hard_ce(self):
        rng = np.random.default_rng(1)
        logits, labels, _ = random_case(rng)
        onehot = np.eye(logits.shape[1])[labels]
        hl, hg = hard_ce(labels, logits)
        sl, sg = soft_ce(onehot, logits)
        assert sl == hl
        assert np.array_equal(sg, hg)

    def test_self_teacher_zero_grad(self):
        rng = np.random.default_rng(2)
        logits, _, _ = random_case(rng)
        t = softmax(logits)
        loss, grad = soft_ce(t, logits)
        entropy = float(-(t * np.log(t)).sum(axis=1).mean())
        assert np.abs(grad).max() < 1e-15
        assert abs(loss - entropy) < 1e-9

    def test_uniform_teacher_two_classes(self):
        loss, _ = soft_ce(np.full((1, 2), 0.5), np.zeros((1, 2)))
        assert abs(loss - np.log(2)) < 1e-12

    def test_unnormalized_teacher_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            soft_ce(np.full((1, 2), 0.6), np.zeros((1, 2)))

    def test_bounded_below_by_teacher_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits, _, t = random_case(rng)
            loss, _ = soft_ce(t, logits)
            entropy = float(-(t * np.log(t)).sum(axis=1).mean())
            assert loss >= entropy - 1e-12


class TestLogitMSE:
    def test_identical_logits(self):
        z = np.random.default_rng(4).standard_normal((3, 4))
        loss, grad = logit_mse(z, z)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_scalar_case(self):
        loss, grad = logit_mse(np.array([[1.0]]), np.array([[3.0]]))
        assert loss == 4.0
        assert grad[0, 0] == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            logit_mse(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits, _, _ = random_case(rng)
        teacher = rng.standard_normal(logits.shape)
        _, grad = logit_mse(teacher, logits)
        fd = fd_logit_grad(lambda z: logit_mse(teacher, z)[0], logits)
        assert rel_err(grad, fd).max() < 1e-6


class TestKLDiv:
    def test_zero_for_matching_distributions(self):
        rng = np.random.default_rng(6)
        logits, _, _ = random_case(rng)
        loss, _ = kl_div(softmax(logits), logits)
        assert 0.0 <= loss < 1e-12

    def test_onehot_teacher_uniform_logits(self):
        loss, _ = kl_div(np.array([[0.0, 1.0, 0.0, 0.0]]), np.zeros((1, 4)))
        assert abs(loss - np.log(4)) < 1e-12

    def test_equals_soft_ce_minus_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            logits, _, t = random_case(rng)
            kl, _ = kl_div(t, logits)
            sl, _ = soft_ce(t, logits)
            entropy = float(-(t * np.log(t)).sum(axis=1).mean())
            assert abs(kl - (sl - entropy)) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            logits, _, t = random_case(rng)
            assert kl_div(t, logits)[0] >= 0.0

    def test_grad_identical_to_soft_ce(self):
        rng = np.random.default_rng(9)
        logits, _, t = random_case(rng)
        _, g_kl = kl_div(t, logits)
        _, g_soft = soft_ce(t, logits)
        assert np.abs(g_kl - g_soft).max() <= 1e-15


class TestFiniteDifferenceSweep:
    """Every loss gradient against central differences, 100 random cases.

    The floor absorbs the oracle's own roundoff (~1e-11 absolute at h=1e-5);
    entries above it are held to the relative tolerance.
    """

    def test_all_losses(self):
        rng = np.random.default_rng(10)
        for case in range(100):
            B, K = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            logits = rng.standard_normal((B, K)) * 3
            labels = rng.integers(0, K, size=B)
            teacher_p = softmax(rng.standard_normal((B, K)) * 2)
            teacher_z = rng.standard_normal((B, K))
            checks = [
                (lambda z: hard_ce(labels, z), logits),
                (lambda z: soft_ce(teacher_p, z), logits),
                (lambda z: kl_div(teacher_p, z), logits),
                (lambda z: logit_mse(teacher_z, z), logits),
            ]
            for fn, z in checks:
                _, grad = fn(z)
                fd = fd_logit_grad(lambda zz: fn(zz)[0], z)
                assert rel_err(grad, fd, floor=1e-3).max() < 1e-6


class TestSmoothing:
    """Label smoothing is soft-CE distillation toward a constant teacher,
    which gives every row of a batch the same target distribution."""

    @staticmethod
    def teacher_rows(kind, train, batch_size):
        spec, teacher = _smoothing_teachers(kind, train, 0.1)(0, None)
        assert spec == CombinedLossSpec("soft_cross_entropy", 0.1)
        return teacher([Batch(np.zeros((batch_size, 1)), np.zeros(batch_size))])[0]

    def test_uniform(self):
        train = Dataset(np.zeros((3, 1)), np.array([0, 1, 4]), "classification", 5)
        assert np.array_equal(self.teacher_rows("uniform", train, 4), np.full((4, 5), 0.2))

    def test_unigram_from_counts(self):
        # corpus "aab" over vocab {a, b}
        train = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), "lm", 2)
        rows = self.teacher_rows("unigram", train, 3)
        assert rows.shape == (3, 2)
        assert np.abs(rows - [2 / 3, 1 / 3]).max() < 1e-15


class TestCombinedLoss:
    def test_zero_weight_collapses_to_hard_ce(self):
        rng = np.random.default_rng(11)
        logits, labels, teacher = random_case(rng)
        spec = CombinedLossSpec(distill="soft_cross_entropy", distill_weight=0.0)
        cl, cg = combined_loss(spec, labels, logits, teacher)
        hl, hg = hard_ce(labels, logits)
        assert cl == hl
        assert np.array_equal(cg, hg)

    def test_none_kind_is_hard_ce(self):
        rng = np.random.default_rng(12)
        logits, labels, _ = random_case(rng)
        cl, cg = combined_loss(CombinedLossSpec(), labels, logits)
        hl, hg = hard_ce(labels, logits)
        assert cl == hl and np.array_equal(cg, hg)

    def test_onehot_teacher_doubles_hard_ce(self):
        rng = np.random.default_rng(13)
        logits, labels, _ = random_case(rng)
        onehot = np.eye(logits.shape[1])[labels]
        spec = CombinedLossSpec(distill="soft_cross_entropy", distill_weight=1.0)
        cl, cg = combined_loss(spec, labels, logits, onehot)
        hl, hg = hard_ce(labels, logits)
        assert cl == 2 * hl
        assert np.array_equal(cg, 2 * hg)

    def test_missing_teacher(self):
        spec = CombinedLossSpec(distill="kl_divergence")
        with pytest.raises(ValueError, match="missing teacher"):
            combined_loss(spec, np.array([0]), np.zeros((1, 2)))

    def test_unexpected_teacher(self):
        with pytest.raises(ValueError, match="disabled"):
            combined_loss(CombinedLossSpec(), np.array([0]), np.zeros((1, 2)),
                          np.full((1, 2), 0.5))

    def test_incompatible_teacher_form(self):
        # raw logits handed to a probability-matching loss
        spec = CombinedLossSpec(distill="soft_cross_entropy")
        with pytest.raises(ValueError, match="probability"):
            combined_loss(spec, np.array([0]), np.zeros((1, 2)), np.array([[3.0, -2.0]]))

    @pytest.mark.parametrize("distill", ["soft_cross_entropy", "kl_divergence", "logit_mse"])
    @given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.0, 10.0),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_shared_softmax_equals_separate_terms(self, distill, seed, weight, scale):
        rng = np.random.default_rng(seed)
        logits, labels, teacher = random_case(rng, B=6, K=7)
        logits = logits * scale
        if distill == "logit_mse":
            teacher = rng.standard_normal(logits.shape)
        term = {"soft_cross_entropy": soft_ce, "kl_divergence": kl_div,
                "logit_mse": logit_mse}[distill]
        cl, cg = combined_loss(CombinedLossSpec(distill=distill, distill_weight=weight),
                               labels, logits, teacher)
        hl, hg = hard_ce(labels, logits)
        if weight == 0.0:
            assert cl == hl and np.array_equal(cg, hg)
            return
        dl, dg = term(teacher, logits)
        assert cl == hl + weight * dl
        assert np.array_equal(cg, hg + weight * dg)

    def test_smoothing_term_applied(self):
        """Uniform smoothing, run as the smoothing baselines run it: the
        constant teacher from _smoothing_teachers adds its weight times the
        soft cross entropy toward the uniform target."""
        rng = np.random.default_rng(14)
        logits, labels, _ = random_case(rng)
        B, K = logits.shape
        train = Dataset(np.zeros((K, 1)), np.arange(K), "classification", K)
        spec, teacher_fn = _smoothing_teachers("uniform", train, 0.5)(0, None)
        teacher = teacher_fn([Batch(np.zeros((B, 1)), labels)])[0]
        cl, cg = combined_loss(spec, labels, logits, teacher)
        hl, _ = hard_ce(labels, logits)
        sl, _ = soft_ce(np.full(logits.shape, 1.0 / K), logits)
        assert abs(cl - (hl + 0.5 * sl)) < 1e-15
        fd = fd_logit_grad(lambda z: combined_loss(spec, labels, z, teacher)[0], logits)
        assert rel_err(cg, fd).max() < 1e-6

    @pytest.mark.parametrize("kind", ["uniform", "unigram"])
    def test_shared_softmax_smoothing_equals_separate_terms(self, kind):
        """A broadcast constant teacher, as the smoothing baselines use, adds
        exactly its weight times the soft cross entropy toward it."""
        rng = np.random.default_rng(15)
        logits, labels, _ = random_case(rng, B=6, K=5)
        target = (softmax(rng.standard_normal((1, 5)))[0] if kind == "unigram"
                  else np.full(5, 0.2))
        teacher = np.broadcast_to(target, logits.shape)
        spec = CombinedLossSpec(distill="soft_cross_entropy", distill_weight=0.3)
        cl, cg = combined_loss(spec, labels, logits, teacher)
        hl, hg = hard_ce(labels, logits)
        sl, sg = soft_ce(teacher, logits)
        assert cl == hl + 0.3 * sl
        assert np.array_equal(cg, hg + 0.3 * sg)

    def test_label_checked_before_teacher(self):
        spec = CombinedLossSpec(distill="soft_cross_entropy")
        with pytest.raises(ValueError, match="label out of range"):
            combined_loss(spec, np.array([5]), np.zeros((1, 2)), np.array([[3.0, -2.0]]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CombinedLossSpec(distill="logit_mse", distill_weight=-1.0)
