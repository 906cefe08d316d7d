import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from codemix.corpus import Sentiment
from codemix.errors import ConfigError, DataError, NumericError
from codemix.models import (
    _SCORE_LOSS,
    LinearModel,
    ModelKind,
    TrainConfig,
    _format_row,
    _gradient_descent,
    _hinge_loss,
    _softmax_loss,
    fit,
    fit_all,
    load_model,
    mnb_parameters,
    parse_model,
    predict_batch,
    predict_scores,
    save_model,
)


def csr(rows):
    """CSR matrix of dense rows, zeros not stored."""
    return sparse.csr_matrix(np.asarray(rows, dtype=float))


def separable_points():
    """Two linearly separable points per class on near-orthogonal axes."""
    points = [
        ([1.0, 0.0, 0.0], Sentiment.NEGATIVE),
        ([0.9, 0.1, 0.0], Sentiment.NEGATIVE),
        ([0.0, 1.0, 0.0], Sentiment.NEUTRAL),
        ([0.0, 0.9, 0.1], Sentiment.NEUTRAL),
        ([0.0, 0.0, 1.0], Sentiment.POSITIVE),
        ([0.1, 0.0, 0.9], Sentiment.POSITIVE),
    ]
    return csr([p for p, _ in points]), [label for _, label in points]


def random_problem(rng, n=12, dim=10):
    X = rng.normal(size=(n, dim))
    y = rng.integers(0, 3, size=n)
    y[:3] = [0, 1, 2]  # keep every class present
    return X, y


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(l2_lambda=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(mnb_alpha=0.0)

    def test_per_kind_learning_rate_defaults(self):
        assert TrainConfig(model_kind=ModelKind.LR).resolved_learning_rate == 0.1
        assert TrainConfig(model_kind=ModelKind.SVM).resolved_learning_rate == 0.05
        assert TrainConfig(model_kind=ModelKind.SVM, learning_rate=0.7).resolved_learning_rate == 0.7


class TestMnb:
    def test_hand_computed_two_class_example(self):
        # one sample per class: A has term x twice, B has term y once; alpha=1
        X = csr([[2.0, 0.0], [0.0, 1.0]])
        log_prior, log_likelihood = mnb_parameters(X, np.array([0, 1]), 2, alpha=1.0)
        assert log_prior == pytest.approx([math.log(0.5), math.log(0.5)], abs=1e-15)
        assert log_likelihood[0] == pytest.approx([math.log(3 / 4), math.log(1 / 4)], abs=1e-15)
        assert log_likelihood[1] == pytest.approx([math.log(1 / 3), math.log(2 / 3)], abs=1e-15)

    @pytest.mark.parametrize("alpha", [1e308, 5e-324])
    def test_non_finite_parameters_raise_numeric_error(self, alpha):
        # 1e308 * dim overflows the denominator and 5e-324 / denominator underflows: both take log(0).
        X, y = separable_points()
        with pytest.raises(NumericError, match="mnb_alpha"):
            fit(X, y, TrainConfig(model_kind=ModelKind.MNB, mnb_alpha=alpha))

    def test_fit_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, dim = int(rng.integers(3, 16)), int(rng.integers(1, 8))
            counts = rng.integers(0, 6, size=(n, dim)).astype(float)
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            alpha = float(rng.uniform(0.1, 2.0))
            model = fit(
                csr(counts),
                [Sentiment(int(c)) for c in labels],
                TrainConfig(model_kind=ModelKind.MNB, mnb_alpha=alpha),
            )
            want_prior, want_like = oracles.mnb_estimates(counts.tolist(), labels.tolist(), 3, alpha)
            assert np.max(np.abs(model.bias - np.array(want_prior))) < 1e-12
            assert np.max(np.abs(model.weights - np.array(want_like))) < 1e-12

    def test_parameters_are_normalized_distributions(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=(12, 6)).astype(float)
        labels = [Sentiment(int(c)) for c in np.arange(12) % 3]
        model = fit(csr(counts), labels, TrainConfig(model_kind=ModelKind.MNB))
        assert abs(np.exp(model.bias).sum() - 1.0) < 1e-9
        for c in range(3):
            assert abs(np.exp(model.weights[c]).sum() - 1.0) < 1e-9

    def test_scaling_leaves_predictions_unchanged_with_equal_priors(self):
        # balanced classes keep the prior term constant across classes, so
        # scaling integer counts cannot flip the argmax
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 5, size=(9, 5)).astype(float)
        labels = [Sentiment(int(c)) for c in np.arange(9) % 3]
        model = fit(csr(counts), labels, TrainConfig(model_kind=ModelKind.MNB))
        x = rng.integers(0, 4, size=(25, 5)).astype(float)
        for k in (2, 3, 10):
            assert predict_batch(model, csr(x)) == predict_batch(model, csr(k * x))

    def test_zero_vector_prediction_is_prior_argmax(self):
        X, y = separable_points()
        model = fit(X, y, TrainConfig(model_kind=ModelKind.MNB))
        zero = sparse.csr_matrix((1, 3))
        assert np.array_equal(predict_scores(model, zero)[0], model.bias)
        assert predict_batch(model, zero) == [Sentiment(int(np.argmax(model.bias)))]

    def test_equal_priors_and_empty_row_predict_negative(self):
        counts = np.random.default_rng(8).integers(1, 5, size=(6, 4)).astype(float)
        labels = [Sentiment(int(c)) for c in np.arange(6) % 3]
        model = fit(csr(counts), labels, TrainConfig(model_kind=ModelKind.MNB))
        assert model.bias[0] == model.bias[1] == model.bias[2]
        assert predict_batch(model, sparse.csr_matrix((2, 4))) == [Sentiment.NEGATIVE] * 2


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


def assert_gradients_match_finite_differences(score_loss, frozen, rng, lam):
    """score_loss's gradient against central differences in the scores, and frozen's in W and b."""
    X, y = random_problem(rng)
    W, b = rng.normal(size=(3, 10)), rng.normal(size=3)
    scores = X @ W.T + b
    grad_scores = score_loss(scores.copy(), y)[1]
    fd_scores = oracles.central_difference_gradient(lambda flat: score_loss(flat.reshape(scores.shape), y)[0], scores)
    assert relative_error(grad_scores, fd_scores) < 1e-4
    _, grad_W, grad_b = frozen(W.copy(), b.copy(), X, y, lam)
    fd_W = oracles.central_difference_gradient(lambda flat: frozen(flat.reshape(3, 10), b, X, y, lam)[0], W.ravel())
    fd_b = oracles.central_difference_gradient(lambda flat: frozen(W, flat, X, y, lam)[0], b)
    assert relative_error(grad_W, fd_W.reshape(3, 10)) < 1e-4
    assert relative_error(grad_b, fd_b) < 1e-4


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = float(rng.uniform(0, 0.1))
            assert_gradients_match_finite_differences(_softmax_loss, oracles.frozen_softmax_cross_entropy, rng, lam)

    def test_probability_of_repeated_class_grows_monotonically(self):
        X = csr([[1.0, 0.0, 0.0]] * 4)
        y = np.zeros(4, dtype=int)
        probs = []
        for epochs in (1, 2, 4, 8, 16):
            cfg = TrainConfig(model_kind=ModelKind.LR, l2_lambda=0.0, learning_rate=0.5, epochs=epochs, batch_size=4)
            W, b = _gradient_descent(X, y, 3, [cfg])[0]
            logits = np.asarray(X[:1] @ W.T)[0] + b
            exp = np.exp(logits - logits.max())
            probs.append(exp[0] / exp.sum())
        assert all(earlier < later for earlier, later in zip(probs, probs[1:]))

    def test_training_is_deterministic(self):
        X, y = separable_points()
        cfg = TrainConfig(model_kind=ModelKind.LR, epochs=10, seed=42)
        a = fit(X, y, cfg)
        b = fit(X, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_divergence_raises_numeric_error_naming_epoch(self):
        X, y = separable_points()
        cfg = TrainConfig(model_kind=ModelKind.LR, l2_lambda=1.0, learning_rate=1e18, epochs=10, batch_size=6)
        with pytest.raises(NumericError, match="epoch"):
            fit(X, y, cfg)


class TestSvm:
    def test_separable_toy_reaches_zero_hinge_with_unit_margins(self):
        X, y = separable_points()
        cfg = TrainConfig(model_kind=ModelKind.SVM, l2_lambda=0.0, learning_rate=0.5, epochs=300, batch_size=6, seed=1)
        model = fit(X, y, cfg)
        y_idx = np.array([int(s) for s in y])
        assert _hinge_loss(X @ model.weights.T + model.bias, y_idx)[0] == 0.0
        scores = np.asarray(X @ model.weights.T) + model.bias
        targets = np.full(scores.shape, -1.0)
        targets[np.arange(len(y)), y_idx] = 1.0
        assert (targets * scores).min() >= 1.0
        assert (scores.argmax(axis=1) == y_idx).all()

    def test_objective_non_increasing_with_small_full_batch_steps(self):
        X, y = separable_points()
        y_idx = np.array([int(s) for s in y])
        previous = None
        for epochs in range(1, 21):
            cfg = TrainConfig(
                model_kind=ModelKind.SVM, l2_lambda=1e-4, learning_rate=0.01, epochs=epochs, batch_size=100, seed=0
            )
            model = fit(X, y, cfg)
            objective = oracles.frozen_ovr_hinge_objective(model.weights, model.bias, X, y_idx, 1e-4)[0]
            if previous is not None:
                assert objective <= previous + 1e-8
            previous = objective

    def test_subgradient_matches_finite_differences_away_from_kinks(self):
        # hinge is non-smooth only where a margin equals exactly 1, which has
        # probability zero for random parameters
        rng = np.random.default_rng(3)
        assert_gradients_match_finite_differences(_hinge_loss, oracles.frozen_ovr_hinge_objective, rng, 0.01)


@st.composite
def sparse_problems(draw):
    """A random sparse training problem: (X, y), often with empty rows."""
    n = draw(st.integers(1, 20))
    dim = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    rng = np.random.default_rng(seed)
    X = csr(rng.uniform(-1.0, 1.0, size=(n, dim)) * (rng.random((n, dim)) < density))
    return X, rng.integers(0, 3, size=n)


# (learning rate, l2_lambda): lr * lambda = 1 wipes W out at each step and 2 flips its sign, so s hits
# 0 or goes negative and is folded into V.
RATES = [(0.5, 0.0), (0.05, 1e-4), (0.5, 0.1), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0), (0.1, 3.0)]


class TestSparseStepMatchesDenseOracle:
    """_gradient_descent keeps W = s * V and updates only the batch's columns; the
    frozen dense step in oracles.py is the reference."""

    @given(
        problem=sparse_problems(),
        kind=st.sampled_from([ModelKind.LR, ModelKind.SVM]),
        rates=st.sampled_from(RATES),
        epochs=st.integers(1, 3),
        batch_size=st.integers(1, 25),
        seed=st.integers(0, 1000),
    )
    @example(
        problem=(csr([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), np.array([0, 1, 2])),
        kind=ModelKind.SVM, rates=(1.0, 1.0), epochs=2, batch_size=1, seed=0,
    )
    @example(
        problem=(csr([[0.0, 0.5], [1.0, 0.0], [0.0, 0.0]]), np.array([2, 1, 0])),
        kind=ModelKind.LR, rates=(1.0, 2.0), epochs=3, batch_size=10, seed=1,
    )
    def test_weights_match_dense_step(self, problem, kind, rates, epochs, batch_size, seed):
        X, y = problem
        lr, lam = rates
        cfg = TrainConfig(
            model_kind=kind, l2_lambda=lam, learning_rate=lr, epochs=epochs, batch_size=batch_size, seed=seed
        )
        if kind is ModelKind.LR:
            frozen = oracles.frozen_softmax_cross_entropy
        else:
            frozen = oracles.frozen_ovr_hinge_objective
        W, b = _gradient_descent(X, y, 3, [cfg])[0]
        W_ref, b_ref = oracles.frozen_gradient_descent(X, y, 3, cfg, frozen)
        assert W.shape == W_ref.shape
        assert np.abs(W - W_ref).max() <= 1e-12
        assert np.abs(b - b_ref).max() <= 1e-12

    def test_loss_check_keeps_the_l2_term(self):
        # After one step ||W||^2 overflows while every hinge margin stays finite.
        X, y = separable_points()
        y_idx = np.array([int(label) for label in y])
        cfg = TrainConfig(model_kind=ModelKind.SVM, l2_lambda=1e-300, learning_rate=1e200, epochs=1, batch_size=1)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch 1"):
            oracles.frozen_gradient_descent(X, y_idx, 3, cfg, oracles.frozen_ovr_hinge_objective)
        with pytest.raises(NumericError, match="epoch 1"):
            _gradient_descent(X, y_idx, 3, [cfg])

    @pytest.mark.parametrize("kind", [ModelKind.LR, ModelKind.SVM])
    def test_objectives_match_frozen(self, kind):
        score_loss = _SCORE_LOSS[kind]
        frozen = {
            ModelKind.LR: oracles.frozen_softmax_cross_entropy,
            ModelKind.SVM: oracles.frozen_ovr_hinge_objective,
        }[kind]
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, y = random_problem(rng)
            X, W, b = csr(X), rng.normal(size=(3, 10)), rng.normal(size=3)
            loss, g = score_loss(np.asarray(X @ W.T) + b, y)
            frozen_loss, frozen_W, frozen_b = frozen(W, b, X, y, 0.0)
            assert loss == frozen_loss
            assert np.array_equal(g.sum(axis=0), frozen_b)
            assert np.array_equal(np.asarray((X.T @ g).T), frozen_W)


class TestSharedStreamMatchesSoloStep:
    """_gradient_descent advances one model per config over one batch stream and moves rows of V
    as records; each model must equal, bit for bit, the one-model step frozen in oracles.py."""

    @given(
        problem=sparse_problems(),
        # The learning rate None takes each kind's own default.
        specs=st.lists(
            st.tuples(st.sampled_from([ModelKind.LR, ModelKind.SVM]), st.sampled_from(RATES + [(None, 1e-4)])),
            min_size=1,
            max_size=3,
        ),
        epochs=st.integers(1, 3),
        size=st.integers(1, 25),
        seed=st.integers(0, 1000),
    )
    @example(
        problem=(csr([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), np.array([0, 1, 2])),
        specs=[(ModelKind.LR, (1.0, 1.0)), (ModelKind.SVM, (0.5, 0.1))], epochs=2, size=1, seed=0,
    )
    @example(
        problem=(csr([[0.0, 0.5], [1.0, 0.0], [0.0, 0.0]]), np.array([2, 1, 0])),
        specs=[(ModelKind.LR, (None, 1e-4)), (ModelKind.SVM, (1.0, 2.0))], epochs=3, size=10, seed=1,
    )
    def test_each_model_equals_its_solo_frozen_step(self, problem, specs, epochs, size, seed):
        X, y = problem
        configs = [
            TrainConfig(model_kind=kind, learning_rate=lr, l2_lambda=lam, epochs=epochs, batch_size=size, seed=seed)
            for kind, (lr, lam) in specs
        ]
        trained = _gradient_descent(X, y, 3, configs)
        assert len(trained) == len(configs)
        for cfg, (W, b) in zip(configs, trained):
            W_ref, b_ref = oracles.frozen_sparse_gradient_descent(X, y, 3, cfg, _SCORE_LOSS[cfg.model_kind])
            assert W.flags.c_contiguous and W.shape == W_ref.shape
            assert np.array_equal(W, W_ref)
            assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize(
        "rates, message",
        [
            # Both diverge at the first check after a step: the first config raises.
            ([(1e200, 1e-300), (1e200, 1e-300)], "lr training loss became non-finite at epoch 1"),
            # Only the SVM diverges; it raises in the batch where its own fit does.
            ([(0.1, 1e-4), (1e200, 1e-300)], "svm training loss became non-finite at epoch 1"),
        ],
    )
    def test_first_diverging_model_raises_at_its_solo_step(self, rates, message):
        X, y = separable_points()
        y_idx = np.array([int(label) for label in y])
        configs = [
            TrainConfig(model_kind=kind, learning_rate=lr, l2_lambda=lam, epochs=2, batch_size=1)
            for kind, (lr, lam) in zip([ModelKind.LR, ModelKind.SVM], rates)
        ]
        with pytest.raises(NumericError, match=f"^{message}$"):
            _gradient_descent(X, y_idx, 3, configs)
        diverging = configs[0] if rates[0][0] > 1 else configs[1]
        solo_message = "^training loss became non-finite at epoch 1$"
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=solo_message):
            oracles.frozen_sparse_gradient_descent(X, y_idx, 3, diverging, _SCORE_LOSS[diverging.model_kind])

    @pytest.mark.parametrize("field, value", [("seed", 1), ("epochs", 2), ("batch_size", 5)])
    def test_models_on_one_stream_share_its_settings(self, field, value):
        X, y = separable_points()
        lr = TrainConfig(model_kind=ModelKind.LR, epochs=1)
        svm = dataclasses.replace(lr, model_kind=ModelKind.SVM, **{field: value})
        with pytest.raises(ConfigError, match="share seed, epochs and batch_size"):
            fit_all(X, y, [lr, svm])

    def test_fit_all_equals_one_fit_per_config(self):
        X, y = separable_points()
        configs = [TrainConfig(model_kind=kind, epochs=4, batch_size=2, seed=3) for kind in ModelKind]
        for joint, cfg in zip(fit_all(X, y, configs), configs):
            solo = fit(X, y, cfg)
            assert (joint.kind, joint.alpha) == (solo.kind, solo.alpha)
            assert np.array_equal(joint.weights, solo.weights)
            assert np.array_equal(joint.bias, solo.bias)


class TestFitValidation:
    def test_missing_class_rejected(self):
        X = csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = [Sentiment.POSITIVE, Sentiment.POSITIVE, Sentiment.NEUTRAL]
        with pytest.raises(DataError, match="negative"):
            fit(X, y, TrainConfig())

    def test_length_mismatch_rejected(self):
        X, y = separable_points()
        with pytest.raises(DataError):
            fit(X, y[:-1], TrainConfig())

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            fit(csr([[1.0]]), [Sentiment.NEGATIVE], TrainConfig())


def random_sparse_rows(rng, n, dim, density=0.5):
    return csr(rng.normal(size=(n, dim)) * (rng.random((n, dim)) < density))


class TestPredict:
    def zero_model(self, dim=4):
        return LinearModel(kind=ModelKind.SVM, weights=np.zeros((3, dim)), bias=np.zeros(3))

    def test_tie_breaks_to_lowest_ordinal(self):
        model = self.zero_model()
        assert predict_batch(model, csr([[1.0, 0.0, 2.0, 0.0]])) == [Sentiment.NEGATIVE]

    @pytest.mark.parametrize("kind", [ModelKind.LR, ModelKind.SVM])
    def test_zero_row_with_equal_biases_predicts_negative(self, kind):
        weights = np.random.default_rng(4).normal(size=(3, 5))
        model = LinearModel(kind=kind, weights=weights, bias=np.full(3, 0.25))
        assert predict_batch(model, sparse.csr_matrix((3, 5))) == [Sentiment.NEGATIVE] * 3

    def test_dimension_mismatch_rejected(self):
        model = self.zero_model(dim=4)
        with pytest.raises(DataError):
            predict_scores(model, csr([[1.0]]))
        with pytest.raises(DataError):
            predict_batch(model, sparse.csr_matrix((2, 5)))

    def test_predictions_match_dense_score_oracle(self):
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(3, 6))
        bias = rng.normal(size=3)
        model = LinearModel(kind=ModelKind.LR, weights=weights, bias=bias)
        dense = rng.normal(size=(20, 6)) * (rng.random((20, 6)) > 0.4)
        got = predict_scores(model, csr(dense))
        predictions = predict_batch(model, csr(dense))
        for row, x in enumerate(dense):
            expected = oracles.linear_scores(weights.tolist(), bias.tolist(), x.tolist())
            assert np.allclose(got[row], expected, atol=1e-12)
            assert predictions[row] == Sentiment(int(np.argmax(expected)))

    def test_mnb_scores_match_dense_oracle(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 5, size=(9, 4)).astype(float)
        labels = [Sentiment(int(c)) for c in np.arange(9) % 3]
        model = fit(csr(counts), labels, TrainConfig(model_kind=ModelKind.MNB))
        dense = rng.integers(0, 4, size=(20, 4)).astype(float)
        got = predict_scores(model, csr(dense))
        for row, x in enumerate(dense):
            expected = oracles.mnb_scores(model.bias.tolist(), model.weights.tolist(), x.tolist())
            assert np.allclose(got[row], expected, atol=1e-12)

    def test_predict_is_argmax_of_scores(self):
        rng = np.random.default_rng(21)
        model = LinearModel(kind=ModelKind.SVM, weights=rng.normal(size=(3, 8)), bias=rng.normal(size=3))
        X = random_sparse_rows(rng, 1000, 8)
        scores = predict_scores(model, X)
        assert predict_batch(model, X) == [Sentiment(int(c)) for c in np.argmax(scores, axis=1)]

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(23)
        weights = rng.normal(size=(3, 5))
        bias = rng.normal(size=3)
        model = LinearModel(kind=ModelKind.LR, weights=weights, bias=bias)
        shifted = LinearModel(kind=ModelKind.LR, weights=weights, bias=bias + 7.5)
        X = csr(rng.normal(size=(50, 5)))
        assert predict_batch(model, X) == predict_batch(shifted, X)

    def test_predict_batch_matches_per_item(self):
        # the frozen per-row scorer is the reference, for linear and MNB models
        rng = np.random.default_rng(31)
        for trial in range(40):
            n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 12))
            X = random_sparse_rows(rng, n, dim, density=float(rng.uniform(0.0, 1.0)))
            if trial % 2:
                counts = rng.integers(0, 4, size=(6, dim)).astype(float)
                labels = [Sentiment(int(c)) for c in rng.permutation(np.arange(6) % 3)]
                model = fit(csr(counts), labels, TrainConfig(model_kind=ModelKind.MNB))
                weights, bias = model.weights, model.bias
            else:
                weights, bias = rng.normal(size=(3, dim)), rng.normal(size=3)
                model = LinearModel(kind=ModelKind.SVM, weights=weights, bias=bias)
            expected = [
                Sentiment(oracles.frozen_predict(weights, bias, X[i].indices, X[i].data)) for i in range(n)
            ]
            assert predict_batch(model, X) == expected


# save_model of two toy fits, generated when MNB still had its own parameter type: MNB files
# keep the bias first and alpha in the header.
GOLDEN_MODEL_FILES = {
    ModelKind.MNB: (
        TrainConfig(model_kind=ModelKind.MNB, mnb_alpha=0.5),
        "model v1 mnb 3 0.5\n"
        "-1.0986122886681098 -0.37729423114146804 -1.7635885922613588 -1.9459101490553135\n"
        "-1.0986122886681098 -1.9459101490553135 -0.37729423114146804 -1.7635885922613588\n"
        "-1.0986122886681098 -1.7635885922613588 -1.9459101490553135 -0.37729423114146804\n",
    ),
    ModelKind.SVM: (
        TrainConfig(model_kind=ModelKind.SVM, epochs=5, seed=3),
        "model v1 svm 3\n"
        "0.074999250003749976 -0.074999250003749976 -0.083332500004166657 -0.083333333333333329\n"
        "-0.083332500004166657 0.074999250003749976 -0.074999250003749976 -0.083333333333333343\n"
        "-0.074999250003749976 -0.083332500004166657 0.074999250003749976 -0.083333333333333329\n",
    ),
}


def saved_text(model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    return path.read_bytes().decode("utf-8")


class TestPersistence:
    def fitted(self, kind):
        X, y = separable_points()
        return fit(X, y, TrainConfig(model_kind=kind, epochs=5))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_round_trip_is_exact(self, kind, tmp_path):
        model = self.fitted(kind)
        restored = parse_model(saved_text(model, tmp_path))
        assert restored.kind == model.kind
        assert restored.dim == model.dim
        assert np.array_equal(restored.weights, model.weights)
        assert np.array_equal(restored.bias, model.bias)
        assert restored.alpha == model.alpha

    @pytest.mark.parametrize("kind", list(GOLDEN_MODEL_FILES))
    def test_fit_gives_golden_file(self, kind, tmp_path):
        cfg, text = GOLDEN_MODEL_FILES[kind]
        X, y = separable_points()
        assert saved_text(fit(X, y, cfg), tmp_path) == text

    @pytest.mark.parametrize("kind", list(GOLDEN_MODEL_FILES))
    def test_golden_file_round_trips(self, kind, tmp_path):
        text = GOLDEN_MODEL_FILES[kind][1]
        assert saved_text(parse_model(text), tmp_path) == text

    @pytest.mark.parametrize("kind, alpha", [(ModelKind.MNB, None), (ModelKind.LR, 1.0), (ModelKind.SVM, 0.5)])
    def test_alpha_belongs_to_mnb_only(self, kind, alpha):
        with pytest.raises(ConfigError):
            LinearModel(kind=kind, weights=np.zeros((3, 2)), bias=np.zeros(3), alpha=alpha)

    def test_file_round_trip(self, tmp_path):
        model = self.fitted(ModelKind.SVM)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        restored = load_model(str(path))
        assert np.array_equal(restored.weights, model.weights)

    def test_header_format(self, tmp_path):
        model = self.fitted(ModelKind.LR)
        assert saved_text(model, tmp_path).splitlines()[0] == "model v1 lr 3"

    # The second strategy draws rows from a few values, so most of a row repeats, as in a fitted model.
    @given(
        st.lists(st.floats(), min_size=1, max_size=20)
        | st.lists(st.floats(), min_size=1, max_size=4).flatmap(lambda few: st.lists(st.sampled_from(few), max_size=40))
    )
    @example([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    @example([1.0, -3.0, 2.0**53, 1e16, 0.1])
    @example([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])
    @example([0.1, -0.0, 0.1, 0.1, 0.0, 0.1, -0.0, 0.30000000000000004, 0.1])
    @example([])
    def test_row_text_equals_per_value_format(self, values):
        row = np.asarray(values, dtype=np.float64)
        assert _format_row(row) == " ".join(f"{value:.17g}" for value in row)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_saved_file_holds_each_parameter_as_17g(self, kind, tmp_path):
        model = self.fitted(kind)
        header = f"model v1 {kind.value} 3" + (f" {model.alpha:.17g}" if kind is ModelKind.MNB else "")
        rows = [[b, *w] if kind is ModelKind.MNB else [*w, b] for w, b in zip(model.weights, model.bias)]
        lines = [header] + [" ".join(f"{value:.17g}" for value in row) for row in rows]
        assert saved_text(model, tmp_path) == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nonsense\n",
            "model v1 lr 3\n1 2 3 4\n",  # missing class rows
            "model v1 wat 3\n" + "0 0 0 0\n" * 3,  # unknown kind
            "model v1 lr 3\n" + "0 0 0\n" * 3,  # wrong row width
            "model v1 mnb 2\n" + "0 0 0\n" * 3,  # mnb without alpha
            "model v1 lr 2\n0 0 inf\n0 0 0\n0 0 0\n",  # non-finite
            "model v1 lr 2\r\n" + "0 0 0\r\n" * 3,  # CRLF line ends
            "model v1 lr 2\n\n" + "0 0 0\n\n" * 3,  # a blank line after every line
            "model v1 lr 02\n" + "0 0 0\n" * 3,  # dim with a leading zero
            "model v1 lr 2 1\n" + "0 0 0\n" * 3,  # alpha in an lr header
            "model v1 mnb 2 1.0\n" + "0 0 0\n" * 3,  # alpha not as %.17g writes it
            "model v1 mnb 2 nan\n" + "0 0 0\n" * 3,  # non-finite alpha
            "model v1 mnb 2 0\n" + "0 0 0\n" * 3,  # zero alpha
            "model v1 lr 2\n" + "0 0 0\n" * 2 + "0 0 0",  # no final line feed
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(DataError):
            parse_model(text)
