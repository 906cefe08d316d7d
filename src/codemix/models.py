"""Three classical classifiers behind one fit/predict contract and one model type.

Multinomial logistic regression (mini-batch gradient descent on softmax
cross-entropy), a linear one-vs-rest SVM (subgradient descent on hinge
loss), and multinomial naive Bayes (closed form with Laplace smoothing).
All three are one linear scorer, LinearModel: class scores are
X @ weights.T + bias.  For naive Bayes the weights are the log-likelihoods
and the bias the log-priors.  All training is deterministic given the
seed; class order is always negative, neutral, positive.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .corpus import Sentiment
from .errors import ConfigError, DataError, NumericError

N_CLASSES = len(Sentiment)
FORMAT_VERSION = "model v1"

_DEFAULT_LEARNING_RATE = {"lr": 0.1, "svm": 0.05}


class ModelKind(Enum):
    LR = "lr"
    MNB = "mnb"
    SVM = "svm"

    @classmethod
    def from_value(cls, value: str) -> "ModelKind":
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(f"unknown model kind {value!r}") from None


@dataclass(frozen=True)
class TrainConfig:
    model_kind: ModelKind = ModelKind.SVM
    l2_lambda: float = 1e-4
    learning_rate: float | None = None  # None -> per-kind default (lr 0.1, svm 0.05)
    epochs: int = 50
    batch_size: int = 32
    mnb_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.l2_lambda < math.inf:
            raise ConfigError("l2_lambda must be finite and >= 0")
        if self.learning_rate is not None and not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.mnb_alpha < math.inf:
            raise ConfigError("mnb_alpha must be finite and > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return _DEFAULT_LEARNING_RATE.get(self.model_kind.value, 0.1)


@dataclass(frozen=True)
class LinearModel:
    """Parameters of every model kind: class scores are weights @ x + bias.

    For MNB, weights are the log-likelihoods, bias the log-priors and alpha the
    Laplace smoothing they were estimated with (None for LR and SVM)."""

    kind: ModelKind
    weights: np.ndarray  # (n_classes, dim)
    bias: np.ndarray  # (n_classes,)
    alpha: float | None = None

    def __post_init__(self):
        if (self.alpha is None) != (self.kind is not ModelKind.MNB):
            raise ConfigError("a model carries alpha if and only if it is MNB")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def _libm(function, values: np.ndarray) -> np.ndarray:
    """function (math.exp or math.log) of each of values, taken once per distinct value.  numpy's own exp and
    log pick SIMD code by CPU at run time, whose last bits differ from libm's: model bytes must not vary by CPU."""
    distinct = np.unique(values)  # searchsorted then holds fewer temporaries than return_inverse
    return np.fromiter(map(function, distinct.tolist()), np.float64, distinct.size)[np.searchsorted(distinct, values)]


def _softmax_loss(scores: np.ndarray, y_idx: np.ndarray):
    """Mean softmax cross-entropy of score rows and its gradient with respect to the scores."""
    n = scores.shape[0]
    exp = _libm(math.exp, scores - scores.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        nll = -np.log(probs[np.arange(n), y_idx])
    probs[np.arange(n), y_idx] -= 1.0  # now the gradient with respect to the scores
    probs /= n
    return nll.mean(), probs


def _hinge_loss(scores: np.ndarray, y_idx: np.ndarray):
    """Per-class mean hinge loss of score rows, summed over classes, and a subgradient."""
    n = scores.shape[0]
    targets = np.full(scores.shape, -1.0)
    targets[np.arange(n), y_idx] = 1.0
    margins = 1.0 - targets * scores
    active = margins > 0.0
    return float(np.where(active, margins, 0.0).sum()) / n, np.where(active, -targets, 0.0) / n


_SCORE_LOSS = {ModelKind.LR: _softmax_loss, ModelKind.SVM: _hinge_loss}


def _sum_of_squares(a: np.ndarray) -> float:
    """The sum of a 2-d array's squared entries, by einsum's own loop rather than BLAS: a step then uses one
    core, so a grid's two doc modes can train side by side.  Like BLAS, it overflows to inf without a warning."""
    return float(np.einsum("ij,ij->", a, a))


class _SgdState:
    """One LR or SVM model on its way through a batch stream: W = s * V.T and the bias b.

    ||V||^2 is kept up to date for the L2 term of the loss check.  A row of V, one column of W,
    is one record of the view records, so a batch's rows move with take and put, which copy
    their bits as they are."""

    def __init__(self, cfg: TrainConfig, dim: int, n_classes: int):
        self.kind, self.score_loss = cfg.model_kind, _SCORE_LOSS[cfg.model_kind]
        self.lr, self.l2_lambda = cfg.resolved_learning_rate, cfg.l2_lambda
        self.V = np.zeros((dim, n_classes))
        self.records = self.V.view(np.dtype((np.void, self.V.itemsize * n_classes))).reshape(dim)
        self.b = np.zeros(n_classes)
        self.s, self.sq_norm = 1.0, 0.0

    def step(self, local: sparse.csr_matrix, local_t, columns: np.ndarray, y_batch: np.ndarray, epoch: int) -> None:
        """One mini-batch step: local holds the batch's rows over its distinct columns, local_t is local.T."""
        block = self.records.take(columns).view(self.V.dtype).reshape(-1, self.V.shape[1])
        loss, grad_scores = self.score_loss(self.s * (local @ block) + self.b, y_batch)
        if not math.isfinite(loss + 0.5 * self.l2_lambda * self.s * self.s * self.sq_norm):
            raise NumericError(f"{self.kind.value} training loss became non-finite at epoch {epoch}")
        self.s *= 1.0 - self.lr * self.l2_lambda
        if self.s < 1e-9:  # the decay wiped out or flipped W: fold s into V rather than divide by it
            self.V *= self.s
            block *= self.s
            self.s, self.sq_norm = 1.0, _sum_of_squares(self.V)
        updated = block - (self.lr / self.s) * (local_t @ grad_scores)
        self.sq_norm += _sum_of_squares(updated) - _sum_of_squares(block)
        self.records.put(columns, updated.view(self.records.dtype).reshape(-1))
        self.b -= self.lr * grad_scores.sum(axis=0)


def _gradient_descent(X: sparse.csr_matrix, y_idx: np.ndarray, n_classes: int, configs: Sequence[TrainConfig]):
    """Mini-batch gradient descent of one LR or SVM model per config over one batch stream, each
    step in O(nnz of its batch), not O(dim).  Returns the (weights, bias) of each config.

    The stream, each batch's rows and their distinct columns, depends only on X, the seed, the
    epochs and the batch size, which the configs must share; it is built once for all models.
    A model keeps W = s * V.T (the scaling trick of Pegasos and of Bottou's "Stochastic Gradient
    Descent Tricks"): a step's L2 decay scales s and its data gradient changes only the batch's
    columns of W, which are rows of V.  Within a batch the models step in config order, so the
    first model whose loss becomes non-finite raises NumericError at the step a lone fit would."""
    plan = configs[0]
    if any((cfg.seed, cfg.epochs, cfg.batch_size) != (plan.seed, plan.epochs, plan.batch_size) for cfg in configs):
        raise ConfigError("models trained on one batch stream must share seed, epochs and batch_size")
    rng = np.random.default_rng(plan.seed)
    n, dim = X.shape
    states = [_SgdState(cfg, dim, n_classes) for cfg in configs]
    slot = np.zeros(dim, dtype=np.intp)  # a column's place among its batch's distinct columns
    for epoch in range(1, plan.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, plan.batch_size):
            rows = order[start : start + plan.batch_size]
            batch = X[rows]
            # Distinct columns without a sort: each keeps the occurrence whose write to slot survived.
            indices = batch.indices.astype(np.intp)
            occurrence = np.arange(indices.size)
            slot[indices] = occurrence
            columns = indices.compress(slot.take(indices) == occurrence)
            slot[columns] = np.arange(columns.size)
            local = sparse.csr_matrix((batch.data, slot.take(indices), batch.indptr), shape=(len(rows), columns.size))
            local_t, y_batch = local.T, y_idx[rows]
            for state in states:
                state.step(local, local_t, columns, y_batch, epoch)
    return [(np.multiply(state.V.T, state.s, order="C"), state.b) for state in states]


def mnb_parameters(X, y_idx: np.ndarray, n_classes: int, alpha: float):
    """Closed-form MNB estimates from non-negative feature totals.

    log_prior[c] = ln(count_c / n) and
    log_likelihood[c, t] = ln((tf_{c,t} + alpha) / (sum_t tf_{c,t} + alpha * dim)).
    """
    n, dim = X.shape
    counts = np.bincount(y_idx, minlength=n_classes)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(f"class index {missing} absent from training data")
    membership = sparse.csr_matrix((np.ones(n), (y_idx, np.arange(n))), shape=(n_classes, n))
    totals = (membership @ X).toarray()
    log_prior = _libm(math.log, counts / n)
    denom = totals.sum(axis=1, keepdims=True) + alpha * dim
    log_likelihood = _libm(math.log, (totals + alpha) / denom)
    return log_prior, log_likelihood


def fit_all(X: sparse.csr_matrix, y: Sequence[Sentiment], configs: Sequence[TrainConfig]) -> list[LinearModel]:
    """Train one classifier per config on the rows of X; every class must appear in y.

    The LR and SVM models advance over one batch stream (see _gradient_descent), so their
    configs must share seed, epochs and batch_size; each comes out bit-identical to its own fit."""
    n = X.shape[0]
    if n != len(y):
        raise DataError(f"got {n} rows for {len(y)} labels")
    if n < N_CLASSES:
        raise DataError(f"need at least {N_CLASSES} training samples, got {n}")
    for sentiment in Sentiment:
        if sentiment not in y:
            raise DataError(f"class {sentiment.label!r} absent from training data")
    y_idx = np.asarray([int(label) for label in y])
    linear = [cfg for cfg in configs if cfg.model_kind is not ModelKind.MNB]
    trained = iter(_gradient_descent(X, y_idx, N_CLASSES, linear) if linear else ())
    return [
        _fit_mnb(X, y_idx, cfg) if cfg.model_kind is ModelKind.MNB else LinearModel(cfg.model_kind, *next(trained))
        for cfg in configs
    ]


def _fit_mnb(X: sparse.csr_matrix, y_idx: np.ndarray, cfg: TrainConfig) -> LinearModel:
    try:
        with np.errstate(all="ignore"):  # an extreme alpha overflows the denominator
            log_prior, log_likelihood = mnb_parameters(X, y_idx, N_CLASSES, cfg.mnb_alpha)
    except ValueError:  # math.log of a likelihood that an extreme alpha made 0
        log_likelihood = np.array(-math.inf)
    if not np.all(np.isfinite(log_likelihood)):
        raise NumericError(f"naive Bayes log-likelihoods are not finite with mnb_alpha {cfg.mnb_alpha!r}")
    return LinearModel(kind=ModelKind.MNB, weights=log_likelihood, bias=log_prior, alpha=cfg.mnb_alpha)


def fit(X: sparse.csr_matrix, y: Sequence[Sentiment], cfg: TrainConfig) -> LinearModel:
    """Train the configured classifier on the rows of X; every class must appear in y."""
    return fit_all(X, y, [cfg])[0]


def predict_scores(model: LinearModel, X: sparse.csr_matrix) -> np.ndarray:
    """Raw class scores (logits, margins, or log-joint), one row per row of X,
    columns in class-ordinal order."""
    if X.shape[1] != model.dim:
        raise DataError(f"feature dimension {X.shape[1]} does not match model dimension {model.dim}")
    return X @ model.weights.T + model.bias


def predict_batch(model: LinearModel, X: sparse.csr_matrix) -> list[Sentiment]:
    """Argmax of predict_scores per row; ties go to the lowest class ordinal."""
    return [Sentiment(int(c)) for c in np.argmax(predict_scores(model, X), axis=1)]


def _format_row(values: np.ndarray) -> str:
    """The values as %.17g text, each distinct bit pattern formatted once (-0.0 stays "-0").

    A row repeats most of its values: n-grams that occur in the same rows get the same updates."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(["%.17g" % value for value in distinct.view(np.float64).tolist()], dtype=object)
    return " ".join(texts[inverse].tolist())


def _model_lines(model: LinearModel):
    """The lines of the versioned text serialization: a header, then one line of parameters per class.

    An MNB file carries alpha in its header and puts the bias first on each line; LR and SVM
    files put it last."""
    if model.kind is ModelKind.MNB:
        yield f"{FORMAT_VERSION} mnb {model.dim} {model.alpha:.17g}"
        rows = (np.concatenate(([model.bias[c]], model.weights[c])) for c in range(N_CLASSES))
    else:
        yield f"{FORMAT_VERSION} {model.kind.value} {model.dim}"
        rows = (np.concatenate((model.weights[c], [model.bias[c]])) for c in range(N_CLASSES))
    yield from map(_format_row, rows)


def parse_model(text: str) -> LinearModel:
    """The model save_model wrote as text.  Only that layout loads: a header equal to the one
    the parsed model is written with, then one line of finite parameters per class, all ending
    in "\n" (the last one too).  No blank line is skipped and "\r\n" is refused."""
    if not text.endswith("\n"):
        raise DataError("model file does not end in a line feed")
    lines = text[:-1].split("\n")
    if not lines[0].startswith(FORMAT_VERSION + " "):
        raise DataError("not a model v1 file")
    if len(lines) != 1 + N_CLASSES:
        raise DataError("malformed model file")
    fields = lines[0].split(" ")
    try:
        kind = ModelKind.from_value(fields[2])
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    try:
        alpha = float(fields[-1]) if kind is ModelKind.MNB else None
        params = np.vstack([np.fromiter(map(float, line.split(" ")), np.float64) for line in lines[1:]])
    except ValueError:
        raise DataError("malformed model header or parameter line") from None
    if not np.all(np.isfinite(params)):
        raise DataError("model file contains non-finite parameters")
    if alpha is not None and not 0 < alpha < math.inf:
        raise DataError(f"mnb alpha must be positive and finite, got {alpha}")
    bias_column = 0 if kind is ModelKind.MNB else -1
    model = LinearModel(kind, np.delete(params, bias_column, axis=1), params[:, bias_column].copy(), alpha)
    if next(_model_lines(model)) != lines[0]:
        raise DataError(f"malformed model header {lines[0]!r}")
    return model


def save_model(model: LinearModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in _model_lines(model):
            handle.write(line)
            handle.write("\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_model(handle.read())
