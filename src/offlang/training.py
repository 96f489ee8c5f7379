"""Training: one Adam epoch loop, `fit`, with early stopping, shared by
multi-task training (`train`), the single-task baseline (`train_baseline`)
and MSE regression pre-training on confidence scores
(`pretrain_regression`); plus finite-difference gradient verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import evaluation
from .autodiff import Tensor, affine, cross_entropy, no_grad
from .corpus import LabeledExample, ScoredExample
from .mtl import (
    TASK_CLASSES, TASKS, LossWeights, MtlModel, batch_targets, mtl_loss, softmax_in_chunks,
)
from .tokenizer import Vocabulary, encode_batch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3   # full-scale runs use 3e-6
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be a finite positive number")
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ValueError("batch_size, max_epochs and patience must be positive")

    def to_dict(self):
        d = asdict(self)
        d["loss_weights"] = self.loss_weights.as_tuple()
        return d


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_f1: dict[str, list[float]] = field(
        default_factory=lambda: {task: [] for task in TASKS}
    )
    best_epoch: int = 0
    stopped_epoch: int = 0

    def to_lines(self) -> list[str]:
        lines = ["epoch\ttrain_loss\t" + "\t".join(f"val_f1_{t}" for t in TASKS)]
        for i, loss in enumerate(self.train_loss):
            lines.append(
                f"{i + 1}\t{loss:.6f}\t"
                + "\t".join(f"{self.val_f1[t][i]:.6f}" for t in TASKS)
            )
        lines.append(f"best_epoch\t{self.best_epoch}")
        lines.append(f"stopped_epoch\t{self.stopped_epoch}")
        return lines


class EarlyStopper:
    """Stop when the monitored metric fails to strictly improve for
    `patience` consecutive epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.since_best = 0

    def update(self, metric: float, epoch: int) -> bool:
        """Record one epoch; True means training should stop now."""
        if metric > self.best:
            self.best = metric
            self.best_epoch = epoch
            self.since_best = 0
        else:
            self.since_best += 1
        return self.since_best >= self.patience


class Adam:
    """Adaptive moment estimation with the standard constants."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class NonFiniteLossError(RuntimeError):
    pass


def _encode_examples(examples, vocab, max_len):
    texts = [ex.tweet.text for ex in examples]
    return encode_batch(texts, vocab, max_len)


def _minibatches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def validation_f1(model, examples, vocab):
    """Macro-F1 per task on a labeled corpus."""
    report = evaluation.evaluate(model, vocab, examples)
    return {task: r.macro_f1 for task, r in report.tasks.items()}


def fit(params: dict[str, Tensor], n: int, step_loss, config: TrainConfig,
        rng: np.random.Generator, validate=None) -> TrainHistory:
    """Adam epochs over shuffled mini-batches of `n` encoded examples.

    `step_loss(batch, rng)` returns the scalar loss of one index batch,
    drawing any dropout masks from `rng`, which also shuffles the batches;
    the model's `dropout_rate` alone decides whether dropout runs. After
    each epoch `validate()`, if given, returns per-task F1: training stops
    when F1(A) fails to strictly improve for `patience` consecutive epochs,
    and the parameters of the best epoch are restored. Without `validate`
    every epoch runs and the last parameters are kept.
    """
    optimizer = Adam(params, config.learning_rate)
    history = TrainHistory()
    stopper = EarlyStopper(config.patience)
    best_state = {name: t.data.copy() for name, t in params.items()}

    for epoch in range(1, config.max_epochs + 1):
        epoch_losses = []
        for batch in _minibatches(n, config.batch_size, rng):
            loss = step_loss(batch, rng)
            if not np.isfinite(loss.data):
                raise NonFiniteLossError(f"non-finite loss at epoch {epoch}")
            for tensor in params.values():
                tensor.grad = None
            loss.backward()
            optimizer.step()
            epoch_losses.append(float(loss.data))
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.stopped_epoch = epoch
        if validate is None:
            continue

        scores = validate()
        for task in TASKS:
            history.val_f1[task].append(scores[task])
        stop = stopper.update(scores["a"], epoch)
        if stopper.best_epoch == epoch:
            history.best_epoch = epoch
            best_state = {name: t.data.copy() for name, t in params.items()}
        if stop:
            break

    if validate is not None:
        for name, tensor in params.items():
            tensor.data = best_state[name]
    return history


def train(model: MtlModel, vocab: Vocabulary,
          train_examples: list[LabeledExample],
          val_examples: list[LabeledExample],
          config: TrainConfig) -> tuple[MtlModel, TrainHistory]:
    """Multi-task training with early stopping on sub-task A validation
    macro-F1; returns the parameters from the best epoch."""
    if not train_examples or not val_examples:
        raise ValueError("train and validation corpora must be non-empty")
    ids, mask = _encode_examples(train_examples, vocab, model.encoder_config.max_len)
    targets, real = batch_targets(train_examples)

    def step_loss(batch, rng):
        logits = model.logits_mtl(ids[batch], mask[batch], rng)
        loss, _, _ = mtl_loss(logits, {t: targets[t][batch] for t in targets},
                              config.loss_weights, real[batch])
        return loss

    history = fit(model.params, len(train_examples), step_loss, config,
                  np.random.default_rng(config.seed),
                  lambda: validation_f1(model, val_examples, vocab))
    return model, history


def _cls_head(model: MtlModel, rng: np.random.Generator, n_out: int):
    """A throwaway linear head on the CLS embedding, each row's first packed
    token, its weights drawn from `rng`: its logits function, and the
    model's parameters plus the head's."""
    d = model.encoder_config.d_model
    head_w = Tensor(rng.uniform(-1, 1, (d, n_out)) / np.sqrt(d), requires_grad=True)
    head_b = Tensor(np.zeros(n_out), requires_grad=True)

    def logits(ids, mask, rng=None):
        x, lengths = model.encode(ids, mask, rng)
        return affine(x[np.cumsum(lengths) - lengths], head_w, head_b)

    return logits, {**model.params, "cls_head.w": head_w, "cls_head.b": head_b}


def train_baseline(model: MtlModel, vocab: Vocabulary,
                   train_examples: list[LabeledExample],
                   val_examples: list[LabeledExample],
                   config: TrainConfig) -> tuple[MtlModel, TrainHistory]:
    """Single-task reference: cross-entropy for task A on a throwaway linear
    CLS head, which is discarded; same optimizer and early-stopping protocol
    as the MTL loop. The B and C validation F1 columns read 0."""
    if not train_examples or not val_examples:
        raise ValueError("train and validation corpora must be non-empty")
    max_len = model.encoder_config.max_len
    ids, mask = _encode_examples(train_examples, vocab, max_len)
    targets, _ = batch_targets(train_examples)
    val_ids, val_mask = _encode_examples(val_examples, vocab, max_len)
    val_golds = [ex.labels.a.value for ex in val_examples]
    # its own generator, so the minibatches are the ones `train` draws
    logits, trainable = _cls_head(model, np.random.default_rng(config.seed + 1), 2)

    def step_loss(batch, rng):
        return cross_entropy(logits(ids[batch], mask[batch], rng),
                             targets["a"][batch], np.ones(len(batch)))

    def validate():
        probs = softmax_in_chunks(lambda *batch: {"a": logits(*batch)},
                                  val_ids, val_mask)["a"]
        preds = [TASK_CLASSES["a"][int(i)] for i in probs.argmax(axis=1)]
        return {"a": evaluation.macro_f1(val_golds, preds, TASK_CLASSES["a"]),
                "b": 0.0, "c": 0.0}

    history = fit(trainable, len(train_examples), step_loss, config,
                  np.random.default_rng(config.seed), validate)
    return model, history


def pretrain_regression(model: MtlModel, vocab: Vocabulary,
                        scored: list[ScoredExample],
                        config: TrainConfig) -> tuple[MtlModel, list[float]]:
    """Regression pre-training on confidence scores for `max_epochs` epochs.

    A throwaway head (sigmoid of a linear map on the CLS embedding) is
    trained with mean squared error against avg_conf; the encoder keeps the
    updates, the head is discarded. Returns per-epoch mean MSE.
    """
    if not scored:
        raise ValueError("scored corpus must be non-empty")
    rng = np.random.default_rng(config.seed)
    logits, trainable = _cls_head(model, rng, 1)
    ids, mask = _encode_examples(scored, vocab, model.encoder_config.max_len)
    targets = np.array([ex.avg_conf for ex in scored])

    def step_loss(batch, rng):
        pred = logits(ids[batch], mask[batch], rng).sigmoid().reshape(-1)
        err = pred - Tensor(targets[batch])
        return (err ** 2.0).mean()

    history = fit(trainable, len(scored), step_loss, config, rng)
    return model, history.train_loss


def check_gradients(model: MtlModel, examples: list[LabeledExample],
                    vocab: Vocabulary, weights: LossWeights,
                    epsilon: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients
    of the multi-task loss, over every parameter entry. Dropout is off. A
    NaN error on any entry makes the result NaN, so it cannot pass a
    tolerance check. `epsilon` must be finite and positive."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be a finite positive number, not {epsilon}")
    ids, mask = _encode_examples(examples, vocab, model.encoder_config.max_len)
    targets, real = batch_targets(examples)

    def loss_value() -> float:
        with no_grad():
            logits = model.logits_mtl(ids, mask, rng=None)
            loss, _, _ = mtl_loss(logits, targets, weights, real)
        return float(loss.data)

    logits = model.logits_mtl(ids, mask, rng=None)
    loss, _, _ = mtl_loss(logits, targets, weights, real)
    if not np.isfinite(loss.data):
        raise NonFiniteLossError("non-finite loss in gradient check")
    model.zero_grad()
    loss.backward()

    worst = 0.0
    for name, tensor in model.params.items():
        analytic = tensor.grad if tensor.grad is not None \
            else np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        a_flat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss_value()
            flat[i] = orig - epsilon
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2 * epsilon)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = np.maximum(worst, abs(a_flat[i] - numeric) / denom)  # keeps NaN
    return float(worst)
