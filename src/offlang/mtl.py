"""Multi-task model: shared encoder, three LSTM task heads, weighted loss.

Each head runs a unidirectional LSTM over a tweet's real tokens and projects
its final hidden state to class logits. The encoder hands the heads its
packed (N, d) token rows and their row lengths, with no padded layout or
mask in between, and the three heads run on them as one fused recurrence, a
single `autodiff.lstm` node. NULL is an ordinary class for heads B and C.
Inference (`forward_mtl`) builds no autodiff graph and returns each task's
(N, C) probabilities in one PredictionTriple; indexing it gives a row, which
is what `predict` returns. It runs the rows `CHUNK_ROWS` at a time
(`softmax_in_chunks`), so its memory is constant in the corpus size. The
single-task baseline is not part of the model: `training.train_baseline`
trains a throwaway CLS head on its encoder and validates it through the
same chunk loop.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import Tensor, affine, cross_entropy, lstm, no_grad
from .corpus import LabeledExample, TaskLabelA, TaskLabelB, TaskLabelC
from .encoder import (
    EncoderConfig, encode as encoder_forward, encoder_layout, init_encoder, init_params, linear,
)
from .textnorm import RawTweet
from .tokenizer import Vocabulary, encode_batch

TASKS = ("a", "b", "c")
TASK_CLASSES = {
    "a": [l.value for l in TaskLabelA],
    "b": [l.value for l in TaskLabelB],
    "c": [l.value for l in TaskLabelC],
}
# rows per inference forward, so that inference memory does not grow with
# the corpus; also the training batch size
CHUNK_ROWS = 32


@dataclass(frozen=True)
class HeadConfig:
    hidden: int = 64

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"head hidden size must be >= 1, not {self.hidden}")

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class LossWeights:
    w_a: float = 0.4
    w_b: float = 0.3
    w_c: float = 0.3

    def __post_init__(self):
        if not all(0 <= w < np.inf for w in self.as_tuple()):
            raise ValueError("loss weights must be finite and nonnegative")
        if abs(self.w_a + self.w_b + self.w_c - 1.0) > 1e-9:
            raise ValueError("loss weights must sum to 1")

    def as_tuple(self):
        return (self.w_a, self.w_b, self.w_c)


@dataclass(frozen=True)
class PredictionTriple:
    """Softmax probabilities for the three tasks.

    `forward_mtl` returns a batch: each `probs_<task>` is an (N, C) array.
    `len(batch)` is N, and `batch[i]` (or iterating) gives row i as a
    PredictionTriple of (C,) views into the batch's arrays.
    """

    probs_a: np.ndarray
    probs_b: np.ndarray
    probs_c: np.ndarray

    def __len__(self) -> int:
        if self.probs_a.ndim != 2:
            raise TypeError("a single prediction row has no length")
        return len(self.probs_a)

    def __getitem__(self, i: int) -> PredictionTriple:
        i = range(len(self))[i]  # a bad index raises IndexError, ending iteration
        return PredictionTriple(self.probs_a[i], self.probs_b[i], self.probs_c[i])

    def label(self, task: str) -> str | list[str]:
        """The most probable class: a string for a row, one per row for a batch."""
        index = self.probs(task).argmax(axis=-1)
        classes = TASK_CLASSES[task]
        return classes[index] if index.ndim == 0 else [classes[j] for j in index]

    def probs(self, task: str) -> np.ndarray:
        if task not in TASK_CLASSES:
            raise KeyError(task)
        return getattr(self, f"probs_{task}")


def head_layout(encoder_config: EncoderConfig,
                head_config: HeadConfig) -> dict[str, tuple[int, ...]]:
    """The task heads' parameter names and shapes, in initialization order."""
    d, h = encoder_config.d_model, head_config.hidden
    layout: dict[str, tuple[int, ...]] = {}
    for task in TASKS:
        linear(layout, f"head_{task}.lstm.x", d, 4 * h)
        linear(layout, f"head_{task}.lstm.h", h, 4 * h)
        linear(layout, f"head_{task}.out", h, len(TASK_CLASSES[task]))
    return layout


def parameter_layout(encoder_config: EncoderConfig,
                     head_config: HeadConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name of the model and its shape, in initialization
    order: the encoder's, then the heads'. An invalid encoder config raises
    ValueError."""
    return {**encoder_layout(encoder_config), **head_layout(encoder_config, head_config)}


class MtlModel:
    """Shared encoder parameters plus per-task head parameters.

    Parameters live in a flat name -> Tensor dict, ordered as
    `parameter_layout` gives them, so the optimizer and the gradient
    checker can treat the whole model uniformly.
    """

    def __init__(self, encoder_config: EncoderConfig, head_config: HeadConfig,
                 seed: int):
        """Seeded initialization: the encoder draws from generator `seed`,
        the heads from generator `seed + 1`."""
        params = init_encoder(encoder_config, seed)
        params.update(init_params(head_layout(encoder_config, head_config),
                                  np.random.default_rng(seed + 1)))
        self._hold(encoder_config, head_config, params)

    def _hold(self, encoder_config: EncoderConfig, head_config: HeadConfig,
              params: dict[str, Tensor]) -> None:
        """Set the model's attributes: the one place both constructors do."""
        self.encoder_config = encoder_config
        self.head_config = head_config
        self.params = params

    @classmethod
    def from_arrays(cls, encoder_config: EncoderConfig, head_config: HeadConfig,
                    arrays: dict[str, np.ndarray]) -> MtlModel:
        """A model holding `arrays` as its parameters, which must have
        exactly the names and shapes of `parameter_layout` and real
        floating-point values; any other input raises ValueError. A native
        float64 array is held as it is, not copied, so the model shares it
        with the caller; any other float array is converted. Draws no random
        numbers."""
        layout = parameter_layout(encoder_config, head_config)
        if set(arrays) != set(layout):
            raise ValueError("parameter names do not match the model")
        params = {}
        for name, shape in layout.items():
            arr = arrays[name]
            if arr.shape != shape:
                raise ValueError(f"shape mismatch for {name}")
            if not np.issubdtype(arr.dtype, np.floating):
                # astype would drop an imaginary part without an error
                raise ValueError(f"parameter {name} holds {arr.dtype} values, "
                                 f"not real floating point")
            params[name] = Tensor(arr.astype(np.float64, copy=False), requires_grad=True)
        model = cls.__new__(cls)                       # skips __init__'s draws
        model._hold(encoder_config, head_config, params)
        return model

    # -- forward -------------------------------------------------------------

    def encode(self, ids, mask, rng=None) -> tuple[Tensor, np.ndarray]:
        """The encoder's packed token rows and their row lengths."""
        return encoder_forward(self.params, self.encoder_config, ids, mask, rng)

    def logits_mtl(self, ids, mask, rng=None) -> dict[str, Tensor]:
        if len(np.asarray(ids)) == 0:
            raise ValueError("empty batch")
        emb, lengths = self.encode(ids, mask, rng)
        p = self.params
        h_all = lstm(emb, lengths, [
            [p[f"head_{task}.lstm.{k}"] for k in ("x.w", "x.b", "h.w", "h.b")]
            for task in TASKS
        ])
        return {
            task: affine(h_all[k], p[f"head_{task}.out.w"], p[f"head_{task}.out.b"])
            for k, task in enumerate(TASKS)
        }

    def forward_mtl(self, ids, mask) -> PredictionTriple:
        """Per-task (N, C) softmax probabilities, as one batch PredictionTriple.
        The rows run through `logits_mtl` `CHUNK_ROWS` at a time, so memory
        is constant in N; a batch of at most `CHUNK_ROWS` rows is one call."""
        probs = softmax_in_chunks(self.logits_mtl, ids, mask)
        return PredictionTriple(*(probs[task] for task in TASKS))

    # -- parameter plumbing ----------------------------------------------------

    def n_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


def softmax_in_chunks(logits, ids, mask) -> dict[str, np.ndarray]:
    """The row-wise softmax of each Tensor in the dict `logits(ids, mask)`
    returns, as one (N, C) array per key, for ids and mask of N rows.

    `logits` runs under `no_grad()` on `CHUNK_ROWS` rows at a time, in row
    order, and each chunk's probabilities go into the preallocated outputs,
    so memory is constant in N. An empty batch, or a mask whose shape
    differs from that of ids, raises ValueError before any chunk runs.
    """
    ids, mask = np.asarray(ids), np.asarray(mask)
    if len(ids) == 0:
        raise ValueError("empty batch")
    if mask.shape != ids.shape:
        raise ValueError("mask must have the shape of ids")
    out: dict[str, np.ndarray] = {}
    with no_grad():
        for start in range(0, len(ids), CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            for key, tensor in logits(ids[chunk], mask[chunk]).items():
                probs = tensor.softmax().data
                if key not in out:
                    out[key] = np.empty((len(ids),) + probs.shape[1:], probs.dtype)
                out[key][chunk] = probs
    return out


def batch_targets(examples: list[LabeledExample]):
    """Per-task integer targets plus the synthetic mask (1 = real B/C labels)."""
    targets = {
        task: np.array(
            [TASK_CLASSES[task].index(getattr(ex.labels, task).value) for ex in examples],
            dtype=np.int64,
        )
        for task in TASKS
    }
    real = np.array([0.0 if ex.synthetic else 1.0 for ex in examples])
    return targets, real


def mtl_loss(logits: dict[str, Tensor], targets: dict[str, np.ndarray],
             weights: LossWeights, real_mask: np.ndarray | None = None):
    """Weighted sum of per-task mean cross-entropies.

    Synthetic examples (real_mask 0) contribute only to task A. A task with
    no contributing examples gets loss 0 and is reported in the flags.
    """
    n = len(targets["a"])
    if real_mask is None:
        real_mask = np.ones(n)
    ones = np.ones(n)
    task_weights = {"a": ones, "b": real_mask, "c": real_mask}
    per_task = {}
    empty = []
    for task in TASKS:
        if task_weights[task].sum() == 0.0:
            empty.append(task)
        per_task[task] = cross_entropy(logits[task], targets[task], task_weights[task])
    w = weights.as_tuple()
    total = w[0] * per_task["a"] + w[1] * per_task["b"] + w[2] * per_task["c"]
    return total, per_task, empty


def predict(model: MtlModel, vocab: Vocabulary, context, raw_text: str) -> PredictionTriple:
    """End-to-end single-input inference: normalize, encode, forward; one row."""
    tweet = context.normalize(RawTweet(id="query", text=raw_text))
    ids, mask = encode_batch([tweet.text], vocab, model.encoder_config.max_len)
    return model.forward_mtl(ids, mask)[0]
