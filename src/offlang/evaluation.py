"""Macro-F1 evaluation, majority-vote ensembling, and threshold search.

Evaluation and voting work per task over a whole batch: each reads the
(N, C) probability arrays of `forward_mtl`'s batch PredictionTriple and
takes one argmax per task, with no per-example objects in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tokenizer
from .corpus import binarize
from .mtl import TASK_CLASSES, TASKS


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class TaskReport:
    macro_f1: float
    per_class: dict[str, ClassScores]
    confusion: np.ndarray  # rows gold, cols predicted
    classes: tuple[str, ...]


@dataclass(frozen=True)
class EvalReport:
    tasks: dict[str, TaskReport]

    def to_lines(self) -> list[str]:
        lines = []
        for task, report in self.tasks.items():
            lines.append(f"task_{task}\tmacro_f1\t{report.macro_f1:.6f}")
            for cls in report.classes:
                s = report.per_class[cls]
                lines.append(
                    f"task_{task}\t{cls}\tP={s.precision:.6f}\t"
                    f"R={s.recall:.6f}\tF1={s.f1:.6f}"
                )
        return lines


def confusion_matrix(golds, preds, classes) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(golds, preds):
        matrix[index[g], index[p]] += 1
    return matrix


def task_report(golds, preds, classes) -> TaskReport:
    """Per-class precision/recall/F1 and their unweighted mean.

    A zero denominator (no predictions, no golds, or P+R == 0) defines the
    corresponding score as 0 rather than excluding the class.
    """
    if len(golds) != len(preds):
        raise ValueError("golds and preds must have the same length")
    if len(golds) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    class_set = set(classes)
    for label in list(golds) + list(preds):
        if label not in class_set:
            raise ValueError(f"label {label!r} not in class set {classes}")

    matrix = confusion_matrix(golds, preds, classes)
    per_class = {}
    f1s = []
    for i, cls in enumerate(classes):
        tp = matrix[i, i]
        fp = matrix[:, i].sum() - tp
        fn = matrix[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall > 0 else 0.0
        per_class[cls] = ClassScores(precision, recall, f1)
        f1s.append(f1)
    return TaskReport(
        macro_f1=float(np.mean(f1s)),
        per_class=per_class,
        confusion=matrix,
        classes=tuple(classes),
    )


def macro_f1(golds, preds, classes) -> float:
    return task_report(golds, preds, classes).macro_f1


def evaluate(model, vocab, examples) -> EvalReport:
    """Batched prediction then per-task macro-F1 over a labeled corpus."""
    if not examples:
        raise ValueError("cannot evaluate an empty corpus")
    # looked up at call time, so a wrapper installed on it also covers evaluate
    ids, mask = tokenizer.encode_batch(
        [ex.tweet.text for ex in examples], vocab, model.encoder_config.max_len
    )
    preds = model.forward_mtl(ids, mask)
    tasks = {
        task: task_report([getattr(ex.labels, task).value for ex in examples],
                          preds.label(task), TASK_CLASSES[task])
        for task in TASKS
    }
    return EvalReport(tasks=tasks)


def majority_vote(member_predictions, task: str) -> list[str]:
    """Per-example plurality vote over ensemble members for one task.

    Each member is one batch PredictionTriple from `forward_mtl` over the
    same N examples. Ties are broken by the largest sum of member
    probabilities over the tied labels, then by class-list order. Each sum
    adds its terms in sorted order, so the result does not depend on the
    order of the members.
    """
    classes = TASK_CLASSES[task]
    if not member_predictions:
        raise ValueError("need at least one ensemble member")
    if len({len(m) for m in member_predictions}) != 1:
        raise ValueError("ensemble members predicted different example counts")

    probs = np.stack([member.probs(task) for member in member_predictions])  # (K, N, C)
    votes = (probs.argmax(axis=2)[..., None] == np.arange(len(classes))).sum(axis=0)
    tied = votes == votes.max(axis=1, keepdims=True)
    # argmax takes the first of equal sums: class-list order
    winners = np.where(tied, np.sort(probs, axis=0).sum(axis=0), -np.inf).argmax(axis=1)
    return [classes[j] for j in winners]


def vote_triples(member_predictions) -> list[tuple[str, str, str]]:
    """Majority vote independently per task; one label triple per example."""
    return list(zip(*(majority_vote(member_predictions, t) for t in TASKS)))


def threshold_search(scored, golds, grid) -> tuple[float, bool]:
    """Grid value maximizing macro-F1 of thresholded scores against gold
    task-A labels; ties go to the smallest threshold. The flag reports a
    degenerate search (constant F1 across the grid)."""
    if not scored or not golds:
        raise ValueError("threshold search needs non-empty data")
    if len(scored) != len(golds):
        raise ValueError("scored examples and golds must align")
    grid = sorted(grid)
    if not grid or grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ValueError("grid must be non-empty and inside (0, 1)")

    scores = []
    for threshold in grid:
        preds = [ex.labels.a.value for ex in binarize(scored, threshold)]
        scores.append(macro_f1(golds, preds, TASK_CLASSES["a"]))
    best_index = int(np.argmax(scores))  # argmax takes the first (smallest) tie
    degenerate = max(scores) - min(scores) < 1e-12
    return grid[best_index], degenerate
