"""Hierarchical label model and OLID/SOLID-style corpus ingestion.

Three tasks: A (OFF/NOT), B (TIN/UNT/NULL), C (IND/GRP/OTH/NULL). NULL is a
first-class label value, and the hierarchy constraints are biconditionals:
B is NULL exactly when A is NOT, and C is NULL exactly when B is UNT or NULL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .textnorm import EmojiTable, NormalizedTweet, RawTweet, UnigramTable, normalize


class TaskLabelA(enum.Enum):
    OFF = "OFF"
    NOT = "NOT"


class TaskLabelB(enum.Enum):
    TIN = "TIN"
    UNT = "UNT"
    NULL = "NULL"


class TaskLabelC(enum.Enum):
    IND = "IND"
    GRP = "GRP"
    OTH = "OTH"
    NULL = "NULL"


class HierarchyError(ValueError):
    """A label triple violating the task-hierarchy constraints."""


@dataclass(frozen=True)
class LabelTriple:
    a: TaskLabelA
    b: TaskLabelB
    c: TaskLabelC

    def __post_init__(self):
        if (self.b is TaskLabelB.NULL) != (self.a is TaskLabelA.NOT):
            raise HierarchyError(
                f"({self.a.value}, {self.b.value}, {self.c.value}): "
                "B must be NULL exactly when A is NOT"
            )
        if (self.c is TaskLabelC.NULL) != (self.b in (TaskLabelB.UNT, TaskLabelB.NULL)):
            raise HierarchyError(
                f"({self.a.value}, {self.b.value}, {self.c.value}): "
                "C must be NULL exactly when B is UNT or NULL"
            )

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.a.value, self.b.value, self.c.value)


@dataclass(frozen=True)
class LabeledExample:
    tweet: NormalizedTweet
    labels: LabelTriple
    # binarized SOLID rows carry placeholder B/C labels that must not reach
    # the B/C losses
    synthetic: bool = False


@dataclass(frozen=True)
class ScoredExample:
    tweet: NormalizedTweet
    avg_conf: float
    std_conf: float

    def __post_init__(self):
        if not (0.0 <= self.avg_conf <= 1.0):
            raise ValueError(f"avg_conf {self.avg_conf} outside [0, 1]")
        if not (0.0 <= self.std_conf < float("inf")):
            raise ValueError(f"std_conf {self.std_conf} not finite and nonnegative")


@dataclass(frozen=True)
class NormContext:
    """Bundled normalization tables, threaded through the loaders."""
    emoji: EmojiTable
    unigrams: UnigramTable

    def normalize(self, tweet: RawTweet) -> NormalizedTweet:
        return normalize(tweet, self.emoji, self.unigrams)


LABELED_HEADER = ["id", "tweet", "subtask_a", "subtask_b", "subtask_c"]
SCORED_HEADER = ["id", "text", "average", "std"]


class CorpusFormatError(ValueError):
    """Malformed corpus file; message carries the offending line number."""


def _read_tsv(path, expected_header):
    # utf-8-sig drops the byte order mark that Excel and Notepad write
    with open(path, encoding="utf-8-sig") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError(f"{path}: empty file, expected header row")
    header = lines[0].split("\t")
    if [h.strip().lower() for h in header] != expected_header:
        raise CorpusFormatError(
            f"{path}:1: expected header {expected_header}, got {header}"
        )
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(expected_header):
            raise CorpusFormatError(
                f"{path}:{number}: expected {len(expected_header)} columns, "
                f"got {len(cells)}"
            )
        yield number, cells


def _parse_label(enum_cls, text, path, number):
    try:
        return enum_cls(text.strip())
    except ValueError:
        raise CorpusFormatError(
            f"{path}:{number}: invalid {enum_cls.__name__} value {text!r}"
        ) from None


def load_labeled(path, context: NormContext) -> list[LabeledExample]:
    """Load an OLID-style TSV; every row is normalized and hierarchy-checked."""
    examples = []
    for number, (row_id, text, a, b, c) in _read_tsv(path, LABELED_HEADER):
        try:
            labels = LabelTriple(
                _parse_label(TaskLabelA, a, path, number),
                _parse_label(TaskLabelB, b, path, number),
                _parse_label(TaskLabelC, c, path, number),
            )
        except HierarchyError as err:
            raise CorpusFormatError(f"{path}:{number}: {err}") from None
        tweet = context.normalize(RawTweet(id=row_id, text=text))
        examples.append(LabeledExample(tweet=tweet, labels=labels))
    return examples


def save_labeled(path, examples: list[LabeledExample]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(LABELED_HEADER) + "\n")
        for ex in examples:
            handle.write("\t".join((ex.tweet.id, ex.tweet.text) + ex.labels.as_tuple()) + "\n")


def load_scored(path, context: NormContext) -> list[ScoredExample]:
    """Load a SOLID-style scored TSV with AVG_CONF / STD columns."""
    examples = []
    for number, (row_id, text, avg, std) in _read_tsv(path, SCORED_HEADER):
        try:
            avg_value = float(avg)
            std_value = float(std)
        except ValueError:
            raise CorpusFormatError(
                f"{path}:{number}: non-numeric score ({avg!r}, {std!r})"
            ) from None
        tweet = context.normalize(RawTweet(id=row_id, text=text))
        try:
            examples.append(
                ScoredExample(tweet=tweet, avg_conf=avg_value, std_conf=std_value)
            )
        except ValueError as err:
            raise CorpusFormatError(f"{path}:{number}: {err}") from None
    return examples


OFF_PLACEHOLDER = LabelTriple(TaskLabelA.OFF, TaskLabelB.UNT, TaskLabelC.NULL)
NOT_PLACEHOLDER = LabelTriple(TaskLabelA.NOT, TaskLabelB.NULL, TaskLabelC.NULL)


def binarize(examples: list[ScoredExample], threshold: float) -> list[LabeledExample]:
    """Threshold confidence scores into task-A labels.

    avg_conf >= threshold maps to OFF (boundary included). B/C get
    hierarchy-consistent placeholders and the result is flagged synthetic so
    those placeholders never contribute to B/C losses.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    return [
        LabeledExample(
            tweet=ex.tweet,
            labels=OFF_PLACEHOLDER if ex.avg_conf >= threshold else NOT_PLACEHOLDER,
            synthetic=True,
        )
        for ex in examples
    ]


def split(examples: list, fractions: tuple[float, float], seed: int):
    """Deterministic shuffled train/validation partition."""
    if len(examples) < 2:
        raise ValueError("need at least 2 examples to split")
    if min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions {fractions} must be positive and sum to 1")
    order = np.random.default_rng(seed).permutation(len(examples))
    n_train = int(round(fractions[0] * len(examples)))
    n_train = min(max(n_train, 1), len(examples) - 1)
    train = [examples[i] for i in order[:n_train]]
    val = [examples[i] for i in order[n_train:]]
    return train, val
