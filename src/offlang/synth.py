"""Synthetic corpora for demos and trend experiments.

Examples are built from latent categories that deterministically fix the
B and C labels; the A label follows the latent with optional flip noise
(hierarchy kept consistent by adjusting B/C when A flips).
"""

from __future__ import annotations

import numpy as np

from .corpus import (
    LabelTriple,
    LabeledExample,
    ScoredExample,
    TaskLabelA,
    TaskLabelB,
    TaskLabelC,
)
from .textnorm import NormalizedTweet

# latent -> (label triple, indicator words)
_CATEGORIES = {
    "none": (
        LabelTriple(TaskLabelA.NOT, TaskLabelB.NULL, TaskLabelC.NULL),
        ["lovely", "weather", "coffee", "sunday", "music", "garden"],
    ),
    "untargeted": (
        LabelTriple(TaskLabelA.OFF, TaskLabelB.UNT, TaskLabelC.NULL),
        ["damn", "crap", "swearing", "rant", "cursing"],
    ),
    "individual": (
        LabelTriple(TaskLabelA.OFF, TaskLabelB.TIN, TaskLabelC.IND),
        ["idiot", "you", "loser", "clown", "fool"],
    ),
    "group": (
        LabelTriple(TaskLabelA.OFF, TaskLabelB.TIN, TaskLabelC.GRP),
        ["them", "those", "crowd", "mob", "herd"],
    ),
    "other": (
        LabelTriple(TaskLabelA.OFF, TaskLabelB.TIN, TaskLabelC.OTH),
        ["thing", "stuff", "object", "mess", "junk"],
    ),
}

_FILLER = ["the", "so", "very", "really", "just", "a", "what", "is", "that",
           "today", "again", "now", "here", "ok", "well"]

_NOT_TRIPLE = LabelTriple(TaskLabelA.NOT, TaskLabelB.NULL, TaskLabelC.NULL)
_UNT_TRIPLE = LabelTriple(TaskLabelA.OFF, TaskLabelB.UNT, TaskLabelC.NULL)
_NAMES = list(_CATEGORIES)


def _draw(rng: np.random.Generator, n_words: int,
          tweet_id: str) -> tuple[str, NormalizedTweet]:
    """One example's latent category and its tweet: two of the category's
    indicator words and `n_words - 2` filler words, shuffled."""
    name = _NAMES[rng.integers(len(_NAMES))]
    indicators = _CATEGORIES[name][1]
    words = [indicators[rng.integers(len(indicators))] for _ in range(2)]
    words += [_FILLER[rng.integers(len(_FILLER))] for _ in range(n_words - 2)]
    rng.shuffle(words)
    return name, NormalizedTweet(id=tweet_id, text=" ".join(words), steps_applied=())


def make_hierarchical_corpus(n: int, seed: int, noise_a: float = 0.0,
                             n_words: int = 6) -> list[LabeledExample]:
    """n examples over the latent categories, optionally flipping the A label
    with probability noise_a (B/C stay deterministic functions of the latent
    unless the flip forces a consistent placeholder)."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        name, tweet = _draw(rng, n_words, f"synth{i}")
        triple = _CATEGORIES[name][0]
        if noise_a > 0.0 and rng.random() < noise_a:
            triple = _UNT_TRIPLE if triple.a is TaskLabelA.NOT else _NOT_TRIPLE
        examples.append(LabeledExample(tweet=tweet, labels=triple))
    return examples


def make_scored_corpus(n: int, seed: int, n_words: int = 6) -> list[ScoredExample]:
    """Scored examples whose confidence tracks how offensive the latent is."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        name, tweet = _draw(rng, n_words, f"scored{i}")
        base = 0.15 if name == "none" else 0.75
        avg = float(np.clip(base + rng.normal(0, 0.08), 0.0, 1.0))
        examples.append(ScoredExample(tweet=tweet, avg_conf=avg,
                                      std_conf=float(abs(rng.normal(0, 0.05)))))
    return examples
