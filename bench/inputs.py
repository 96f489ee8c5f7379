"""Seeded input generators for the benchmark workloads.

Tweets come from `offlang.synth` and are decorated using only the bundled
emoji and unigram tables, so nothing is downloaded. Every generator is a
pure function of its seed and the tables.

Each generator returns the splits its workload uses, as
`LabeledExample`s whose tweet text is still raw, so that
`corpus.save_labeled` can write them to the TSVs that the benchmark then
reads back through `corpus.load_labeled`, as the CLI would.

Word counts and decorations are stratified: every seed gets the same
multiset of tweet lengths, decoration counts and hashtag lengths, and the
seed picks the words, the labels and which tweet gets what. Work per run
then depends on the workload, not on how a seed happened to sample a tail.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from offlang import synth
from offlang.corpus import LabeledExample
from offlang.textnorm import EmojiTable, NormalizedTweet, UnigramTable

Splits = dict[str, list[LabeledExample]]


def stratified(rng, values, probs, n: int) -> list:
    """n draws holding each value in proportion to its probability (largest
    remainder), in seeded order."""
    exact = np.asarray(probs, dtype=float) * n
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact)[: n - counts.sum()]:
        counts[i] += 1
    out = [v for v, c in zip(values, counts) for _ in range(c)]
    return [out[i] for i in rng.permutation(n)]


def quantile_points(n: int) -> np.ndarray:
    """Mid-points of n equal-probability strata of (0, 1)."""
    return (np.arange(n) + 0.5) / n


class Decorations:
    """The pools that decorations draw from, taken from the bundled tables."""

    def __init__(self, emoji: EmojiTable, unigrams: UnigramTable):
        self.known_emoji = sorted(emoji.entries)
        # emoji-block codepoints missing from the table: normalization drops
        # them and logs a warning, as it would for a real tweet
        self.absent_emoji = [
            chr(cp) for cp in range(0x1F300, 0x1FAFF)
            if chr(cp) not in emoji.entries
        ][:16]
        self.words = [w for w in unigrams.counts if w.isalpha() and len(w) > 1]

    def word(self, rng) -> str:
        return self.words[rng.integers(len(self.words))]

    def hashtag(self, rng, length: int, camel: bool) -> str:
        """A run-on of bundled unigrams, cut to `length` characters."""
        parts = []
        while sum(map(len, parts)) < length:
            parts.append(self.word(rng))
        if camel:
            parts = [p.capitalize() for p in parts]
        return "#" + "".join(parts)[:length]

    def heavy(self, rng, texts: list[str]) -> list[str]:
        """Runs of 0-3 mentions, 0-2 URLs and 0-3 emoji, with an emoji absent
        from the table on 5% of tweets, and 0-3 hashtags. Hashtags are half
        camel case, half lowercase run-ons; 92% are 5-30 characters and the
        rest 31-120. Camel case does not keep a hashtag out of the dynamic
        program in hashtag segmentation: `textnorm.normalize` segments each
        body in its original case and again lowercased, the second time as
        the eagerly evaluated default of a `dict.get`, so every hashtag goes
        through the dynamic program."""
        n = len(texts)
        mentions = stratified(rng, range(4), (0.4, 0.3, 0.2, 0.1), n)
        emoji = stratified(rng, range(4), (0.4, 0.3, 0.2, 0.1), n)
        absent = stratified(rng, (True, False), (0.05, 0.95), n)
        tags = stratified(rng, range(4), (0.3, 0.35, 0.25, 0.1), n)
        urls = stratified(rng, range(3), (0.5, 0.4, 0.1), n)
        n_tags = sum(tags)
        n_long = round(0.08 * n_tags)
        lengths = np.concatenate([
            5 + np.floor(quantile_points(n_tags - n_long) * 26),
            31 + np.floor(quantile_points(n_long) * 90),
        ]).astype(int)
        lengths = iter(lengths[rng.permutation(n_tags)])
        camel = iter(stratified(rng, (True, False), (0.5, 0.5), n_tags))

        out = []
        for i, text in enumerate(texts):
            tokens = ["@USER"] * mentions[i] + text.split()
            run = "".join(self.known_emoji[rng.integers(len(self.known_emoji))]
                          for _ in range(emoji[i]))
            if absent[i]:
                run += self.absent_emoji[rng.integers(len(self.absent_emoji))]
            if run:
                tokens.insert(int(rng.integers(len(tokens) + 1)), run)
            for _ in range(tags[i]):
                tag = self.hashtag(rng, int(next(lengths)), next(camel))
                tokens.insert(int(rng.integers(len(tokens) + 1)), tag)
            out.append(" ".join(tokens + ["URL"] * urls[i]))
        return out


def synth_examples(rng, lengths, prefix: str) -> list[LabeledExample]:
    """Synthetic labeled tweets with the given word counts, in order."""
    lengths = [int(n) for n in lengths]
    by_length = {
        n: iter(synth.make_hierarchical_corpus(
            lengths.count(n), seed=int(rng.integers(2 ** 31)), n_words=n))
        for n in sorted(set(lengths))
    }
    return [_with_text(next(by_length[n]), f"{prefix}{i}")
            for i, n in enumerate(lengths)]


def _with_text(example: LabeledExample, tweet_id: str, text: str | None = None):
    return LabeledExample(
        tweet=NormalizedTweet(id=tweet_id, text=example.tweet.text if text is None else text,
                              steps_applied=()),
        labels=example.labels,
    )


def _decorated(rng, examples, decorate) -> list[LabeledExample]:
    texts = decorate(rng, [ex.tweet.text for ex in examples])
    return [_with_text(ex, ex.tweet.id, text) for ex, text in zip(examples, texts)]


def short_lengths(rng, n: int) -> list:
    """10-15 words: with CLS, 11-16 tokens for max_len 16, barely padded."""
    return stratified(rng, range(10, 16), [1 / 6] * 6, n)


def long_lengths(rng, n: int) -> list:
    """Long-tailed: log-normal with median 14 words, from 6 to 63. From 32
    tweets up, the top stratum is 63 words, so with CLS the longest tweet
    fills max_len 64 exactly and every batch holding it runs all 64 LSTM
    steps, whatever the seed."""
    z = np.array([NormalDist().inv_cdf(q) for q in quantile_points(n)])
    lengths = np.clip(np.exp(np.log(14.0) + 0.75 * z).astype(int), 6, 63)
    return list(lengths[rng.permutation(n)])


def _splits(seed: int, sizes: dict[str, int], lengths, decorate=None) -> Splits:
    rng = np.random.default_rng(seed)
    splits = {}
    for name, n in sizes.items():
        examples = synth_examples(rng, lengths(rng, n), name)
        splits[name] = examples if decorate is None else _decorated(rng, examples, decorate)
    return splits


def train_short(seed: int, deco: Decorations) -> Splits:
    """Plain synthetic training and validation text."""
    return _splits(seed, {"train": 256, "val": 64}, short_lengths)


def train_long(seed: int, deco: Decorations) -> Splits:
    return _splits(seed, {"train": 96, "val": 32}, long_lengths)


def infer(seed: int, deco: Decorations) -> Splits:
    """Every split heavily decorated, so normalization is on every path.
    `train` only feeds the vocabulary; `eval` is the evaluate set and
    `predict` the pool of raw tweets that requests draw from."""
    return _splits(seed, {"train": 32, "eval": 128, "predict": 256},
                   long_lengths, deco.heavy)
