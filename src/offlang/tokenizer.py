"""Whitespace vocabulary and fixed-length token-id encoding.

Reserved ids: PAD=0, UNK=1, CLS=2. Sequences start with CLS, are truncated
to max_len (CLS counted), and padded with PAD; the attention mask marks
real tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD, UNK, CLS = 0, 1, 2
RESERVED = ("<pad>", "<unk>", "<cls>")


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("vocabulary ids must be dense in [0, V)")
        for tok, want in zip(RESERVED, (PAD, UNK, CLS)):
            if self.token_to_id.get(tok) != want:
                raise ValueError(f"reserved token {tok} must have id {want}")

    def __len__(self):
        return len(self.token_to_id)

    @property
    def id_to_token(self) -> list[str]:
        out = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            out[i] = tok
        return out

    def to_lines(self) -> list[str]:
        return [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]

    @classmethod
    def from_lines(cls, lines) -> "Vocabulary":
        mapping = {}
        for line in lines:
            tok, _, i = line.rstrip("\n").partition("\t")
            mapping[tok] = int(i)
        return cls(mapping)


@dataclass(frozen=True)
class TokenSequence:
    ids: np.ndarray
    attention_mask: np.ndarray


def build_vocab(corpus, min_freq: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count whitespace tokens; keep those with frequency >= min_freq, most
    frequent first (alphabetical among ties), capped at max_size including
    the reserved tokens. A text token spelled like a reserved name gets no
    entry of its own, and `encode` maps it to UNK."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter()
    for text in corpus:
        counts.update(text.split())
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = [tok for tok, freq in ranked if freq >= min_freq and tok not in RESERVED]
    if max_size is not None:
        tokens = tokens[: max(max_size - len(RESERVED), 0)]
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for tok in tokens:
        mapping[tok] = len(mapping)
    return Vocabulary(mapping)


def encode(text: str, vocab: Vocabulary, max_len: int = 64) -> TokenSequence:
    """CLS + token ids, truncated to max_len, PAD-filled. A token missing
    from the vocabulary, or spelled like a reserved name, is UNK, so PAD
    and CLS mark only padding and the sequence start."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    ids = [CLS]
    for tok in text.split():
        i = vocab.token_to_id.get(tok, UNK)
        ids.append(i if i >= len(RESERVED) else UNK)
    ids = ids[:max_len]
    mask = [1] * len(ids) + [0] * (max_len - len(ids))
    ids = ids + [PAD] * (max_len - len(ids))
    return TokenSequence(
        ids=np.array(ids, dtype=np.int64),
        attention_mask=np.array(mask, dtype=np.int64),
    )


def decode(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Inverse of encode on in-vocabulary text, minus the CLS marker."""
    names = vocab.id_to_token
    toks = [
        names[i]
        for i, m in zip(seq.ids, seq.attention_mask)
        if m and i not in (PAD, CLS)
    ]
    return " ".join(toks)


def encode_batch(texts, vocab: Vocabulary, max_len: int = 64):
    """Stacked (ids, mask) arrays for a list of texts."""
    seqs = [encode(t, vocab, max_len) for t in texts]
    return (
        np.stack([s.ids for s in seqs]),
        np.stack([s.attention_mask for s in seqs]),
    )
