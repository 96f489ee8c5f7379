"""Whitespace vocabulary and fixed-length token-id encoding.

Reserved ids: PAD=0, UNK=1, CLS=2. `encode_batch` is the one path from
text to ids: each row starts with CLS, is truncated to max_len (CLS
counted) and padded with PAD, and the attention mask marks real tokens.
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
        """Read `to_lines` output; an entry that is not a string raises
        ValueError naming its index."""
        mapping = {}
        for index, line in enumerate(lines):
            if not isinstance(line, str):
                raise ValueError(f"vocabulary entry {index} is "
                                 f"{type(line).__name__}, not a string")
            tok, _, i = line.rstrip("\n").partition("\t")
            mapping[tok] = int(i)
        return cls(mapping)


def build_vocab(corpus, min_freq: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count whitespace tokens; keep those with frequency >= min_freq, most
    frequent first (alphabetical among ties), capped at max_size including
    the reserved tokens. A text token spelled like a reserved name gets no
    entry of its own, and `encode_batch` maps it to UNK."""
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


def encode_batch(texts, vocab: Vocabulary, max_len: int):
    """(ids, mask) for a list of texts: (len(texts), max_len) int64 ids and
    a boolean mask of the same shape, one byte a position. Row i is CLS and
    the ids of text i's whitespace tokens, truncated to max_len (CLS
    counted) and PAD-filled; the mask is True at the real positions. A
    token missing from the vocabulary, or spelled like a reserved name, is
    UNK, so PAD and CLS mark only padding and the sequence start."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    rows = [text.split()[:max_len - 1] for text in texts]
    tokens = np.array([vocab.token_to_id.get(tok, UNK) for row in rows for tok in row],
                      dtype=np.int64)
    tokens[tokens < len(RESERVED)] = UNK
    lengths = np.array([len(row) + 1 for row in rows], dtype=np.int64)
    real = np.arange(max_len) < lengths[:, None]
    ids = np.full(real.shape, PAD, dtype=np.int64)
    ids[:, 0] = CLS
    ids[:, 1:][real[:, 1:]] = tokens
    return ids, real
