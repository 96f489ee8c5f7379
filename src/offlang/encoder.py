"""A small BERT-style transformer encoder trained from random initialization.

Post-layernorm blocks, learned positional embeddings, GELU feed-forward,
CLS-first inputs. Desk-scale by default; all math in float64 through the
autodiff core so gradients are exact. Execution is packed: every layer runs
on the batch's real tokens only, and the output is those packed token rows
and their row lengths (see `encode`). `encode` is the only reader of the
tokenizer's padding mask: past it, a batch is rows plus `lengths`.
Attention, layer norm, each projection and each dropout are single autodiff
nodes (`autodiff.attention`, `autodiff.layer_norm`, `autodiff.affine`,
`autodiff.dropout`); attention pads each length-sorted group of rows only to
its own longest row. In training, the graph keeps a value only where a
backward reads it: the embedding rows, each residual sum, each sub-block's
output projection and its dropout output feed only `+`, `dropout` and
`layer_norm`, which need their shapes alone, so `encode` releases them
(`Tensor.release`) as soon as their consumers are built. The graph then
keeps the embedding dropout's output and, per layer, q, k, v, the
attention context, the first norm's output, the feed-forward rows before
and after GELU, and the second norm's output, the next layer's input.
`encoder_layout` gives the parameter names and shapes, and `init_params`
fills them.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import Tensor, affine, attention, dropout, layer_norm, rows


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ffn: int = 128
    max_len: int = 64
    vocab_size: int = 0       # filled from the vocabulary at build time
    dropout_rate: float = 0.1

    def validate(self) -> None:
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ffn) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def linear(layout: dict[str, tuple[int, ...]], name: str, fan_in: int,
           fan_out: int) -> None:
    """Add a (fan_in, fan_out) `<name>.w` and a (fan_out,) `<name>.b` to
    `layout`."""
    layout[f"{name}.w"] = (fan_in, fan_out)
    layout[f"{name}.b"] = (fan_out,)


def encoder_layout(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The encoder's parameter names and shapes, in initialization order.
    An invalid config raises ValueError."""
    config.validate()
    if config.vocab_size < 3:
        raise ValueError("vocab_size must cover the reserved tokens")
    d = config.d_model
    layout = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d)}
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        for proj in ("q", "k", "v", "o"):
            linear(layout, f"{p}.attn.{proj}", d, d)
        linear(layout, f"{p}.ffn.in", d, config.d_ffn)
        linear(layout, f"{p}.ffn.out", config.d_ffn, d)
        for ln in ("ln1", "ln2"):
            layout[f"{p}.{ln}.gamma"] = layout[f"{p}.{ln}.beta"] = (d,)
    return layout


def init_params(layout: dict[str, tuple[int, ...]],
                rng: np.random.Generator) -> dict[str, Tensor]:
    """Fill `layout` in its order: an embedding table from U(-0.05, 0.05),
    a `.w` of fan-in f from U(-1/sqrt(f), 1/sqrt(f)), `.gamma` with ones,
    a `.b` or `.beta` with zeros. Only the uniform entries draw from `rng`."""
    params = {}
    for name, shape in layout.items():
        if name.endswith("_emb"):
            data = rng.uniform(-0.05, 0.05, shape)
        elif name.endswith(".w"):
            scale = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-scale, scale, shape)
        else:
            data = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def init_encoder(config: EncoderConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization keyed by module-local names."""
    return init_params(encoder_layout(config), np.random.default_rng(seed))


def prefix_lengths(mask: np.ndarray) -> np.ndarray:
    """Row lengths of a (B, T) mask laid out as real tokens (1) first, then
    PAD (0). Any other mask raises ValueError."""
    lengths = np.count_nonzero(mask, axis=1)
    if not np.array_equal(mask, np.arange(mask.shape[1]) < lengths[:, None]):
        raise ValueError("each mask row must be 1s for its real tokens followed "
                         "by 0s for PAD")
    return lengths


def encode(params: dict[str, Tensor], config: EncoderConfig,
           ids: np.ndarray, mask: np.ndarray,
           rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
    """Contextual embeddings (N, d_model) of the N real tokens of ids (B, T),
    T <= max_len, and the (B,) row lengths. The rows are in row-major
    order: row b's `lengths[b]` tokens are contiguous, CLS first. This is
    the layout `autodiff.lstm` and `autodiff.attention` read.

    The mask is read here and nowhere past here: each row must be 1 for the
    row's real tokens, at least one of them, then 0 for PAD (`prefix_lengths`
    checks the layout once per call). The embeddings, the Q/K/V/O and
    feed-forward projections, GELU, layer norm, residuals and dropout all run
    on the packed rows.
    `autodiff.attention` scores each row's tokens against each other in
    length-sorted groups of rows, each padded only to its own longest row,
    and PAD keys get zero weight. `rng` turns dropout on (training); None is
    deterministic evaluation. Each token-layer dropout mask is drawn at (N,
    d_model); attention draws one mask per group, at the group's (rows,
    heads, longest, longest) shape.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError("ids must be (batch, max_len)")
    B, T = ids.shape
    if T > config.max_len:
        raise ValueError(f"ids are {T} positions wide, but the encoder's "
                         f"max_len is {config.max_len}")
    if np.shape(mask) != (B, T):
        raise ValueError("mask must have the shape of ids")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    lengths = prefix_lengths(np.asarray(mask))
    if not lengths.all():
        raise ValueError(f"mask row {np.argmin(lengths)} has no real token")

    rate = config.dropout_rate
    tokens = np.flatnonzero(np.arange(T) < lengths[:, None])     # row-major (b, t)
    pos = tokens % T

    def dense(x, name):
        return affine(x, params[f"{name}.w"], params[f"{name}.b"])

    def add_norm(x, sub, ln):
        """layer_norm(x + dropout(sub)) with `ln`'s gamma and beta. No
        backward reads sub, its dropout output or the sum, only their
        shapes, so each is released once its consumer is built. Without a
        graph nothing is released, and a `sub` passed as a temporary dies
        after the sum, as it would in one expression."""
        dropped = dropout(sub, rate, rng)
        total = x + dropped
        sub.release()
        dropped.release()
        del sub, dropped
        out = layer_norm(total, params[f"{ln}.gamma"], params[f"{ln}.beta"])
        total.release()
        return out

    tok_rows = rows(params["tok_emb"], ids.reshape(-1)[tokens])
    pos_rows = rows(params["pos_emb"], pos)
    emb = tok_rows + pos_rows
    tok_rows.release()
    pos_rows.release()
    x = dropout(emb, rate, rng)
    if x is not emb:              # unchanged, emb is x, which the projections read
        emb.release()
    del tok_rows, pos_rows, emb   # without a graph, each dies where one expression frees it
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        q, k, v = (dense(x, f"{p}.attn.{proj}") for proj in "qkv")
        ctx = attention(q, k, v, lengths, config.n_heads, rate, rng)
        x = add_norm(x, dense(ctx, f"{p}.attn.o"), f"{p}.ln1")
        ffn = dense(dense(x, f"{p}.ffn.in").gelu(), f"{p}.ffn.out")
        x = add_norm(x, ffn, f"{p}.ln2")
    return x, lengths
