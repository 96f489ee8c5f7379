"""A small BERT-style transformer encoder trained from random initialization.

Post-layernorm blocks, learned positional embeddings, GELU feed-forward,
CLS-first inputs. Desk-scale by default; all math in float64 through the
autodiff core so gradients are exact. Execution is packed: every layer
runs on the batch's real tokens only, and the output is those packed
token rows (see `encode`). Attention and layer norm are single fused
autodiff nodes (`autodiff.attention`, `autodiff.layer_norm`); attention
pads each length-sorted group of rows only to its own longest row.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import Tensor, attention, dropout, layer_norm, prefix_lengths, rows


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
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ffn) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def linear(params: dict[str, Tensor], rng: np.random.Generator, name: str,
           fan_in: int, fan_out: int) -> None:
    """Add `<name>.w` drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)) and a
    zero `<name>.b` to `params`."""
    scale = 1.0 / np.sqrt(fan_in)
    params[f"{name}.w"] = Tensor(
        rng.uniform(-scale, scale, (fan_in, fan_out)), requires_grad=True
    )
    params[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True)


def init_encoder(config: EncoderConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization keyed by module-local names."""
    config.validate()
    if config.vocab_size < 3:
        raise ValueError("vocab_size must cover the reserved tokens")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def uniform(name, *shape):
        params[name] = Tensor(rng.uniform(-0.05, 0.05, shape), requires_grad=True)

    uniform("tok_emb", config.vocab_size, config.d_model)
    uniform("pos_emb", config.max_len, config.d_model)
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        for proj in ("q", "k", "v", "o"):
            linear(params, rng, f"{p}.attn.{proj}", config.d_model, config.d_model)
        linear(params, rng, f"{p}.ffn.in", config.d_model, config.d_ffn)
        linear(params, rng, f"{p}.ffn.out", config.d_ffn, config.d_model)
        for ln in ("ln1", "ln2"):
            params[f"{p}.{ln}.gamma"] = Tensor(np.ones(config.d_model), requires_grad=True)
            params[f"{p}.{ln}.beta"] = Tensor(np.zeros(config.d_model), requires_grad=True)
    return params


def encode(params: dict[str, Tensor], config: EncoderConfig,
           ids: np.ndarray, mask: np.ndarray,
           rng: np.random.Generator | None = None) -> Tensor:
    """Contextual embeddings (N, d_model) of the N real tokens of ids (B, T),
    T <= max_len, in row-major order: row b's tokens are contiguous, CLS
    first. This is the layout `autodiff.lstm` reads.

    Each mask row is 1 for the row's real tokens, then 0 for PAD (see
    `autodiff.prefix_lengths`). The embeddings, the Q/K/V/O and
    feed-forward projections, GELU, layer norm, residuals and dropout all
    run on the packed rows. `autodiff.attention` scores each row's tokens
    against each other in length-sorted groups of rows, each padded only to
    its own longest row, and PAD keys get zero weight. `rng` turns dropout
    on (training); None is deterministic evaluation. Each token-layer
    dropout mask is drawn at (N, d_model); attention draws one mask per
    group, at the group's (rows, heads, longest, longest) shape.
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
    lengths = prefix_lengths(mask)

    rate = config.dropout_rate
    tokens = np.flatnonzero(np.arange(T) < lengths[:, None])     # row-major (b, t)
    pos = tokens % T

    def affine(x, name):
        return x @ params[f"{name}.w"] + params[f"{name}.b"]

    x = rows(params["tok_emb"], ids.reshape(-1)[tokens]) + rows(params["pos_emb"], pos)
    x = dropout(x, rate, rng)
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        q, k, v = (affine(x, f"{p}.attn.{proj}") for proj in "qkv")
        ctx = attention(q, k, v, lengths, config.n_heads, rate, rng)
        x = layer_norm(x + dropout(affine(ctx, f"{p}.attn.o"), rate, rng),
                       params[f"{p}.ln1.gamma"], params[f"{p}.ln1.beta"])
        ffn = affine(affine(x, f"{p}.ffn.in").gelu(), f"{p}.ffn.out")
        x = layer_norm(x + dropout(ffn, rate, rng),
                       params[f"{p}.ln2.gamma"], params[f"{p}.ln2.beta"])
    return x
