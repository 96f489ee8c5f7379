"""A small BERT-style transformer encoder trained from random initialization.

Post-layernorm blocks, learned positional embeddings, GELU feed-forward,
CLS-first inputs. Desk-scale by default; all math in float64 through the
autodiff core so gradients are exact. Execution is packed: every layer
runs on the batch's real tokens only, and the output is those packed
token rows (see `encode`).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import Tensor, dropout, gather_rows, prefix_lengths, rows, scatter_rows


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


LN_EPS = 1e-5
MASK_NEG = -1e30  # exp() underflows to exactly 0, so PAD attention weight is 0


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


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2.0).mean(axis=-1, keepdims=True)
    return centered * (var + LN_EPS) ** -0.5 * gamma + beta


def _attention(x: Tensor, params: dict[str, Tensor], prefix: str,
               config: EncoderConfig, layout: tuple[int, int], slots: np.ndarray,
               attn_bias: np.ndarray, rng: np.random.Generator | None) -> Tensor:
    """Self-attention over packed tokens x (N, d). Q, K and V are projected
    per token, then laid out as (B, L) at `slots` for the scores; each
    token's context is read back from its slot before the output
    projection. Dropout on the (B, H, L, L) weights draws from `rng`."""
    B, L = layout
    D = x.shape[1]
    H = config.n_heads
    dh = D // H

    def heads(name):
        proj = x @ params[f"{prefix}.{name}.w"] + params[f"{prefix}.{name}.b"]
        padded = scatter_rows(proj, slots, B * L)
        return padded.reshape(B, L, H, dh).transpose(0, 2, 1, 3)  # (B,H,L,dh)

    q, k, v = heads("q"), heads("k"), heads("v")
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(dh))
    scores = scores + Tensor(attn_bias)
    weights = dropout(scores.softmax(), config.dropout_rate, rng)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(B * L, D)
    return gather_rows(ctx, slots) @ params[f"{prefix}.o.w"] + params[f"{prefix}.o.b"]


def encode(params: dict[str, Tensor], config: EncoderConfig,
           ids: np.ndarray, mask: np.ndarray,
           rng: np.random.Generator | None = None) -> Tensor:
    """Contextual embeddings (N, d_model) of the N real tokens of ids (B, T),
    T <= max_len, in row-major order: row b's tokens are contiguous, CLS
    first. This is the layout `autodiff.lstm` reads.

    Each mask row is 1 for the row's real tokens, then 0 for PAD (see
    `autodiff.prefix_lengths`). The embeddings, the Q/K/V/O and
    feed-forward projections, GELU, layer norm, residuals and dropout all
    run on the packed rows. Only the attention scores use a (B, L) layout,
    where L is the longest row, and PAD keys get zero weight. `rng` turns
    dropout on (training); None is deterministic evaluation. Each dropout
    mask is drawn at the shape it masks: (N, d_model) for token layers and
    (B, H, L, L) for attention weights.
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
    L = max(int(lengths.max(initial=0)), 1)
    real = np.arange(T) < lengths[:, None]
    tokens = np.flatnonzero(real)                 # row-major (b, t)
    row, pos = np.divmod(tokens, T)
    slots = row * L + pos                         # each token's place in (B, L)
    attn_bias = (1.0 - real[:, :L])[:, None, None, :] * MASK_NEG    # (B,1,1,L)

    x = rows(params["tok_emb"], ids.reshape(-1)[tokens]) + rows(params["pos_emb"], pos)
    x = dropout(x, rate, rng)
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        attn = _attention(x, params, f"{p}.attn", config, (B, L), slots, attn_bias, rng)
        x = _layer_norm(x + dropout(attn, rate, rng),
                        params[f"{p}.ln1.gamma"], params[f"{p}.ln1.beta"])
        hidden = (x @ params[f"{p}.ffn.in.w"] + params[f"{p}.ffn.in.b"]).gelu()
        ffn = hidden @ params[f"{p}.ffn.out.w"] + params[f"{p}.ffn.out.b"]
        x = _layer_norm(x + dropout(ffn, rate, rng),
                        params[f"{p}.ln2.gamma"], params[f"{p}.ln2.beta"])
    return x
