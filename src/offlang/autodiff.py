"""Minimal reverse-mode automatic differentiation on numpy arrays.

Everything runs in float64 so that analytic gradients can be compared
against central finite differences at tight tolerances. The op set is
what the encoder, the recurrent heads and the losses need, plus the few
elementwise and shape ops that the tests' composed references use; no
attempt is made to be a general framework. Four fused nodes carry
most of the work, each with a hand-written backward: `lstm`, a single
recurrence over all heads with BPTT; `attention`, multi-head
self-attention from scores to context; `rows`, the embedding through its
dropout; and `residual_norm`, a post-norm sub-block's tail,
layer_norm(x + dropout(h @ w + b)). `affine` (x @ w + b) is a single lean
node too. Like every other op, each is checked against finite
differences. Inside `no_grad()` ops build no graph, which is how
inference runs. A node gets a backward closure only when some parent
requires grad (`Tensor._result`), so a one-parent op's closure
accumulates into its parent unconditionally. Every dropout keep mask,
in `rows`, `attention` and `residual_norm`, is drawn by `_keep_mask`.

`Tensor.backward` frees the graph as it goes: each node drops its
gradient, closure and parent links once its closure has run, so saved
activations die as soon as the last closure that reads them has run, and
training holds one graph at a time. A graph therefore runs backward once
per forward; a second backward through it raises ValueError.

The fused nodes keep only what their backward reads, and rebuild in one
pass what their parents give back: `lstm` keeps its gate activations,
cells and tanh(cells) and overwrites them with gradients in backward;
`attention` keeps each group's softmax probabilities and boolean dropout
mask; `residual_norm` keeps the centered sum, two per-row statistics and
a boolean dropout mask, and `rows` its index arrays and a boolean mask;
`affine` keeps nothing but its parents; and `gelu` keeps nothing but its
input, recomputing tanh in backward. The values that no backward reads,
the embedding's gathers and sum and each tail's projection, dropout
output and residual sum, are temporaries inside `rows` and
`residual_norm`, so no graph node holds them.

Execution is packed: token activations are (N, ...) rows, one per real
token in row-major order, and the packed ops, `lstm` and `attention`, take
the batch's row `lengths` with them; no op reads a padding mask. `lstm`
reorders the rows time-major (each step's live rows one contiguous run),
projects them for every head with one GEMM and steps only the rows still
running, in place; under `no_grad()` it keeps only the running state.
`attention` reads them in a few length-sorted groups of rows, each padded
only to its own longest row, and writes each token's context back to its
row.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

# per thread and per asyncio task, so inference in one cannot silently drop
# the graph that training builds in another
_grad_enabled = ContextVar("grad_enabled", default=True)

LN_EPS = 1e-5
MASK_NEG = -1e30          # exp() underflows to exactly 0, so a PAD key gets weight 0
ATTENTION_GROUPS = 8      # length groups per `attention` call; see CHANGES.md for the sweep


@contextmanager
def no_grad():
    """Build no graph inside the block: op results get no parents and no
    backward closure, so forward buffers are freed as soon as they are
    unused. Forward values are unchanged."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """A numpy array plus a gradient slot and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros(self.shape)
        self.grad += g

    def backward(self):
        """Accumulate d self / d leaf into the `.grad` of every leaf that
        requires it; `self` must be a scalar.

        Backward frees the graph as it goes: once a node's closure has run,
        the node drops its gradient, its closure and its parent links, so
        every saved activation dies as soon as the last closure that reads
        it has run, and afterwards the root is a bare value. Leaves, such
        as parameters, keep their `.grad`. A graph therefore runs backward
        once per forward: reaching a consumed node again raises ValueError.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _consumed:
                raise ValueError("backward() reached a graph that was already used by an "
                                 "earlier backward(); run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = _consumed
                node._parents = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        out_data = self.data ** exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return Tensor._result(out_data, (self,), backward)

    def __matmul__(self, other):
        other = _as_tensor(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return Tensor._result(out_data, (self, other), backward)

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)    # an index array may repeat entries
            self._accumulate(full)

        return Tensor._result(out_data, (self,), backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        out_data = self.data.reshape(*shape)

        def backward(g):
            self._accumulate(g.reshape(self.data.shape))

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, *axes):
        out_data = self.data.transpose(*axes)
        inverse = np.argsort(axes)

        def backward(g):
            self._accumulate(g.transpose(*inverse))

        return Tensor._result(out_data, (self,), backward)

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return Tensor._result(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._result(np.log(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data ** 2))

        return Tensor._result(out_data, (self,), backward)

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def backward(g):
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._result(out_data, (self,), backward)

    def gelu(self):
        """GELU in its tanh approximation, smooth everywhere, which keeps
        finite-difference gradient checks clean (ReLU kinks would not). The
        node keeps only its input, which its parent holds anyway: backward
        recomputes tanh(inner) with the forward's expression, so the
        gradient has the bits of one computed from a kept tanh."""
        x = self.data
        inner = _gelu_inner(x)
        t = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + t)

        def backward(g):
            t = np.tanh(_gelu_inner(x))
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
            grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner
            self._accumulate(g * grad)

        return Tensor._result(out_data, (self,), backward)

    def softmax(self):
        """Softmax over the last axis, stable under large negative masks."""
        z = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out_data = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            self._accumulate(out_data * (g - dot))

        return Tensor._result(out_data, (self,), backward)


def _consumed(g):
    """Marks a node whose closure backward has run: `Tensor.backward`
    refuses to reach it, so this never runs."""


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_inner(x):
    """GELU's tanh argument, sqrt(2 / pi) * (x + 0.044715 x^3)."""
    return _GELU_C * (x + 0.044715 * (x * x * x))


def _sigmoid(x):
    # the overflow-free forms 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below, selected without boolean indexing:
    # exp(min(x, 0)) is exactly 1 for x >= 0
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _keep_mask(shape, rate: float, rng: np.random.Generator | None):
    """An inverted-dropout keep mask: a boolean array drawn at `shape`, one
    entry per element, and the scale 1 / (1 - rate) of its kept entries.
    `rng=None` or rate 0 means evaluation mode: nothing is drawn, and the
    mask is None."""
    if rng is None or rate <= 0.0:
        return None, 1.0
    return rng.random(shape) >= rate, 1.0 / (1.0 - rate)


def rows(tok_emb: Tensor, pos_emb: Tensor, ids: np.ndarray, pos: np.ndarray,
         rate: float, rng: np.random.Generator | None) -> Tensor:
    """The embedding dropout(tok_emb[ids] + pos_emb[pos]) of packed tokens,
    one row per (token id, position) pair, as one node. With `rng` and rate
    > 0 the keep mask is drawn at the output's shape, one entry per token
    and feature, after the gathers.

    Forward and backward evaluate the expressions of the two gathers, their
    sum and dropout as separate nodes would, in their order, so results
    are bit-identical to them: dropout multiplies by `keep * scale`, whose
    values are those of a float mask of 0 and 1 / (1 - rate). The node keeps
    only the index arrays and the boolean mask; backward scatters the
    gradient into each table with `np.add.at`, since an id may repeat."""
    out_data = tok_emb.data[ids] + pos_emb.data[pos]
    keep, scale = _keep_mask(out_data.shape, rate, rng)
    if keep is not None:
        out_data = out_data * (keep * scale)

    def backward(g):
        if keep is not None:
            g = g * (keep * scale)
        for table, index in ((tok_emb, ids), (pos_emb, pos)):
            if table.requires_grad:
                full = np.zeros_like(table.data)
                np.add.at(full, index, g)
                table._accumulate(full)

    return Tensor._result(out_data, (tok_emb, pos_emb), backward)


def residual_norm(x: Tensor, h: Tensor, w: Tensor, b: Tensor, gamma: Tensor,
                  beta: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """layer_norm(x + dropout(h @ w + b)) for (N, d) rows x and (N, e) rows
    h, an (e, d) weight and a (d,) bias, as one node: a post-norm
    sub-block's tail, from its output projection to its norm. The norm runs
    over the last axis, (t - mean) / sqrt(var + LN_EPS) * gamma + beta for
    the sum t. The dropout keep mask is drawn as in `rows`, after the
    projection.

    Forward and backward evaluate the expressions of the composed nodes
    (the projection, dropout, `+`, and the norm's `mean`, `-`, `**`, `*` and
    `+`) in their order, so results are bit-identical to them. The node
    keeps t - mean, the variance plus LN_EPS, its inverse square root and
    the boolean mask; the gamma gradient recomputes the normalized t from
    them, and the projection's gradients read h and w from the parents. No
    projection, dropout output or sum is kept."""
    # a new array, not the bias added in place into the product: in place,
    # the benchmark's `infer` loop left glibc's heap more fragmented, about
    # 3.5 MiB more peak RSS after 80 evaluate-and-predict cycles
    sub = h.data @ w.data + b.data
    keep, scale = _keep_mask(sub.shape, rate, rng)
    if keep is not None:
        sub = sub * (keep * scale)
    total = x.data + sub
    del sub                   # before the norm's temporaries, as the composed nodes freed it
    inv_n = 1.0 / total.shape[-1]
    centered = total - total.sum(axis=-1, keepdims=True) * inv_n
    shifted_var = (centered ** 2.0).sum(axis=-1, keepdims=True) * inv_n + LN_EPS
    inv_std = shifted_var ** -0.5
    # a named temporary: folded into one expression, whose temporaries numpy
    # reuses in place, it left the benchmark's `infer` loop about 2 MiB more
    # peak RSS (glibc's heap fragments another way)
    normed = centered * inv_std
    out_data = normed * gamma.data + beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate((g * (centered * inv_std)).sum(axis=0))
        d_normed = g * gamma.data
        d_inv_std = (d_normed * centered).sum(axis=-1, keepdims=True)
        d_sum_sq = d_inv_std * -0.5 * shifted_var ** -1.5 * inv_n
        d_centered = d_normed * inv_std + d_sum_sq * 2.0 * centered
        d_sum = -d_centered.sum(axis=-1, keepdims=True) * inv_n
        d_total = d_centered + d_sum
        if x.requires_grad:
            x._accumulate(d_total)
        if keep is not None:
            d_total = d_total * (keep * scale)
        if b.requires_grad:
            b._accumulate(d_total.sum(axis=0))
        if h.requires_grad:
            h._accumulate(d_total @ w.data.T)
        if w.requires_grad:
            w._accumulate(h.data.T @ d_total)

    return Tensor._result(out_data, (x, h, w, b, gamma, beta), backward)

def attention(q: Tensor, k: Tensor, v: Tensor, lengths: np.ndarray, n_heads: int,
              rate: float, rng: np.random.Generator | None) -> Tensor:
    """Multi-head self-attention over packed token rows, as one node: each
    token's context (N, d), heads side by side, before the output
    projection.

    q, k, v: (N, d) rows, one per real token, row b's `lengths[b]` tokens
    contiguous in row-major order (the layout `encoder.encode` builds); d
    splits into `n_heads` heads of d / n_heads. A token attends to the
    tokens of its own row only. The rows are sorted by length, longest
    first (stable), and cut into ATTENTION_GROUPS groups of near-equal row
    counts. Each group runs as one (rows, heads, Lg, Lg) block of scores,
    padded only to its own longest row Lg, with PAD keys masked out; a group
    whose rows all have length Lg (a batch of one, say) is gathered without
    padding or mask.
    With `rng` and `rate` > 0 the softmax weights get inverted dropout: one
    `_keep_mask` per group, in group order, drawn at its block's shape, so
    the weights are multiplied by `keep * scale` as in `rows`. The backward
    is written by hand. Each group keeps its softmax probabilities and, with
    dropout, its boolean keep mask; backward rebuilds `keep * scale` and the
    dropped-out weights from them, and gathers each group's head-layout q, k
    and v again from the parents. Inside `no_grad()` no block is kept.
    """
    lengths = np.asarray(lengths)
    n_tokens = int(lengths.sum())
    if q.data.ndim != 2 or len(q.data) != n_tokens or not k.shape == v.shape == q.shape:
        raise ValueError(f"q, k and v must be ({n_tokens}, d) rows, one per real token "
                         f"of `lengths`, not {q.shape}, {k.shape}, {v.shape}")
    d = q.data.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    keep_graph = _grad_enabled.get() and any(t.requires_grad for t in (q, k, v))
    blocks = []

    def to_heads(packed, group):          # (N, d) -> (rows, heads, Lg, dh)
        n_rows, width, tokens, place = group
        if place is None:
            block = packed[tokens]
        else:
            block = np.zeros((n_rows * width, d))
            block[place] = packed[tokens]
        return block.reshape(n_rows, width, n_heads, dh).transpose(0, 2, 1, 3)

    def to_tokens(packed, group, block):  # writes a (rows, heads, Lg, dh) block's tokens
        n_rows, width, tokens, place = group
        flat = block.transpose(0, 2, 1, 3).reshape(n_rows * width, d)
        packed[tokens] = flat if place is None else flat[place]

    out_data = np.empty((n_tokens, d))
    for members in np.array_split(order, max(min(ATTENTION_GROUPS, len(order)), 1)):
        if not len(members) or lengths[members[0]] == 0:
            break                         # the rows left are all PAD
        lens = lengths[members]
        width = int(lens[0])
        real = np.arange(width) < lens[:, None]
        tokens = (starts[members][:, None] + np.arange(width))[real]
        place = None if lens[-1] == width else np.flatnonzero(real)
        group = (len(members), width, tokens, place)
        qh, kh, vh = (to_heads(t.data, group) for t in (q, k, v))
        probs = qh @ kh.transpose(0, 1, 3, 2)
        probs *= scale
        if place is not None:
            probs += np.where(real, 0.0, MASK_NEG)[:, None, None, :]
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        keep, drop_scale = _keep_mask(probs.shape, rate, rng)
        weights = probs if keep is None else probs * (keep * drop_scale)
        to_tokens(out_data, group, weights @ vh)
        if keep_graph:
            blocks.append((group, probs, keep))

    def backward(g):
        grads = [np.empty((n_tokens, d)) for _ in range(3)]
        for group, probs, keep in blocks:
            drop = None if keep is None else keep * drop_scale
            weights = probs if drop is None else probs * drop
            d_ctx = to_heads(g, group)
            d_scores = d_ctx @ to_heads(v.data, group).transpose(0, 1, 3, 2)
            d_vh = weights.transpose(0, 1, 3, 2) @ d_ctx
            if drop is not None:
                d_scores *= drop
            d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
            d_scores *= probs
            d_scores *= scale
            d_qh = d_scores @ to_heads(k.data, group)
            d_kh = d_scores.transpose(0, 1, 3, 2) @ to_heads(q.data, group)
            for packed, block in zip(grads, (d_qh, d_kh, d_vh)):
                to_tokens(packed, group, block)
        for t, grad in zip((q, k, v), grads):
            if t.requires_grad:
                t._accumulate(grad)

    return Tensor._result(out_data, (q, k, v), backward)


def lstm(x: Tensor, lengths: np.ndarray, heads: list) -> Tensor:
    """Final hidden states (K, B, h) of K one-direction LSTMs that read the
    same input, as one node.

    x: (N, d) rows, one per real token, row b's `lengths[b]` tokens
    contiguous in row-major order (the layout `encoder.encode` builds, as
    for `attention`); heads: K sequences (wx, bx, wh, bh) with wx: (d, 4h)
    and wh: (h, 4h). Gate blocks are ordered input, forget, cell, output.
    Execution is packed, as in PyTorch's pack_padded_sequence: the rows are
    sorted by length, longest first, so the rows still running at step t are
    a prefix of that order, and one time loop steps only that prefix, for
    every head at once. A row's state is left as it was after its last real
    token, and a row without one keeps the zero state.

    Entries, one per real (row, step) pair, are time-major: step t's live
    rows are one contiguous run of entries. The input projection of every
    entry and head is one GEMM into an (N, K, 4h) buffer, computed before
    the loop, so a step adds only h @ wh. A step writes in place into
    (K, B, ...) state and gate arrays, whose live-prefix views are rebuilt
    only when the live row count changes. A sigmoid gate is evaluated as
    tanh(z / 2) / 2 + 1 / 2, so one tanh covers all four gate blocks.
    Inside `no_grad()` only the running state and the input projection
    exist. With a graph, each step copies its gate activations over its own
    entries of the input projection and its cell and tanh(cell) into
    time-major buffers, and the node keeps only these three. The
    hand-written BPTT overwrites each gate's activations with the gate's
    local derivative, uses the spent cell buffers for c_prev * f and
    d c / d h, and keeps one copy of f; walking the same prefixes
    backwards, it turns the gate buffer into the gate gradient in place.
    dx and the stacked wx gradient are one GEMM each, the latter over x's
    rows gathered again from x.
    """
    K = len(heads)
    h = heads[0][2].shape[0]
    lengths = np.asarray(lengths)
    B, n = len(lengths), int(lengths.sum())
    if x.data.ndim != 2 or len(x.data) != n:
        raise ValueError(f"x must hold one row per real token of `lengths` ({n}), "
                         f"not shape {x.shape}")
    steps = int(lengths.max(initial=0))
    order = np.argsort(-lengths, kind="stable")
    sizes = np.count_nonzero(lengths[:, None] > np.arange(steps), axis=0)   # live rows per step
    starts = np.concatenate(([0], np.cumsum(sizes)))    # step t: entries starts[t]:starts[t + 1]
    bounds = starts.tolist()
    step_of = np.repeat(np.arange(steps), sizes)
    rank = np.arange(n) - starts[step_of]              # place in its step's live prefix
    row_of = order[rank]
    token_of = np.cumsum(lengths)[row_of] - lengths[row_of] + step_of   # its row of x
    wx_cat = np.concatenate([wx.data for wx, _, _, _ in heads], axis=1)   # (d, K * 4h)
    wh_all = np.stack([wh.data for _, _, wh, _ in heads])                 # (K, h, 4h)
    xg = x.data[token_of] @ wx_cat                     # x's rows gathered time-major
    xg += np.concatenate([bx.data + bh.data for _, bx, _, bh in heads])
    xg = xg.reshape(n, K, 4 * h)
    xg_k = xg.transpose(1, 0, 2)                       # (K, n, 4h) view
    # sigmoid(z) = tanh(z / 2) / 2 + 1 / 2 on the i, f and o blocks, tanh(z)
    # on g; full-shape factors keep the in-place ops free of broadcasting
    scale = np.full((K, B, 4 * h), 0.5)
    scale[:, :, 2 * h:3 * h] = 1.0
    shift = 1.0 - scale

    parents = (x,) + tuple(p for head in heads for p in head)
    keep_graph = _grad_enabled.get() and any(p.requires_grad for p in parents)
    if keep_graph:
        cells = np.empty((n, K, h))                    # each entry's new cell
        tanh_cells = np.empty((n, K, h))
        cells_k, tanh_cells_k = cells.transpose(1, 0, 2), tanh_cells.transpose(1, 0, 2)
    # running state, longest row first; a row past the live prefix keeps the
    # state of its last real token
    hs = np.zeros((K, B, h))
    cs = np.zeros((K, B, h))
    gates = np.empty((K, B, 4 * h))
    tmp = np.empty((K, B, h))
    live = -1
    for t in range(steps):
        lo, hi = bounds[t], bounds[t + 1]
        if hi - lo != live:
            live = hi - lo
            h_v, c_v, g_v, t_v = hs[:, :live], cs[:, :live], gates[:, :live], tmp[:, :live]
            i_v, f_v, gg_v, o_v = (g_v[:, :, j * h:(j + 1) * h] for j in range(4))
            s_v, sh_v = scale[:, :live], shift[:, :live]
        np.matmul(h_v, wh_all, out=g_v)
        g_v += xg_k[:, lo:hi]
        g_v *= s_v
        np.tanh(g_v, out=g_v)
        g_v *= s_v
        g_v += sh_v
        c_v *= f_v
        np.multiply(i_v, gg_v, out=t_v)
        c_v += t_v
        np.tanh(c_v, out=t_v)
        np.multiply(o_v, t_v, out=h_v)
        if keep_graph:
            xg_k[:, lo:hi] = g_v                       # this step's inputs are spent
            cells_k[:, lo:hi] = c_v
            tanh_cells_k[:, lo:hi] = t_v
    out_data = np.empty_like(hs)
    out_data[:, order] = hs

    def backward(g):
        acts = xg.reshape(n, K, 4, h)
        i_a, f_a, g_a, o_a = (acts[:, :, j] for j in range(4))
        # an entry's previous state is that of the entry of the same rank one
        # step earlier, so step t's entries read the first entries of step
        # t - 1; entries of step 0 start from zero. Walking back in time, step
        # t overwrites its own cells with c_prev * f while step t - 1's cells,
        # which it reads, are still intact.
        h_prev = np.zeros((n, K, h))
        for t in range(steps - 1, 0, -1):
            lo, hi = bounds[t], bounds[t + 1]
            prev = slice(bounds[t - 1], bounds[t - 1] + hi - lo)
            np.multiply(o_a[prev], tanh_cells[prev], out=h_prev[lo:hi])
            np.multiply(cells[prev], f_a[lo:hi], out=cells[lo:hi])
        cells[:bounds[1] if steps else 0] = 0.0
        f_k = f_a.copy().transpose(1, 0, 2)            # the BPTT loop still reads f
        # over the spent activations, each gate slot becomes d gate
        # pre-activation / d c_new for i, f, g and / d h_new for o, evaluated
        # as (g * i) * (1 - i), (c_prev * f) * (1 - f), i * (1 - g * g) and
        # (tanh(c) * o) * (1 - o); `cells` then holds d c_new / d h_new and
        # `tanh_cells` is scratch. Step t then scales its own entries into
        # d gate pre-activation, so xg ends as the gate gradient.
        np.subtract(1.0, f_a, out=f_a)
        f_a *= cells
        dc_dh = cells                                  # o * (1 - tanh(c) * tanh(c))
        np.multiply(tanh_cells, tanh_cells, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o_a
        np.multiply(tanh_cells, o_a, out=tanh_cells)
        np.subtract(1.0, o_a, out=o_a)
        o_a *= tanh_cells
        gi = tanh_cells
        np.multiply(g_a, i_a, out=gi)
        g_a *= g_a
        np.subtract(1.0, g_a, out=g_a)
        g_a *= i_a
        np.subtract(1.0, i_a, out=i_a)
        i_a *= gi
        local_k = acts.transpose(1, 0, 2, 3)           # (K, n, 4, h) views
        dxg = xg.reshape(n, K * 4 * h)
        dxg_k = xg.transpose(1, 0, 2)
        dc_dh_k = dc_dh.transpose(1, 0, 2)
        wh_t = wh_all.transpose(0, 2, 1)

        dh = g[:, order]                               # a row's gradient waits for its last step
        dc = np.zeros((K, B, h))
        tmp = np.empty((K, B, h))
        live = -1
        for t in reversed(range(steps)):
            lo, hi = bounds[t], bounds[t + 1]
            if hi - lo != live:
                live = hi - lo
                dh_v, dc_v, t_v = dh[:, :live], dc[:, :live], tmp[:, :live]
                dc_v3 = dc_v[:, :, None]
            d_local = local_k[:, lo:hi]
            np.multiply(dh_v, dc_dh_k[:, lo:hi], out=t_v)
            dc_v += t_v                                # d c_new
            d_local[:, :, :3] *= dc_v3
            d_local[:, :, 3] *= dh_v
            dc_v *= f_k[:, lo:hi]                      # d c before the step
            np.matmul(dxg_k[:, lo:hi], wh_t, out=dh_v)  # d h before the step

        del f_k
        dwh = h_prev.transpose(1, 2, 0) @ dxg_k        # (K, h, 4h)
        del h_prev
        dwx = x.data[token_of].T @ dxg                 # (d, K * 4h)
        db = dxg.sum(axis=0)
        if x.requires_grad:
            dx = np.empty_like(x.data)
            dx[token_of] = dxg @ wx_cat.T              # a permutation: every row is written
            x._accumulate(dx)
        for k, (wx, bx, wh, bh) in enumerate(heads):
            cols = slice(4 * h * k, 4 * h * (k + 1))
            if wx.requires_grad:
                wx._accumulate(dwx[:, cols])
            if wh.requires_grad:
                wh._accumulate(dwh[k])
            for bias in (bx, bh):
                if bias.requires_grad:
                    bias._accumulate(db[cols])

    return Tensor._result(out_data, parents, backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (N, d) rows x, a (d, e) weight and an (e,) bias, as one
    node that keeps no separate (N, e) product. Forward and backward
    evaluate the expressions the composed `@` and `+` nodes would, in their
    order, so results are bit-identical to them. The bias is added into a
    new array, not in place into the product: on the benchmark's `infer`
    loop the in-place add left glibc's heap more fragmented, about 3.5 MiB
    more peak RSS after 80 evaluate-and-predict cycles."""
    out_data = x.data @ w.data + b.data

    def backward(g):
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return Tensor._result(out_data, (x, w, b), backward)


def logsumexp(logits: Tensor) -> Tensor:
    """log(sum(exp(logits))) over the last axis, keepdims. Max-shifted for
    stability; the shift is a locally-constant detached value."""
    m = logits.data.max(axis=-1, keepdims=True)
    return (logits - Tensor(m)).exp().sum(axis=-1, keepdims=True).log() + Tensor(m)


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean negative log-likelihood.

    logits: (B, C); targets: (B,) int class ids; weights: (B,) nonnegative,
    zero entries drop an example from the mean. All-zero weights give 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total == 0.0:
        return Tensor(0.0)
    log_probs = logits - logsumexp(logits)
    picked = log_probs[np.arange(len(targets)), np.asarray(targets)]
    return -(picked * Tensor(weights)).sum() * (1.0 / total)
