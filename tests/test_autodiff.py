"""Finite-difference checks for every op in the autodiff core."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang import autodiff
from offlang.autodiff import (
    ATTENTION_GROUPS, LN_EPS, MASK_NEG, Tensor, _sigmoid, affine, attention,
    cross_entropy, lstm, no_grad, residual_norm, rows,
)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check(build_loss, *arrays, tol=1e-7):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for t in tensors:
        num = numeric_grad(lambda: float(build_loss(*tensors).data), t.data)
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


RNG = np.random.default_rng(42)


def scatter_rows(x: Tensor, index: np.ndarray, n_rows: int) -> Tensor:
    """An (n_rows, ...) array of zeros with the rows of `x` at the distinct
    positions `index`; the backward gathers them back."""
    out_data = np.zeros((n_rows,) + x.shape[1:])
    out_data[index] = x.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[index])

    return Tensor._result(out_data, (x,), backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """The rows of `x` at the distinct positions `index`, with a backward
    that assigns instead of accumulating: the op `x[index]` replaced."""
    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[index] = g
            x._accumulate(full)

    return Tensor._result(x.data[index], (x,), backward)


def reference_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """The single-table embedding lookup that `rows` replaced: the rows of
    `table` at an integer id array, scattered back with `np.add.at`."""
    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            table._accumulate(full)

    return Tensor._result(table.data[ids], (table,), backward)


def reference_dropout(x: Tensor, rate, rng) -> Tensor:
    """Dropout as the product with a float mask of 0 and 1 / (1 - rate),
    drawn at x's shape; `rng=None` or rate 0 returns x and draws nothing."""
    if rng is None or rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    return x * Tensor(keep.astype(np.float64) / (1.0 - rate))


def reference_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer norm over the last axis from composed ops: the norm that ends
    `residual_norm`."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2.0).mean(axis=-1, keepdims=True)
    return centered * (var + LN_EPS) ** -0.5 * gamma + beta


def composed_rows(tok_emb, pos_emb, ids, pos, rate, rng) -> Tensor:
    """The nodes that `rows` fused: two single-table gathers, their sum
    and dropout."""
    return reference_dropout(reference_rows(tok_emb, ids) + reference_rows(pos_emb, pos),
                             rate, rng)


def composed_residual_norm(x, h, w, b, gamma, beta, rate, rng) -> Tensor:
    """The nodes that `residual_norm` fused: the projection, dropout, the
    residual sum and the layer norm."""
    return reference_layer_norm(x + reference_dropout(h @ w + b, rate, rng), gamma, beta)


def kept_tanh_gelu(x: Tensor) -> Tensor:
    """The GELU node that `Tensor.gelu` replaced: its backward reads a
    tanh(inner) kept from the forward instead of recomputing it."""
    c = np.sqrt(2.0 / np.pi)
    data = x.data
    t = np.tanh(c * (data + 0.044715 * (data * data * data)))

    def backward(g):
        if x.requires_grad:
            d_inner = c * (1.0 + 3 * 0.044715 * (data * data))
            x._accumulate(g * (0.5 * (1.0 + t) + 0.5 * data * (1.0 - t ** 2) * d_inner))

    return Tensor._result(0.5 * data * (1.0 + t), (x,), backward)


def length_groups(lengths) -> list[list[int]]:
    """The row groups `attention` runs, longest group first: the row
    indices sorted by length, longest first and stable, cut into
    ATTENTION_GROUPS runs whose sizes differ by at most one, the larger
    ones first; groups of PAD-only rows, and empty ones, are left out."""
    order = sorted(range(len(lengths)), key=lambda b: -lengths[b])
    n = min(ATTENTION_GROUPS, len(order))
    sizes = [len(order) // n + (i < len(order) % n) for i in range(n)]
    cuts = np.cumsum([0] + sizes)
    groups = [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    return [g for g in groups if g and lengths[g[0]] > 0]


def grouped_dropout(weights: Tensor, lengths, rate, rng) -> Tensor:
    """Dropout on padded (B, H, L, L) attention weights with the masks
    `attention` draws: one per group of `length_groups`, in their order, at
    (rows, H, Lg, Lg), Lg the group's longest row, placed at the group's
    rows and first Lg positions. Every other entry is kept unscaled."""
    if rng is None or rate <= 0.0:
        return weights
    scale = np.ones(weights.shape)
    for group in length_groups(lengths):
        width = lengths[group[0]]
        shape = (len(group), weights.shape[1], width, width)
        scale[group, :, :width, :width] = (rng.random(shape) >= rate) / (1.0 - rate)
    return weights * Tensor(scale)


def reference_attention(q, k, v, lengths, n_heads, rate, rng) -> Tensor:
    """The composed attention that `attention` replaced: the packed Q, K
    and V rows scattered into a (B, L) layout, L the longest row, scores
    over it with PAD keys masked, softmax, dropout, weights @ V and each
    token's context gathered back, all Tensor ops."""
    lengths = np.asarray(lengths)
    B, (_, d) = len(lengths), q.shape
    dh = d // n_heads
    width = max(int(lengths.max(initial=0)), 1)
    real = np.arange(width) < lengths[:, None]
    slots = np.flatnonzero(real)

    def heads(t):
        return scatter_rows(t, slots, B * width).reshape(
            B, width, n_heads, dh).transpose(0, 2, 1, 3)

    scores = heads(q) @ heads(k).transpose(0, 1, 3, 2) * (1.0 / np.sqrt(dh))
    scores = scores + Tensor((1.0 - real)[:, None, None, :] * MASK_NEG)
    weights = grouped_dropout(scores.softmax(), lengths, rate, rng)
    ctx = (weights @ heads(v)).transpose(0, 2, 1, 3).reshape(B * width, d)
    return gather_rows(ctx, slots)


class TestOps:
    def test_add_mul_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check(lambda x, y: ((x + y) * (x - y * 2.0)).sum(), a, b)

    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        check(lambda x, y: (x @ y).sum(), a, b)

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4, 5))
        b = RNG.normal(size=(2, 3, 5, 4))
        check(lambda x, y: ((x @ y) ** 2.0).sum(), a, b)

    def test_pow(self):
        a = RNG.random((3, 3)) + 0.5
        check(lambda x: (x ** -0.5).sum() + (x ** -1.0).sum(), a)

    def test_nonlinearities(self):
        a = RNG.normal(size=(4, 4))
        check(lambda x: (x.tanh() + x.sigmoid() + x.gelu()).sum(), a)

    def test_exp_log(self):
        a = RNG.random((3, 3)) + 0.5
        check(lambda x: (x.exp().log() * x.log()).sum(), a)

    def test_softmax(self):
        a = RNG.normal(size=(3, 5))
        w = RNG.normal(size=(3, 5))
        check(lambda x: (x.softmax() * Tensor(w)).sum(), a)

    def test_softmax_rows_sum_to_one(self):
        a = Tensor(RNG.normal(size=(6, 7)) * 10)
        np.testing.assert_allclose(a.softmax().data.sum(axis=-1), 1.0, atol=1e-12)

    def test_getitem_slices(self):
        a = RNG.normal(size=(4, 6, 8))
        check(lambda x: (x[:, 2, :] * x[:, 0, 1:3].sum()).sum(), a)

    def test_getitem_repeated_indices_accumulate(self):
        x = Tensor(np.array([5.0, 6.0, 7.0]), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        assert x.grad.tolist() == [2.0, 1.0, 0.0]
        a = RNG.normal(size=(3, 4))
        check(lambda x: (x[np.array([2, 0, 2]), np.array([1, 3, 1])] ** 2.0).sum(), a)

    def test_gelu_matches_float_power_form(self):
        x = RNG.normal(size=(4, 16, 32)) * 1.5
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * x ** 3))
        out = Tensor(x, requires_grad=True)
        y = out.gelu()
        y.sum().backward()
        np.testing.assert_allclose(y.data, 0.5 * x * (1.0 + t), rtol=1e-14, atol=0)
        d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner
        np.testing.assert_allclose(out.grad, grad, rtol=1e-14, atol=0)

    def test_sigmoid_matches_indexed_form(self):
        x = np.concatenate([RNG.normal(size=4000) * 20,
                            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 5e-324, -5e-324]])
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert np.array_equal(_sigmoid(x), want)

    def test_reshape_transpose(self):
        a = RNG.normal(size=(2, 3, 4))
        check(lambda x: (x.transpose(1, 0, 2).reshape(3, 8) ** 2.0).sum(), a)

    def test_mean_axes(self):
        a = RNG.normal(size=(3, 5))
        check(lambda x: (x.mean(axis=-1, keepdims=True) * x).sum(), a)

    def test_rows_gather_scatter(self):
        # repeated ids and positions; dropout off both ways
        tables = RNG.normal(size=(7, 4)), RNG.normal(size=(5, 4))
        ids, pos = np.array([0, 3, 3, 6, 0, 1]), np.array([0, 1, 2, 0, 1, 0])
        for rate, gen in ((0.5, None), (0.0, np.random.default_rng(0))):
            check(lambda t, p: (rows(t, p, ids, pos, rate, gen) ** 2.0).sum(), *tables)

    def test_scatter_and_gather_distinct_rows(self):
        a = RNG.normal(size=(4, 3))
        index = np.array([5, 0, 2, 6])
        w = RNG.normal(size=(7, 3))
        out = scatter_rows(Tensor(a), index, 7).data
        assert np.array_equal(out[index], a) and not np.delete(out, index, axis=0).any()
        check(lambda x: (scatter_rows(x, index, 7) * Tensor(w)).sum(), a)
        check(lambda x: (gather_rows(x, index) ** 2.0).sum(), w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.data())
    def test_getitem_on_distinct_rows_is_gather_rows(self, n, d, data):
        """`x[index]` on distinct row positions, in any order, gives the
        bits of the assigning `gather_rows`, forward and gradient."""
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), unique=True)),
                         dtype=np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        x, w = rng.normal(size=(n, d)), rng.normal(size=(len(index), d))
        results = []
        for op in (lambda t: t[index], lambda t: gather_rows(t, index)):
            t = Tensor(x.copy(), requires_grad=True)
            out = op(t)
            (out * Tensor(w)).sum().backward()
            results.append((out.data.tobytes(), t.grad.tobytes()))
        assert results[0] == results[1]

    def test_cross_entropy_matches_manual(self):
        logits = RNG.normal(size=(5, 3))
        targets = np.array([0, 2, 1, 1, 0])
        weights = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
        loss = cross_entropy(Tensor(logits), targets, weights)
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        manual = -np.log(probs[np.arange(5), targets])
        expected = (manual * weights).sum() / weights.sum()
        assert abs(float(loss.data) - expected) < 1e-12

    def test_cross_entropy_grad(self):
        logits = RNG.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 1])
        weights = np.ones(4)
        check(lambda x: cross_entropy(x, targets, weights), logits)

    def test_cross_entropy_all_masked_is_zero(self):
        loss = cross_entropy(
            Tensor(RNG.normal(size=(2, 3)), requires_grad=True),
            np.array([0, 1]), np.zeros(2),
        )
        assert float(loss.data) == 0.0


class TestMachinery:
    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert float(x.grad) == 2 * 2.0 + 3.0

    def test_diamond_graph(self):
        x = Tensor(np.array(1.5), requires_grad=True)
        a = x * 2.0
        b = a + x
        c = a * b
        c.backward()
        # c = 2x * 3x = 6x^2, dc/dx = 12x
        assert abs(float(x.grad) - 12 * 1.5) < 1e-12

    def test_dropout_eval_mode_is_identity(self):
        """With `rng=None` or rate 0 the fused nodes run no dropout and draw
        nothing."""
        tok, pos_table = RNG.normal(size=(7, 5)), RNG.normal(size=(4, 5))
        ids, pos = np.array([0, 3, 3, 6, 1]), np.array([0, 1, 2, 0, 3])
        x, h, w, b, gamma, beta = (Tensor(RNG.normal(size=shape)) for shape in
                                   ((5, 5), (5, 3), (3, 5), 5, 5, 5))
        want_tail = reference_layer_norm(x + (h @ w + b), gamma, beta).data
        for rate, gen in ((0.5, None), (0.0, np.random.default_rng(0))):
            state = gen.bit_generator.state if gen else None
            out = rows(Tensor(tok), Tensor(pos_table), ids, pos, rate, gen)
            assert np.array_equal(out.data, tok[ids] + pos_table[pos])
            out = residual_norm(x, h, w, b, gamma, beta, rate, gen)
            assert np.array_equal(out.data, want_tail)
            assert state is None or gen.bit_generator.state == state

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        index = np.zeros(200, dtype=np.int64)
        out = rows(Tensor(np.ones((1, 200))), Tensor(np.zeros((1, 200))), index, index, 0.3, rng)
        assert out.shape == (200, 200) and abs(out.data.mean() - 1.0) < 0.01


class TestGraphLifetime:
    def test_second_backward_through_a_graph_raises(self):
        # at two ops, re-running every closure onto stale interior
        # gradients once gave 4x the true gradient
        x = Tensor(RNG.normal(size=4), requires_grad=True)
        loss = (x * 3.0).exp().sum()
        loss.backward()
        once = x.grad.copy()
        np.testing.assert_allclose(once, 3.0 * np.exp(3.0 * x.data), rtol=1e-15)
        with pytest.raises(ValueError, match="already used by an earlier backward"):
            loss.backward()
        assert np.array_equal(x.grad, once)

    def test_new_graph_over_a_consumed_node_raises_before_any_closure(self):
        x = Tensor(RNG.normal(size=4), requires_grad=True)
        w = Tensor(RNG.normal(size=4), requires_grad=True)
        y = x.exp()
        y.sum().backward()
        with pytest.raises(ValueError, match="run the forward again"):
            (y * w).sum().backward()
        assert w.grad is None

    def test_interior_nodes_drop_grad_closure_and_parents(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        y = x * 3.0
        z = y.tanh()
        loss = z.sum()
        loss.backward()
        for node in (y, z, loss):
            assert node.grad is None and node._parents == ()
            assert node._backward is autodiff._consumed
        assert x.grad is not None and x._backward is None   # a leaf keeps its gradient

    def test_saved_activations_die_with_their_last_closure(self):
        # Tensor keeps no weakref slot, so the refs go to the arrays that
        # only the interior nodes and their closures hold
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        y = x * 3.0
        z = y.exp()
        activations = [weakref.ref(y.data), weakref.ref(z.data)]
        loss = z.sum()
        del y, z
        assert all(ref() is not None for ref in activations)
        loss.backward()
        assert all(ref() is None for ref in activations)
        assert loss._parents == ()

    def test_fresh_forward_backward_repeats_exactly(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        grads = []
        for _ in range(2):
            x.grad = None
            (x * 3.0).exp().sum().backward()
            grads.append(x.grad)
        assert np.array_equal(*grads)


@st.composite
def packed_rows(draw):
    """Ragged packed rows: (N, d) for N the total of 1-6 row lengths of
    1-9 tokens, plus a seed."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    return sum(lengths), draw(st.integers(1, 7)), draw(st.integers(0, 2**32 - 1))


def grads_and_output(build, arrays, weights):
    """The output data of `build` on leaf Tensors of `arrays`, and each
    leaf's gradient of sum(output * weights)."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    data = out.data.copy()
    (out * Tensor(weights)).sum().backward()
    return data, [t.grad for t in tensors]


class TestAffine:
    @settings(max_examples=60, deadline=None)
    @given(packed_rows(), st.integers(1, 7))
    def test_bit_identical_to_composed_ops(self, case, width):
        n, d, seed = case
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, d)), rng.normal(size=(d, width)), rng.normal(size=width)]
        weights = rng.normal(size=(n, width))
        out, grads = grads_and_output(affine, arrays, weights)
        ref_out, ref_grads = grads_and_output(lambda x, w, b: x @ w + b, arrays, weights)
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    @settings(max_examples=30, deadline=None)
    @given(packed_rows())
    def test_shared_input_accumulates_in_composed_order(self, case):
        # q, k and v projections of one x, as the encoder runs them
        n, d, seed = case
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, d))] + [
            a for _ in range(3) for a in (rng.normal(size=(d, d)), rng.normal(size=d))]
        weights = rng.normal(size=(n, d))

        def three(op):
            return lambda x, *wb: (op(x, *wb[0:2]) * op(x, *wb[2:4])).tanh() + op(x, *wb[4:6])

        out, grads = grads_and_output(three(affine), arrays, weights)
        ref_out, ref_grads = grads_and_output(three(lambda x, w, b: x @ w + b), arrays, weights)
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_finite_differences(self):
        w = RNG.normal(size=(7, 3))
        check(lambda x, a, b: (affine(x, a, b) * Tensor(w)).sum(),
              RNG.normal(size=(7, 5)), RNG.normal(size=(5, 3)), RNG.normal(size=3))

    def test_no_graph_under_no_grad(self):
        x, w, b = (Tensor(a, requires_grad=True) for a in
                   (RNG.normal(size=(4, 3)), RNG.normal(size=(3, 2)), RNG.normal(size=2)))
        with no_grad():
            out = affine(x, w, b)
        assert out._backward is None and not out.requires_grad
        assert np.array_equal(out.data, (x @ w + b).data)


def closure_arrays(node: Tensor) -> list[np.ndarray]:
    """The arrays that `node`'s backward closure keeps, in the tuples and
    lists it keeps too."""
    arrays, stack = [], [cell.cell_contents for cell in node._backward.__closure__]
    while stack:
        value = stack.pop(0)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (tuple, list)):
            stack[:0] = value
    return arrays


FUSED = {"rows": (rows, composed_rows),
         "residual_norm": (residual_norm, composed_residual_norm)}


def fused_call(name, n, d, seed):
    """Random inputs for the fused node `name` on n packed tokens of width
    d: the leaf arrays, and a function that builds a call of `op`, the node
    or its composition, on their Tensors with a rate and a generator. Token
    ids repeat, and h is one column wider than x."""
    rng = np.random.default_rng(seed)
    if name == "rows":
        arrays = [rng.normal(size=(5, d)), rng.normal(size=(9, d))]
        ids, pos = rng.integers(0, 5, n), rng.integers(0, 9, n)
        return arrays, lambda op, rate, gen: lambda t, p: op(t, p, ids, pos, rate, gen)
    arrays = [rng.normal(size=(n, d)) * 3.0, rng.normal(size=(n, d + 1)),
              rng.normal(size=(d + 1, d))] + [rng.normal(size=d) for _ in range(3)]
    return arrays, lambda op, rate, gen: lambda *leaves: op(*leaves, rate, gen)


def fused_results(name, case, rate, seeded):
    """For the node `name` and then its composition: the output, every
    leaf's gradient of sum(output * weights) and the generator's next draw
    (None without a generator)."""
    n, d, seed = case
    arrays, call = fused_call(name, n, d, seed)
    weights = np.random.default_rng(seed + 1).normal(size=(n, d))
    results = []
    for op in FUSED[name]:
        gen = np.random.default_rng(seed) if seeded else None
        out, grads = grads_and_output(call(op, rate, gen), arrays, weights)
        results.append((out, grads, gen.random() if gen else None))
    return results


def assert_bit_identical(results):
    (out, grads, after), (ref, ref_grads, ref_after) = results
    assert np.array_equal(out, ref)
    for g, want in zip(grads, ref_grads):
        assert np.array_equal(g, want)
    assert after == ref_after


class TestDropoutNode:
    """The dropout inside `rows` and `residual_norm`: a boolean keep mask
    drawn after the gathers or the projection, at the output's shape."""

    @settings(max_examples=60, deadline=None)
    @given(packed_rows(), st.sampled_from([0.0, 0.1, 0.5, 0.9]), st.sampled_from(sorted(FUSED)))
    def test_bit_identical_to_float_mask_product(self, case, rate, name):
        """The forward, every gradient and the generator's next draw are
        those of the composed nodes, whose dropout multiplies by a float
        mask: one draw per element where they draw it, none at rate 0."""
        assert_bit_identical(fused_results(name, case, rate, seeded=True))

    def test_finite_differences(self):
        w = RNG.normal(size=(6, 4))
        ids, pos = np.array([0, 3, 3, 6, 0, 1]), np.array([0, 1, 2, 0, 1, 0])
        check(lambda t, p: (rows(t, p, ids, pos, 0.4, np.random.default_rng(3))
                            * Tensor(w)).sum(), RNG.normal(size=(7, 4)), RNG.normal(size=(3, 4)))
        check(lambda *leaves: (residual_norm(*leaves, 0.4, np.random.default_rng(3))
                               * Tensor(w)).sum(),
              RNG.normal(size=(6, 4)) * 2.0, RNG.normal(size=(6, 5)), RNG.normal(size=(5, 4)),
              *(RNG.normal(size=4) for _ in range(3)))

    def test_one_node_that_keeps_no_float_mask(self):
        """Each fused node is one node whose closure keeps a boolean mask, no
        (N, d) float array but `residual_norm`'s centered sum, and no Tensor
        but its parents."""
        for name, full in (("rows", ["bool"]), ("residual_norm", ["bool", "float64"])):
            arrays, call = fused_call(name, 6, 4, seed=3)
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = call(FUSED[name][0], 0.4, np.random.default_rng(3))(*leaves)
            assert out._parents == tuple(leaves)
            kept = [a for a in closure_arrays(out) if a.shape == out.shape]
            assert sorted(a.dtype.name for a in kept) == full, name
            saved = [cell.cell_contents for cell in out._backward.__closure__]
            assert all(v in leaves for v in saved if isinstance(v, Tensor)), name


def reference_lstm(x: Tensor, mask: np.ndarray, wx: Tensor, bx: Tensor,
                   wh: Tensor, bh: Tensor) -> Tensor:
    """Per-step reference for `lstm` on padded input x (B, T, d): about 20
    Tensor ops per time step."""
    B, T, _ = x.shape
    h = wh.shape[0]
    h_t = Tensor(np.zeros((B, h)))
    c_t = Tensor(np.zeros((B, h)))
    mask = np.asarray(mask, dtype=np.float64)
    for t in range(T):
        if mask[:, t].sum() == 0.0:
            break  # everything past here is padding
        x_t = x[:, t, :]
        gates = x_t @ wx + bx + h_t @ wh + bh
        i_g = gates[:, 0 * h:1 * h].sigmoid()
        f_g = gates[:, 1 * h:2 * h].sigmoid()
        g_g = gates[:, 2 * h:3 * h].tanh()
        o_g = gates[:, 3 * h:4 * h].sigmoid()
        c_new = f_g * c_t + i_g * g_g
        h_new = o_g * c_new.tanh()
        m = Tensor(mask[:, t:t + 1])
        # padded steps carry the previous state forward, so the final
        # state is the state at each sequence's last real token
        c_t = m * c_new + (1.0 - m) * c_t
        h_t = m * h_new + (1.0 - m) * h_t
    return h_t


def allocating_lstm(x: Tensor, lengths: np.ndarray, heads: list) -> Tensor:
    """The slow path of `lstm`, which its in-place backward must match bit
    for bit: the same forward, then a backward that builds new (N, K, h)
    c_prev, h_prev and d c / d h arrays and a new (N, K, 4h) array of local
    derivatives, leaving the saved gate activations as they are."""
    K = len(heads)
    h = heads[0][2].shape[0]
    lengths = np.asarray(lengths)
    B, n = len(lengths), int(lengths.sum())
    steps = int(lengths.max(initial=0))
    order = np.argsort(-lengths, kind="stable")
    sizes = np.count_nonzero(lengths[:, None] > np.arange(steps), axis=0)   # live rows per step
    starts = np.concatenate(([0], np.cumsum(sizes)))    # step t: entries starts[t]:starts[t + 1]
    bounds = starts.tolist()
    step_of = np.repeat(np.arange(steps), sizes)
    rank = np.arange(n) - starts[step_of]              # place in its step's live prefix
    row_of = order[rank]
    token_of = np.cumsum(lengths)[row_of] - lengths[row_of] + step_of   # its row of x
    x_packed = x.data[token_of]                        # (n, d), time-major
    wx_cat = np.concatenate([wx.data for wx, _, _, _ in heads], axis=1)   # (d, K * 4h)
    wh_all = np.stack([wh.data for _, _, wh, _ in heads])                 # (K, h, 4h)
    xg = x_packed @ wx_cat
    xg += np.concatenate([bx.data + bh.data for _, bx, _, bh in heads])
    xg = xg.reshape(n, K, 4 * h)
    xg_k = xg.transpose(1, 0, 2)                       # (K, n, 4h) view
    # sigmoid(z) = tanh(z / 2) / 2 + 1 / 2 on the i, f and o blocks, tanh(z)
    # on g; full-shape factors keep the in-place ops free of broadcasting
    scale = np.full((K, B, 4 * h), 0.5)
    scale[:, :, 2 * h:3 * h] = 1.0
    shift = 1.0 - scale

    parents = (x,) + tuple(p for head in heads for p in head)
    keep_graph = autodiff._grad_enabled.get() and any(p.requires_grad for p in parents)
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
        # step earlier; entries of step 0 start from zero
        first = bounds[1] if steps else 0
        prev = starts[step_of[first:] - 1] + rank[first:]
        c_prev = np.zeros((n, K, h))
        c_prev[first:] = cells[prev]
        h_prev = np.zeros((n, K, h))
        h_prev[first:] = o_a[prev] * tanh_cells[prev]
        # d gate pre-activation / d c_new for i, f, g and / d h_new for o,
        # for every entry at once; step t then scales its own entries into
        # d gate pre-activation, so the buffer ends as the gate gradient
        local = np.empty_like(acts)
        local[:, :, 0] = g_a * i_a * (1.0 - i_a)
        local[:, :, 1] = c_prev * f_a * (1.0 - f_a)
        local[:, :, 2] = i_a * (1.0 - g_a * g_a)
        local[:, :, 3] = tanh_cells * o_a * (1.0 - o_a)
        dc_dh = o_a * (1.0 - tanh_cells * tanh_cells)  # d c_new / d h_new
        local_k = local.transpose(1, 0, 2, 3)          # (K, n, 4, h) views
        dxg = local.reshape(n, K * 4 * h)
        dxg_k = local.reshape(n, K, 4 * h).transpose(1, 0, 2)
        dc_dh_k, f_k = dc_dh.transpose(1, 0, 2), f_a.transpose(1, 0, 2)
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

        if x.requires_grad:
            dx = np.empty_like(x.data)
            dx[token_of] = dxg @ wx_cat.T              # a permutation: every row is written
            x._accumulate(dx)
        dwx = x_packed.T @ dxg                         # (d, K * 4h)
        dwh = h_prev.transpose(1, 2, 0) @ dxg_k        # (K, h, 4h)
        db = dxg.sum(axis=0)
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


D, H, T = 8, 5, 7
# ragged rows: CLS only, full length, two in between; the last column is
# PAD in every row, so the recurrence stops before it
MASK = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
])
LENGTHS = MASK.sum(axis=1)


def random_inputs(seed, mask=MASK):
    """Packed x, the real positions of a padded (B, T, D) draw, then one
    head's weights."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=np.shape(mask) + (D,))[np.asarray(mask, dtype=bool)]
    return [x, rng.normal(size=(D, 4 * H)) * 0.5,
            rng.normal(size=4 * H) * 0.5, rng.normal(size=(H, 4 * H)) * 0.5,
            rng.normal(size=4 * H) * 0.5]


def padded(x: Tensor, mask: np.ndarray) -> Tensor:
    """Packed rows x (N, d) laid out as (B, T, d), zero at PAD."""
    B, width = np.shape(mask)
    return scatter_rows(x, np.flatnonzero(mask), B * width).reshape(B, width, x.shape[1])


def reference_packed(x, mask, wx, bx, wh, bh):
    """`reference_lstm` on packed input: its gradients land on the real rows."""
    return reference_lstm(padded(x, mask), mask, wx, bx, wh, bh)


def lengths_of(mask):
    """The row lengths `lstm` takes for a prefix mask."""
    return np.count_nonzero(mask, axis=1)


def lstm_one(x, mask, wx, bx, wh, bh):
    """`lstm` with a single head, shaped like `reference_lstm`."""
    return lstm(x, lengths_of(mask), [(wx, bx, wh, bh)])[0]


def grads_of(op, arrays, mask, weights):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(tensors[0], mask, *tensors[1:])
    (out * Tensor(weights)).sum().backward()
    return out.data, [t.grad for t in tensors]


def multi_inputs(seed, k=3, mask=MASK):
    """Packed x plus k distinct (wx, bx, wh, bh) sets, flat."""
    heads = [random_inputs(seed + 10 * i)[1:] for i in range(k)]
    return [random_inputs(seed, mask)[0]] + [a for head in heads for a in head]


def multi_grads(arrays, mask, weights, reference, op=lstm):
    """The output and gradients of `op`, or of one `reference_packed` per
    head when `reference` is set."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    x, ws = tensors[0], tensors[1:]
    if reference:
        outs = [reference_packed(x, mask, *ws[i:i + 4]) for i in range(0, len(ws), 4)]
        loss = sum(((o * Tensor(w)).sum() for o, w in zip(outs, weights)), Tensor(0.0))
        out = np.stack([o.data for o in outs])
    else:
        heads = [ws[i:i + 4] for i in range(0, len(ws), 4)]
        h_all = op(x, lengths_of(mask), heads)
        loss = (h_all * Tensor(weights)).sum()
        out = h_all.data
    loss.backward()
    return out, [t.grad for t in tensors]


class TestLstm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_matches_per_step_reference(self, seed):
        arrays = random_inputs(seed)
        weights = np.random.default_rng(seed + 100).normal(size=(len(MASK), H))
        out, grads = grads_of(lstm_one, arrays, MASK, weights)
        ref_out, ref_grads = grads_of(reference_packed, arrays, MASK, weights)
        # packed steps run fewer rows, so a one-row step may take numpy's
        # matrix-vector path; |h| < 1, so the tolerance is absolute
        assert np.abs(out - ref_out).max() <= 1e-15
        for name, g, ref in zip(("x", "wx", "bx", "wh", "bh"), grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_single_row_matches_reference(self):
        # the reference's (1, d) @ (d, 4h) takes numpy's matrix-vector path
        # and the fused (1, steps, d) @ (d, 4h) does not, so the last bits of
        # the state may differ; |h| < 1, so the tolerance is absolute
        mask = np.array([[1, 1, 1, 0, 0, 0, 0]])
        arrays = random_inputs(3, mask)
        weights = np.ones((1, H))
        out, grads = grads_of(lstm_one, arrays, mask, weights)
        ref_out, ref_grads = grads_of(reference_packed, arrays, mask, weights)
        assert np.abs(out - ref_out).max() <= 1e-15
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_finite_differences(self):
        arrays = random_inputs(4)
        weights = np.random.default_rng(5).normal(size=(len(MASK), H))
        check(lambda x, wx, bx, wh, bh:
              (lstm_one(x, MASK, wx, bx, wh, bh) * Tensor(weights)).sum(), *arrays)

    def test_all_pad_first_column_gives_zero_state(self):
        mask = np.zeros((len(MASK), T))
        tensors = [Tensor(a, requires_grad=True) for a in random_inputs(6, mask)]
        out = lstm_one(tensors[0], mask, *tensors[1:])
        assert out.shape == (len(MASK), H) and not out.data.any()
        out.sum().backward()
        assert all(not t.grad.any() for t in tensors)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_heads_match_three_references(self, seed):
        arrays = multi_inputs(seed)
        weights = np.random.default_rng(seed + 200).normal(size=(3, len(MASK), H))
        out, grads = multi_grads(arrays, MASK, weights, reference=False)
        ref_out, ref_grads = multi_grads(arrays, MASK, weights, reference=True)
        assert out.shape == (3, len(MASK), H)
        assert np.abs(out - ref_out).max() <= 1e-15
        assert len(grads) == 13
        for i, (g, ref) in enumerate(zip(grads, ref_grads)):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), i

    def test_three_heads_finite_differences(self):
        arrays = multi_inputs(7)
        weights = np.random.default_rng(8).normal(size=(3, len(MASK), H))
        check(lambda x, *ws: (lstm(x, LENGTHS, [ws[0:4], ws[4:8], ws[8:12]])
                              * Tensor(weights)).sum(), *arrays)

    def test_three_heads_all_pad_first_column_gives_zero_state(self):
        mask = np.zeros((len(MASK), T))
        tensors = [Tensor(a, requires_grad=True) for a in multi_inputs(9, mask=mask)]
        ws = tensors[1:]
        out = lstm(tensors[0], lengths_of(mask), [ws[0:4], ws[4:8], ws[8:12]])
        assert out.shape == (3, len(MASK), H) and not out.data.any()
        out.sum().backward()
        assert all(not t.grad.any() for t in tensors)


def ragged_mask(lengths, width):
    return (np.arange(width) < np.asarray(lengths)[:, None]).astype(np.float64)


@st.composite
def lstm_cases(draw):
    """Random ragged prefix masks, B 1-9, T 1-12, K 1-3; a third of the
    rows are CLS-only or full-length, and some masks are all PAD."""
    batch = draw(st.integers(1, 9))
    width = draw(st.integers(1, 12))
    row = st.one_of(st.integers(0, width), st.sampled_from([1, width]))
    lengths = draw(st.one_of(st.lists(row, min_size=batch, max_size=batch),
                             st.just([0] * batch)))
    return ragged_mask(lengths, width), draw(st.integers(1, 3)), draw(st.integers(0, 2**32))


def no_grad_lstm(arrays, mask):
    """`lstm`'s output under `no_grad()` on `multi_inputs`-style flat arrays."""
    ws = [Tensor(a) for a in arrays[1:]]
    with no_grad():
        return lstm(Tensor(arrays[0]), lengths_of(mask),
                    [ws[i:i + 4] for i in range(0, len(ws), 4)]).data


def check_against_reference(mask, k, seed):
    """`lstm` with k random heads on `mask`: the output under `no_grad()` is
    bit-identical to the graph's, within 1e-15 absolute of `reference_lstm`,
    and every gradient within 1e-12 relative of the reference's; the output
    and every gradient are bit-identical to `allocating_lstm`'s."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(int(mask.sum()), D))] + [
        a for _ in range(k) for a in (rng.normal(size=(D, 4 * H)) * 0.5,
                                      rng.normal(size=4 * H) * 0.5,
                                      rng.normal(size=(H, 4 * H)) * 0.5,
                                      rng.normal(size=4 * H) * 0.5)]
    weights = rng.normal(size=(k, len(mask), H))
    out, grads = multi_grads(arrays, mask, weights, reference=False)
    ref_out, ref_grads = multi_grads(arrays, mask, weights, reference=True)
    slow_out, slow_grads = multi_grads(arrays, mask, weights, reference=False,
                                       op=allocating_lstm)
    assert np.array_equal(no_grad_lstm(arrays, mask), out)
    assert np.array_equal(slow_out, out)
    for i, (g, slow) in enumerate(zip(grads, slow_grads)):
        assert np.array_equal(g, slow), i
    assert np.abs(out - ref_out).max() <= 1e-15
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        # an all-PAD mask builds no graph and packs x to zero rows
        ref = np.zeros_like(g) if ref is None else ref
        assert np.abs(g - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0), i


class TestPacked:
    @settings(max_examples=60, deadline=None)
    @given(lstm_cases())
    def test_lstm_matches_reference_on_ragged_masks(self, case):
        check_against_reference(*case)

    @pytest.mark.parametrize("shape", [(int(MASK.sum()) - 1, D), (int(MASK.sum()) + 1, D),
                                       (len(MASK), T, D), (int(MASK.sum()),)])
    def test_x_must_hold_one_row_per_real_token(self, shape):
        with pytest.raises(ValueError, match="one row per real token"):
            lstm(Tensor(np.zeros(shape)), LENGTHS, [[Tensor(a) for a in random_inputs(0)[1:]]])


class TestTimeLoop:
    """The in-place time loop against the per-step reference, with and
    without a graph, on one row of every length and on wide ragged batches."""

    def test_one_row_at_every_length_to_64(self):
        for length in range(1, 65):
            check_against_reference(ragged_mask([length], 64), k=2, seed=length)

    @pytest.mark.parametrize("lengths", [
        [64, 1, 33, 0, 17, 64, 2, 50, 63, 5],
        [3, 64, 64, 64, 1, 1, 40],
    ])
    def test_wide_ragged_batches(self, lengths):
        check_against_reference(ragged_mask(lengths, 64), k=3, seed=len(lengths))

    def test_finite_differences_on_a_ragged_mask(self):
        # the live prefix shrinks at four different steps, one row is all PAD
        mask = ragged_mask([2, 0, 5, 1, 5, 3], 6)
        arrays = multi_inputs(11, k=2, mask=mask)
        weights = np.random.default_rng(12).normal(size=(2, len(mask), H))
        check(lambda x, *ws: (lstm(x, lengths_of(mask), [ws[0:4], ws[4:8]])
                              * Tensor(weights)).sum(),
              *arrays)

    def test_no_grad_keeps_no_per_entry_state(self, traced_peak):
        """Under no_grad the only per-entry array is the (N, K, 4h) input
        projection: no activations, states or cells are kept per entry."""
        batch, width, d, h, k = 64, 64, 64, 64, 3
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(batch * width, d)))
        heads = [[Tensor(rng.normal(size=shape) * 0.1)
                  for shape in ((d, 4 * h), (4 * h,), (h, 4 * h), (4 * h,))]
                 for _ in range(k)]
        lengths = np.full(batch, width)
        projection = batch * width * k * 4 * h * 8
        with no_grad():
            out, peak = traced_peak(lambda: lstm(x, lengths, heads))
        assert out.shape == (k, batch, h)
        assert peak < 1.5 * projection, peak / projection

    def test_backward_works_in_place(self, traced_peak):
        """On a ragged batch of 32 rows up to 64 steps, backward's traced peak
        above what the graph holds stays within 1.5x the (N, K, 4h) gate
        buffer that the forward saves: the gate gradients overwrite it, and
        no (N, K, 4h) local derivatives are allocated (the allocating
        backward peaks at about 2.1x)."""
        batch, d, h, k = 32, 32, 32, 3
        rng = np.random.default_rng(0)
        lengths = np.concatenate(([64, 1], rng.integers(1, 65, size=batch - 2)))
        x = Tensor(rng.normal(size=(int(lengths.sum()), d)), requires_grad=True)
        heads = [[Tensor(rng.normal(size=shape) * 0.1, requires_grad=True)
                  for shape in ((d, 4 * h), (4 * h,), (h, 4 * h), (4 * h,))]
                 for _ in range(k)]
        loss = (lstm(x, lengths, heads) * Tensor(rng.normal(size=(k, batch, h)))).sum()
        _, peak = traced_peak(loss.backward)
        saved = x.data.shape[0] * k * 4 * h * 8
        assert x.grad.shape == x.shape
        assert peak <= 1.5 * saved, peak / saved


@st.composite
def attention_cases(draw):
    """Row lengths for `attention`, rows up to 9 tokens: a batch of one,
    rows all of one length, CLS-only rows, or more rows than groups with
    any lengths, PAD-only rows included; a head count and a seed."""
    width = draw(st.integers(1, 9))
    lengths = draw(st.one_of(
        st.lists(st.integers(0, width), min_size=1, max_size=1),
        st.integers(1, 3 * ATTENTION_GROUPS).map(lambda b: [width] * b),
        st.integers(1, 3 * ATTENTION_GROUPS).map(lambda b: [1] * b),
        st.lists(st.integers(0, width), min_size=ATTENTION_GROUPS + 1,
                 max_size=3 * ATTENTION_GROUPS),
    ))
    return np.array(lengths), draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 2**32))


def attention_run(op, arrays, lengths, n_heads, rate, seed):
    """op's output, the gradients of q, k and v under a random weighting,
    and the generator's next draw (None without dropout)."""
    q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
    rng = np.random.default_rng(seed) if rate else None
    out = op(q, k, v, lengths, n_heads, rate, rng)
    (out * Tensor(np.random.default_rng(seed + 1).normal(size=out.shape))).sum().backward()
    return out.data, [t.grad for t in (q, k, v)], rng.random() if rng else None


RAGGED = np.array([3, 0, 1, 4, 4, 2])           # more rows than groups, one all PAD


class TestAttention:
    @settings(max_examples=80, deadline=None)
    @given(attention_cases(), st.sampled_from([0.0, 0.3]))
    def test_matches_composed_reference(self, case, rate):
        lengths, n_heads, seed = case
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(int(lengths.sum()), 6)) for _ in range(3)]
        out, grads, after = attention_run(attention, arrays, lengths, n_heads, rate, seed)
        ref, ref_grads, ref_after = attention_run(reference_attention, arrays, lengths,
                                                  n_heads, rate, seed)
        assert np.abs(out - ref).max(initial=0.0) <= 1e-13
        assert after == ref_after                 # the same draws, in the same order
        for grad, ref_grad in zip(grads, ref_grads):
            bound = 1e-12 * np.abs(ref_grad).max(initial=0.0)
            assert np.abs(grad - ref_grad).max(initial=0.0) <= bound

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("lengths", [RAGGED, np.array([5]), np.array([2, 2, 2])])
    def test_finite_differences(self, lengths, rate):
        q, k, v = (RNG.normal(size=(int(lengths.sum()), 6)) for _ in range(3))
        w = RNG.normal(size=q.shape)
        check(lambda q, k, v: (attention(q, k, v, lengths, 2, rate,
                                         np.random.default_rng(3)) * Tensor(w)).sum(),
              q, k, v)

    def test_rows_attend_within_themselves(self):
        q, k, v = (RNG.normal(size=(int(RAGGED.sum()), 6)) for _ in range(3))
        out = attention(Tensor(q), Tensor(k), Tensor(v), RAGGED, 2, 0.0, None).data
        starts = np.cumsum(RAGGED) - RAGGED
        for start, n in zip(starts, RAGGED):
            rows_ = slice(start, start + n)
            alone = attention(Tensor(q[rows_]), Tensor(k[rows_]), Tensor(v[rows_]),
                              np.array([n]), 2, 0.0, None).data
            assert np.abs(out[rows_] - alone).max(initial=0.0) <= 1e-15

    def test_no_graph_under_no_grad(self):
        q, k, v = (Tensor(RNG.normal(size=(14, 6)), requires_grad=True) for _ in range(3))
        with no_grad():
            out = attention(q, k, v, RAGGED, 2, 0.0, None)
        assert out._backward is None and out._parents == () and not out.requires_grad
        assert np.array_equal(out.data, attention(q, k, v, RAGGED, 2, 0.0, None).data)

    def test_keeps_only_probabilities_and_bool_keep_masks(self):
        """Per group the graph keeps the softmax probabilities and the
        boolean dropout mask: no float keep mask, no dropped-out weights and
        no head-layout copies of q, k and v, which backward gathers again."""
        q, k, v = (Tensor(RNG.normal(size=(int(RAGGED.sum()), 10)), requires_grad=True)
                   for _ in range(3))
        out = attention(q, k, v, RAGGED, 2, 0.3, np.random.default_rng(3))
        arrays = closure_arrays(out)
        floats = [a for a in arrays if a.dtype == np.float64]
        masks = [a for a in arrays if a.dtype == np.bool_]
        # five groups: one row each, the all-PAD row left out
        assert [a.shape for a in floats] == [a.shape for a in masks] == [
            (1, 2, n, n) for n in (4, 4, 3, 2, 1)]

    @pytest.mark.parametrize("shape", [(13, 6), (15, 6), (14,)])
    def test_rows_must_match_lengths(self, shape):
        x = Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match="one per real token"):
            attention(x, x, x, RAGGED, 2, 0.0, None)


class TestGelu:
    def test_finite_differences(self):
        w = RNG.normal(size=(5, 7))
        check(lambda x: (x.gelu() * Tensor(w)).sum(), RNG.normal(size=(5, 7)) * 2.0)

    @settings(max_examples=40, deadline=None)
    @given(packed_rows(), st.sampled_from([0.1, 1.0, 4.0]))
    def test_bit_identical_to_kept_tanh(self, case, spread):
        """Backward recomputes tanh(inner) with the forward's expression,
        so the output and the gradient have the bits of the kept-tanh
        node's."""
        n, d, seed = case
        rng = np.random.default_rng(seed)
        arrays, weights = [rng.normal(size=(n, d)) * spread], rng.normal(size=(n, d))
        out, grads = grads_and_output(Tensor.gelu, arrays, weights)
        ref_out, ref_grads = grads_and_output(kept_tanh_gelu, arrays, weights)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grads[0], ref_grads[0])

    def test_keeps_only_its_input(self):
        x = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
        out = x.gelu()
        assert out._parents == (x,)
        assert all(a is x.data for a in closure_arrays(out))


class TestLayerNorm:
    """The layer norm that ends `residual_norm`, with dropout off."""

    @settings(max_examples=40, deadline=None)
    @given(packed_rows())
    def test_bit_identical_to_composed_reference(self, case):
        """Same expressions in the same order as the composed projection,
        `+` and `reference_layer_norm`: the forward and every gradient are
        bit-identical, not only close, at rate 0 and with `rng=None`."""
        assert_bit_identical(fused_results("residual_norm", case, 0.0, seeded=True))
        assert_bit_identical(fused_results("residual_norm", case, 0.5, seeded=False))

    def test_keeps_no_normalized_copy(self):
        """The only (N, d) array the graph keeps is x + h @ w + b - mean:
        the gamma gradient recomputes the normalized sum."""
        arrays, call = fused_call("residual_norm", 5, 6, seed=4)
        x, h, w, b, gamma, beta = leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = call(residual_norm, 0.0, None)(*leaves)
        full = [a for a in closure_arrays(out) if a.shape == x.shape]
        assert len(full) == 1
        total = x.data + (h.data @ w.data + b.data)
        assert np.allclose(full[0], total - total.mean(axis=-1, keepdims=True))

    def test_finite_differences(self):
        w = RNG.normal(size=(5, 6))
        arrays = [RNG.normal(size=(5, 6)) * 2.0, RNG.normal(size=(5, 3)),
                  RNG.normal(size=(3, 6))] + [RNG.normal(size=6) for _ in range(3)]
        for rate, gen in ((0.5, None), (0.0, np.random.default_rng(0))):
            check(lambda *leaves: (residual_norm(*leaves, rate, gen) * Tensor(w)).sum(),
                  *arrays)


class TestNoGrad:
    def test_ops_build_no_graph_inside(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            y = (x @ x.transpose(1, 0)).tanh().sum()
            h = lstm(Tensor(random_inputs(0, MASK[:2])[0], requires_grad=True), LENGTHS[:2],
                     [[Tensor(a, requires_grad=True) for a in random_inputs(0)[1:]]])
        for out in (y, h):
            assert out._backward is None and out._parents == () and not out.requires_grad
        assert (x @ x.transpose(1, 0))._backward is not None       # enabled again on exit

    def test_values_unchanged(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            quiet = (x @ x.transpose(1, 0)).softmax().data
        assert np.array_equal(quiet, (x @ x.transpose(1, 0)).softmax().data)

    def test_state_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not autodiff._grad_enabled.get()     # the inner block restores "off"
                raise RuntimeError("boom")
        assert autodiff._grad_enabled.get()
        x = Tensor(np.ones(2), requires_grad=True)
        assert (x * 2.0)._backward is not None

    def test_other_threads_keep_building_graphs(self):
        inside, done = threading.Event(), threading.Event()

        def infer():
            with no_grad():
                inside.set()
                done.wait(timeout=10)

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert inside.wait(timeout=10)
            x = Tensor(np.ones(2), requires_grad=True)
            assert (x * 2.0)._backward is not None
        finally:
            done.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


class TestTracedPeak:
    def test_returns_the_result_and_the_peak(self, traced_peak):
        total, peak = traced_peak(lambda: np.ones(1 << 16).sum())
        assert total == 1 << 16 and peak >= 8 << 16
        assert not tracemalloc.is_tracing()

    def test_stops_tracing_when_the_call_raises(self, traced_peak):
        with pytest.raises(ZeroDivisionError):
            traced_peak(lambda: 1 / 0)
        assert not tracemalloc.is_tracing()
