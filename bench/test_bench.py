"""Tests of the benchmark's own parts: `python3 -m pytest bench`."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from offlang import mtl, textnorm, tokenizer  # noqa: E402
from offlang.encoder import EncoderConfig  # noqa: E402
from offlang.synth import make_hierarchical_corpus  # noqa: E402


@pytest.fixture(scope="module")
def decorations():
    return inputs.Decorations(textnorm.bundled_emoji_table(),
                              textnorm.bundled_unigram_table())


def _flat(splits):
    return {name: [(ex.tweet.id, ex.tweet.text, ex.labels.as_tuple()) for ex in examples]
            for name, examples in splits.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_its_seed(name, decorations):
    make = workloads.WORKLOADS[name].make_inputs
    first = _flat(make(7, decorations))
    assert first == _flat(make(7, decorations))
    assert first != _flat(make(8, decorations))
    for examples in first.values():
        for _, text, _ in examples:
            assert "\t" not in text and "\n" not in text


def test_training_inputs_are_plain_and_infer_inputs_decorated(decorations):
    for name in ("train_short", "train_long"):
        splits = _flat(workloads.WORKLOADS[name].make_inputs(3, decorations))
        assert sorted(splits) == ["train", "val"]
        assert not any(c in text for examples in splits.values()
                       for _, text, _ in examples for c in "@#")


def test_infer_tweets_carry_every_decoration(decorations):
    texts = [t for _, t, _ in _flat(inputs.infer(3, decorations))["eval"]]
    joined = " ".join(texts)
    assert "@USER" in joined and "URL" in joined and "#" in joined
    assert any(e in joined for e in decorations.absent_emoji)
    tags = [tok for t in texts for tok in t.split() if tok.startswith("#")]
    assert max(map(len, tags)) > 31


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered(0, 100, []) == 0
    assert tracer.covered(0, 100, [(10, 30), (40, 45)]) == 25
    assert tracer.covered(0, 100, [(20, 50), (10, 30), (90, 120)]) == 50


def test_self_time_is_duration_minus_covered_child_time():
    ticks = iter([0, 10, 30, 40, 45, 42, 44, 100])
    t = tracer.Tracer(clock=lambda: next(ticks))
    parent = t.begin("parent")     # 0
    a = t.begin("a")               # 10
    t.finish(a)                    # 30
    b = t.begin("b")               # 40
    t.finish(b)                    # 45
    c = t.begin("c")               # 42: overlaps b, only its uncovered part counts
    t.finish(c)                    # 44
    t.finish(parent)               # 100
    assert list(t.parent) == [-1, 0, 0, 0]
    assert t.self_times() == [100 - 25, 20, 5, 2]
    assert t.summary() == {"parent": (1, 75), "a": (1, 20), "b": (1, 5), "c": (1, 2)}


def _tiny_model_step():
    examples = make_hierarchical_corpus(4, seed=0)
    vocab = tokenizer.build_vocab([ex.tweet.text for ex in examples])
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16, max_len=8,
                           vocab_size=len(vocab))
    model = mtl.MtlModel(config, mtl.HeadConfig(hidden=8), seed=0)
    ids, mask = tokenizer.encode_batch([ex.tweet.text for ex in examples], vocab, 8)
    targets, real = mtl.batch_targets(examples)
    loss, _, _ = mtl.mtl_loss(model.logits_mtl(ids, mask), targets, mtl.LossWeights(), real)
    loss.backward()
    return {name: t.grad.copy() for name, t in model.params.items() if t.grad is not None}


def _current():
    return [vars(owner)[attr] for owner, attr, *_ in tracer.SPAN_TARGETS + tracer.OP_TARGETS]


def test_wrappers_restore_the_originals():
    before = _current()
    assert tracer.wrapped_targets() == []
    for ops, n_targets in ((True, len(tracer.SPAN_TARGETS) + len(tracer.OP_TARGETS)),
                           (False, len(tracer.SPAN_TARGETS))):
        with tracer.Tracer().installed(ops=ops):
            assert len(tracer.wrapped_targets()) == n_targets
            _tiny_model_step()
        assert all(now is then for now, then in zip(_current(), before))
        assert tracer.wrapped_targets() == []

    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    assert all(now is then for now, then in zip(_current(), before))


def test_tracing_records_layers_without_changing_results():
    plain = _tiny_model_step()
    t = tracer.Tracer()
    with t.installed():
        traced = _tiny_model_step()
    assert plain.keys() == traced.keys()
    for name in plain:
        np.testing.assert_array_equal(plain[name], traced[name])

    summary = t.summary()
    for span in ("mtl.logits_mtl", "encoder.encode", "autodiff.backward",
                 "autodiff.op.getitem.bwd", "autodiff.op.gelu.fwd", "autodiff.op.rows.bwd"):
        assert summary[span][0] > 0, span
    counters = t.counters[""]       # no phase was opened
    assert counters["autodiff.graph_nodes"] > 0
    assert counters["autodiff.op.getitem.bwd_bytes"] > 0
    assert 0 < counters["encoder.pad_positions"] < counters["encoder.positions"]
    metrics = tracer.layer_metrics(t, ["autodiff.backward.self_ms", "autodiff.op.gelu.fwd_ms",
                                       "encoder.pad_fraction", "autodiff.graph_nodes"], ("",), 2)
    assert metrics["autodiff.graph_nodes"] == counters["autodiff.graph_nodes"] / 2
    assert 0 < metrics["encoder.pad_fraction"] < 1
    assert all(v > 0 for v in metrics.values())


def test_spans_and_counters_are_attributed_to_their_phase():
    t = tracer.Tracer()
    with t.installed():
        with t.phase("train"):
            _tiny_model_step()
        with t.phase("other"):
            _tiny_model_step()
            _tiny_model_step()
    train, other = t.summary(("train",)), t.summary(("other",))
    assert 2 * train["autodiff.backward"][0] == other["autodiff.backward"][0]
    nodes = t.counters["train"]["autodiff.graph_nodes"]
    assert 2 * nodes == t.counters["other"]["autodiff.graph_nodes"]
    assert tracer.layer_metrics(t, ["autodiff.graph_nodes", "textnorm.segment_hashtag.chars"],
                                ("train",), 1) == {"autodiff.graph_nodes": nodes,
                                                   "textnorm.segment_hashtag.chars": 0}
    assert "" not in t.counters
