import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.corpus import ScoredExample
from offlang.evaluation import (
    EvalReport,
    evaluate,
    macro_f1,
    majority_vote,
    task_report,
    threshold_search,
    vote_triples,
)
from offlang.mtl import PredictionTriple, TASK_CLASSES
from offlang.synth import make_hierarchical_corpus
from offlang.textnorm import NormalizedTweet
from offlang.tokenizer import build_vocab
from offlang.training import TrainConfig, train
from tests.test_training import tiny_model


def brute_macro_f1(golds, preds, classes):
    """Independent per-class precision/recall computation."""
    f1s = []
    for c in classes:
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


class TestMacroF1:
    def test_perfect_predictions(self):
        golds = ["OFF", "NOT", "OFF", "NOT"]
        assert macro_f1(golds, golds, ["OFF", "NOT"]) == 1.0

    def test_hand_case(self):
        golds = ["OFF", "OFF", "NOT", "NOT"]
        preds = ["OFF", "NOT", "NOT", "NOT"]
        # F1_OFF = 2/3, F1_NOT = 4/5
        got = macro_f1(golds, preds, ["OFF", "NOT"])
        assert abs(got - (2 / 3 + 4 / 5) / 2) < 1e-12
        assert abs(got - 0.7333333333333334) < 1e-12

    def test_zero_denominator_class(self):
        got = macro_f1(["OFF", "NOT"], ["OFF", "OFF"], ["OFF", "NOT"])
        assert abs(got - (2 / 3 + 0) / 2) < 1e-12

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            classes = [f"c{i}" for i in range(k)]
            n = int(rng.integers(1, 201))
            golds = [classes[i] for i in rng.integers(0, k, n)]
            preds = [classes[i] for i in rng.integers(0, k, n)]
            assert abs(macro_f1(golds, preds, classes)
                       - brute_macro_f1(golds, preds, classes)) < 1e-12

    def test_symmetric_under_relabeling(self):
        rng = np.random.default_rng(2)
        classes = ["x", "y", "z"]
        golds = [classes[i] for i in rng.integers(0, 3, 60)]
        preds = [classes[i] for i in rng.integers(0, 3, 60)]
        base = macro_f1(golds, preds, classes)
        for perm in itertools.permutations(classes):
            rename = dict(zip(classes, perm))
            permuted = macro_f1([rename[g] for g in golds],
                                [rename[p] for p in preds], classes)
            assert abs(base - permuted) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1(["OFF"], ["OFF", "NOT"], ["OFF", "NOT"])

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            macro_f1(["OFF"], ["BAD"], ["OFF", "NOT"])

    def test_confusion_matrix_sums_to_n(self):
        golds = ["OFF", "OFF", "NOT"]
        preds = ["NOT", "OFF", "NOT"]
        report = task_report(golds, preds, ["OFF", "NOT"])
        assert report.confusion.sum() == 3


def _pred(task_probs):
    """PredictionTriple with given task-A probs; B/C uniform."""
    return PredictionTriple(
        probs_a=np.asarray(task_probs),
        probs_b=np.full(3, 1 / 3),
        probs_c=np.full(4, 0.25),
    )


def random_prediction(rng):
    def probs(k):
        p = rng.random(k) + 1e-6
        return p / p.sum()
    return PredictionTriple(probs(2), probs(3), probs(4))


def batch_of(rows):
    """One batch PredictionTriple, as `forward_mtl` returns, holding the
    row triples `rows` in order; with no rows each task's array is (0, C)."""
    return PredictionTriple(*(
        np.array([row.probs(task) for row in rows]).reshape(len(rows), len(classes))
        for task, classes in TASK_CLASSES.items()))


def members_of(*rows_per_member):
    return [batch_of(rows) for rows in rows_per_member]


def brute_vote(members, i, task):
    classes = TASK_CLASSES[task]
    labels = [m[i].label(task) for m in members]
    counts = Counter(labels)
    top = max(counts.values())
    tied = [c for c in classes if counts.get(c, 0) == top]
    if len(tied) == 1:
        return tied[0]
    sums = {c: sum(m[i].probs(task)[classes.index(c)] for m in members) for c in tied}
    best = max(sums.values())
    return next(c for c in classes if c in tied and sums[c] == best)


@st.composite
def ensembles(draw):
    """K <= 4 members of N <= 3 predictions, each a list of scores per task;
    a score comes from a grid of tenths, where exact ties are common, or is
    any float in [0, 1]."""
    score = st.one_of(st.sampled_from([i / 10 for i in range(11)]), st.floats(0, 1))
    prediction = st.tuples(*(st.lists(score, min_size=len(classes), max_size=len(classes))
                             for classes in TASK_CLASSES.values()))
    n = draw(st.integers(0, 3))
    return draw(st.lists(st.lists(prediction, min_size=n, max_size=n), min_size=1, max_size=4))


class TestMajorityVote:
    def test_three_of_five(self):
        members = members_of([_pred([0.9, 0.1])], [_pred([0.8, 0.2])], [_pred([0.4, 0.6])],
                             [_pred([0.7, 0.3])], [_pred([0.1, 0.9])])
        assert majority_vote(members, "a") == ["OFF"]

    def test_single_member_is_argmax(self):
        members = members_of([_pred([0.3, 0.7])])
        assert majority_vote(members, "a") == ["NOT"]

    def test_even_tie_broken_by_probability_sum(self):
        # votes 2-2; summed P(OFF)=1.3 < summed P(NOT)=2.7, so NOT wins
        members = members_of([_pred([0.8, 0.2])], [_pred([0.5 + 1e-9, 0.5 - 1e-9])],
                             [_pred([0.0, 1.0])], [_pred([0.0, 1.0])])
        assert majority_vote(members, "a") == ["NOT"]

    def test_even_tie_toward_off(self):
        # labels OFF,OFF,NOT,NOT; sum P(OFF)=2.2 > sum P(NOT)=1.8, so OFF wins
        members = members_of([_pred([0.7, 0.3])], [_pred([0.6, 0.4])],
                             [_pred([0.45, 0.55])], [_pred([0.45, 0.55])])
        assert majority_vote(members, "a") == ["OFF"]

    def test_identical_members_equal_single_argmax(self):
        rng = np.random.default_rng(1)
        preds = batch_of([random_prediction(rng) for _ in range(6)])
        members = [preds] * 5
        for task in ("a", "b", "c"):
            assert majority_vote(members, task) == [p.label(task) for p in preds]

    def test_invariant_to_member_order(self):
        rng = np.random.default_rng(3)
        members = [batch_of([random_prediction(rng) for _ in range(10)]) for _ in range(5)]
        forward = vote_triples(members)
        assert vote_triples(members[::-1]) == forward

    # a 2-2 vote whose probability sums tie in exact arithmetic (2.0 each)
    # but not in floating point, where they depend on the order of addition
    @example([[([0.6, 0.4], [1, 0, 0], [1, 0, 0, 0])], [([0.9, 0.1], [1, 0, 0], [1, 0, 0, 0])],
              [([0.3, 0.7], [1, 0, 0], [1, 0, 0, 0])], [([0.2, 0.8], [1, 0, 0], [1, 0, 0, 0])]])
    @example([[], []])  # no examples: every vote is empty
    @settings(max_examples=40, deadline=None)
    @given(ensembles())
    def test_invariant_under_every_member_permutation(self, scores):
        members = [batch_of([PredictionTriple(*map(np.array, triple)) for triple in member])
                   for member in scores]
        want = {task: majority_vote(members, task) for task in TASK_CLASSES}
        triples = vote_triples(members)
        for order in itertools.permutations(members):
            order = list(order)
            assert {task: majority_vote(order, task) for task in TASK_CLASSES} == want
            assert vote_triples(order) == triples

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            k = int(rng.choice([1, 2, 3, 4, 5, 6, 7]))
            n = int(rng.integers(1, 5))
            members = [batch_of([random_prediction(rng) for _ in range(n)]) for _ in range(k)]
            for task in ("a", "b", "c"):
                got = majority_vote(members, task)
                want = [brute_vote(members, i, task) for i in range(n)]
                assert got == want

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="different example counts"):
            majority_vote(members_of([_pred([1, 0])], [_pred([1, 0]), _pred([1, 0])]), "a")

    def test_no_members(self):
        with pytest.raises(ValueError, match="at least one ensemble member"):
            majority_vote([], "a")


class TestThresholdSearch:
    def _scored(self, scores):
        return [
            ScoredExample(
                tweet=NormalizedTweet(id=str(i), text="x", steps_applied=()),
                avg_conf=s, std_conf=0.0,
            )
            for i, s in enumerate(scores)
        ]

    def test_separable_at_03(self):
        scores = [0.35, 0.4, 0.9, 0.55, 0.25, 0.2, 0.1, 0.05]
        golds = ["OFF"] * 4 + ["NOT"] * 4
        grid = [x / 10 for x in range(1, 10)]
        best, degenerate = threshold_search(self._scored(scores), golds, grid)
        assert best == 0.3 and not degenerate
        # confirm unique argmax over the grid
        f1s = []
        from offlang.corpus import binarize
        for t in grid:
            preds = [e.labels.a.value for e in binarize(self._scored(scores), t)]
            f1s.append(brute_macro_f1(golds, preds, ["OFF", "NOT"]))
        assert f1s.index(max(f1s)) == grid.index(0.3)
        assert f1s.count(max(f1s)) == 1

    def test_degenerate_constant_f1(self):
        best, degenerate = threshold_search(
            self._scored([0.5, 0.6]), ["OFF", "OFF"], [0.1, 0.2, 0.3],
        )
        assert best == 0.1 and degenerate

    def test_singleton_grid(self):
        best, _ = threshold_search(self._scored([0.5]), ["OFF"], [0.4])
        assert best == 0.4

    def test_empty_data(self):
        with pytest.raises(ValueError):
            threshold_search([], [], [0.5])


class TestEvaluate:
    def test_memorized_corpus_scores_one(self):
        examples = make_hierarchical_corpus(8, seed=21)
        vocab = build_vocab([e.tweet.text for e in examples])
        model = tiny_model(len(vocab), seed=21)
        config = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=200,
                             patience=200, seed=21)
        model, history = train(model, vocab, examples, examples, config)
        report = evaluate(model, vocab, examples)
        assert report.tasks["a"].macro_f1 == 1.0

    def test_constant_predictor_third(self):
        golds = ["OFF", "NOT"] * 10
        preds = ["OFF"] * 20
        assert abs(macro_f1(golds, preds, ["OFF", "NOT"]) - 1 / 3) < 1e-12

    def test_empty_corpus(self):
        examples = make_hierarchical_corpus(2, seed=0)
        vocab = build_vocab([e.tweet.text for e in examples])
        with pytest.raises(ValueError):
            evaluate(tiny_model(len(vocab)), vocab, [])
