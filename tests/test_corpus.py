import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from offlang.corpus import (
    LABELED_HEADER,
    SCORED_HEADER,
    CorpusFormatError,
    HierarchyError,
    LabelTriple,
    NormContext,
    ScoredExample,
    TaskLabelA,
    TaskLabelB,
    TaskLabelC,
    binarize,
    load_labeled,
    load_scored,
    save_labeled,
    split,
)
from offlang.textnorm import NormalizedTweet, bundled_emoji_table, bundled_unigram_table

VALID_TRIPLES = {
    ("NOT", "NULL", "NULL"),
    ("OFF", "UNT", "NULL"),
    ("OFF", "TIN", "IND"),
    ("OFF", "TIN", "GRP"),
    ("OFF", "TIN", "OTH"),
}


@pytest.fixture(scope="module")
def context():
    return NormContext(emoji=bundled_emoji_table(), unigrams=bundled_unigram_table())


def is_consistent(a: TaskLabelA, b: TaskLabelB, c: TaskLabelC) -> bool:
    """Whether the triple passes the hierarchy constraints."""
    try:
        LabelTriple(a, b, c)
    except HierarchyError:
        return False
    return True


def _tweet(i="t1", text="hello world"):
    return NormalizedTweet(id=i, text=text, steps_applied=())


class TestHierarchy:
    def test_exactly_the_consistent_triples_accepted(self):
        accepted = set()
        for a, b, c in itertools.product(TaskLabelA, TaskLabelB, TaskLabelC):
            if is_consistent(a, b, c):
                accepted.add((a.value, b.value, c.value))
        assert accepted == VALID_TRIPLES

    def test_not_with_tin_rejected(self):
        with pytest.raises(HierarchyError):
            LabelTriple(TaskLabelA.NOT, TaskLabelB.TIN, TaskLabelC.IND)

    def test_unt_with_target_rejected(self):
        with pytest.raises(HierarchyError):
            LabelTriple(TaskLabelA.OFF, TaskLabelB.UNT, TaskLabelC.GRP)


class TestLoadLabeled:
    HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"

    def test_accepts_valid_rows(self, tmp_path, context):
        path = tmp_path / "olid.tsv"
        path.write_text(
            self.HEADER
            + "1\tNice day\tNOT\tNULL\tNULL\n"
            + "2\t@USER you fool\tOFF\tTIN\tIND\n",
            encoding="utf-8",
        )
        examples = load_labeled(path, context)
        assert len(examples) == 2
        assert examples[0].labels.a is TaskLabelA.NOT
        assert examples[1].tweet.text == "@user you fool"

    def test_hierarchy_violation_names_line(self, tmp_path, context):
        path = tmp_path / "bad.tsv"
        path.write_text(self.HEADER + "1\tx\tNOT\tTIN\tIND\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_labeled(path, context)

    def test_malformed_row_names_line(self, tmp_path, context):
        path = tmp_path / "bad.tsv"
        path.write_text(self.HEADER + "1\tonly-two-cells\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_labeled(path, context)

    def test_bad_header(self, tmp_path, context):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_labeled(path, context)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, context):
        path = tmp_path / "excel.tsv"
        path.write_text(self.HEADER + "1\tNice day\tNOT\tNULL\tNULL\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        (ex,) = load_labeled(path, context)
        assert ex.tweet.id == "1" and ex.labels.a is TaskLabelA.NOT

    def test_save_load_roundtrip(self, tmp_path, context):
        path = tmp_path / "olid.tsv"
        path.write_text(
            self.HEADER
            + "1\t@USER @USER URL\tOFF\tUNT\tNULL\n"
            + "2\tgood morning\tNOT\tNULL\tNULL\n",
            encoding="utf-8",
        )
        first = load_labeled(path, context)
        out = tmp_path / "norm.tsv"
        save_labeled(out, first)
        second = load_labeled(out, context)
        assert [(e.tweet.id, e.tweet.text, e.labels.as_tuple()) for e in first] \
            == [(e.tweet.id, e.tweet.text, e.labels.as_tuple()) for e in second]


class TestLoadScored:
    HEADER = "id\ttext\taverage\tstd\n"

    def test_direct_parse(self, tmp_path, context):
        path = tmp_path / "solid.tsv"
        path.write_text(self.HEADER + "1\thello\t0.5\t0.1\n", encoding="utf-8")
        (ex,) = load_scored(path, context)
        assert ex.avg_conf == 0.5 and ex.std_conf == 0.1

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, context):
        path = tmp_path / "excel.tsv"
        path.write_text(self.HEADER + "1\thello\t0.5\t0.1\n", encoding="utf-8-sig")
        (ex,) = load_scored(path, context)
        assert ex.tweet.id == "1" and ex.avg_conf == 0.5

    def test_out_of_range_score(self, tmp_path, context):
        path = tmp_path / "solid.tsv"
        path.write_text(self.HEADER + "1\thello\t1.2\t0.1\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_scored(path, context)

    @pytest.mark.parametrize("std", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_std(self, tmp_path, context, std):
        path = tmp_path / "solid.tsv"
        path.write_text(self.HEADER + f"1\thello\t0.5\t0.1\n2\tbye\t0.5\t{std}\n",
                        encoding="utf-8")
        message = f"solid.tsv:3: std_conf {float(std)} not finite and nonnegative"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            load_scored(path, context)

    def test_empty_after_header(self, tmp_path, context):
        path = tmp_path / "solid.tsv"
        path.write_text(self.HEADER, encoding="utf-8")
        assert load_scored(path, context) == []


class TestBinarize:
    def _scored(self, scores):
        return [
            ScoredExample(tweet=_tweet(str(i)), avg_conf=s, std_conf=0.0)
            for i, s in enumerate(scores)
        ]

    def test_above_threshold_off(self):
        (ex,) = binarize(self._scored([0.31]), 0.3)
        assert ex.labels.a is TaskLabelA.OFF and ex.synthetic

    def test_below_threshold_not(self):
        (ex,) = binarize(self._scored([0.29]), 0.3)
        assert ex.labels.a is TaskLabelA.NOT

    def test_boundary_maps_to_off(self):
        (ex,) = binarize(self._scored([0.30]), 0.3)
        assert ex.labels.a is TaskLabelA.OFF

    def test_placeholders_are_hierarchy_consistent(self):
        for ex in binarize(self._scored([0.1, 0.9]), 0.3):
            assert (ex.labels.a.value, ex.labels.b.value, ex.labels.c.value) \
                in VALID_TRIPLES

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        scores = rng.random(200)
        examples = self._scored(scores)
        previous_off = None
        for threshold in np.linspace(0.05, 0.95, 19):
            off = {
                ex.tweet.id
                for ex in binarize(examples, threshold)
                if ex.labels.a is TaskLabelA.OFF
            }
            if previous_off is not None:
                assert off <= previous_off  # raising threshold never adds OFF
            previous_off = off

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            binarize(self._scored([0.5]), 1.0)


class TestSplit:
    def test_sizes(self):
        items = list(range(100))
        train, val = split(items, (0.8, 0.2), seed=7)
        assert len(train) == 80 and len(val) == 20
        assert sorted(train + val) == items

    def test_same_seed_identical(self):
        items = list(range(37))
        assert split(items, (0.5, 0.5), seed=3) == split(items, (0.5, 0.5), seed=3)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split(list(range(10)), (0.5, 0.6), seed=0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split([1], (0.5, 0.5), seed=0)


def test_readme_names_the_loader_headers():
    """The README's column lines are the headers the loaders require."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    for kind, header in (("Labeled", LABELED_HEADER), ("scored", SCORED_HEADER)):
        columns = re.search(rf"{kind} TSVs have (?:columns )?`([^`]*)`", readme)
        assert columns and columns[1].split(", ") == header, kind
