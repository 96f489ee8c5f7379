"""Tweet normalization: lowercasing, emoji-to-word, hashtag segmentation,
mention collapsing, and rare-word substitution.

All operations are pure functions over immutable tables, applied in a fixed
order by `normalize`. Hashtag camel-case detection runs on the original-case
hashtag body captured before lowercasing.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from importlib import resources

log = logging.getLogger(__name__)

STEP_ORDER = ("lowercase_strip", "emoji_to_words", "segment_hashtags",
              "collapse_mentions", "substitute_rare")

MENTION = "@user"
MENTIONS = "@users"

# blocks treated as emoji when deciding whether an unmatched codepoint
# should be dropped rather than passed through
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
    (0xFE0E, 0xFE0F),
    (0x200D, 0x200D),
    (0x20E3, 0x20E3),
)


_EMOJI_CHAR = re.compile(
    "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]"
)


def _is_emoji_char(ch: str) -> bool:
    return _EMOJI_CHAR.match(ch) is not None


@dataclass(frozen=True)
class RawTweet:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("tweet id must be non-empty")


@dataclass(frozen=True)
class NormalizedTweet:
    id: str
    text: str
    steps_applied: tuple[str, ...]


@dataclass(frozen=True)
class EmojiTable:
    """Emoji codepoint sequence -> space-separated lowercase name words."""
    entries: dict[str, str]
    # a table key, longest first so the longest key wins at a position, else
    # one emoji-class character
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, name in self.entries.items():
            if not re.fullmatch(r"[a-z0-9]+( [a-z0-9]+)*", name):
                raise ValueError(f"emoji name {name!r} not clean lowercase words")
            if not key:
                raise ValueError("empty emoji key")
        # the class already finds one-character keys inside it, and a branch
        # per such key would be a linear scan per character: re keeps
        # characters beyond U+FFFF out of its bitmap
        keys = sorted((k for k in self.entries if len(k) > 1 or not _is_emoji_char(k)),
                      key=len, reverse=True)
        object.__setattr__(self, "pattern", re.compile(
            "|".join([re.escape(k) for k in keys] + [_EMOJI_CHAR.pattern])
        ))

    @classmethod
    def load(cls, path) -> "EmojiTable":
        """Read tab-separated `emoji<TAB>name words` lines; `#` comments allowed."""
        entries = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                emoji, _, name = line.partition("\t")
                entries[emoji] = name.strip()
        return cls(entries)


@dataclass(frozen=True)
class UnigramTable:
    """Lowercase word frequencies used by hashtag segmentation."""
    counts: dict[str, int]
    total: int = field(init=False)
    # `log_prob`'s terms, computed once: known words, and unknown words' base
    log_probs: dict[str, float] = field(init=False, repr=False, compare=False)
    unknown_log_prob: float = field(init=False, repr=False, compare=False)
    longest: int = field(init=False, repr=False, compare=False)   # characters of the longest word

    def __post_init__(self):
        for word, count in self.counts.items():
            if not word or word != word.lower() or count <= 0:
                raise ValueError(f"bad unigram entry {word!r}: {count}")
        object.__setattr__(self, "total", sum(self.counts.values()))
        object.__setattr__(self, "log_probs", {
            word: math.log10(count / self.total) for word, count in self.counts.items()
        })
        object.__setattr__(self, "unknown_log_prob", -math.log10(max(self.total, 1)))
        object.__setattr__(self, "longest", max(map(len, self.counts), default=0))

    @classmethod
    def load(cls, path) -> "UnigramTable":
        counts = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                word, _, count = line.partition("\t")
                counts[word] = int(count)
        return cls(counts)

    def log_prob(self, word: str) -> float:
        """log10 unigram probability; unknown words get a length penalty."""
        known = self.log_probs.get(word)
        if known is not None:
            return known
        return self.unknown_log_prob - len(word)


def bundled_emoji_table() -> EmojiTable:
    ref = resources.files("offlang.data").joinpath("emoji.tsv")
    with resources.as_file(ref) as path:
        return EmojiTable.load(path)


def bundled_unigram_table() -> UnigramTable:
    ref = resources.files("offlang.data").joinpath("unigrams.tsv")
    with resources.as_file(ref) as path:
        return UnigramTable.load(path)


def emoji_to_words(text: str, table: EmojiTable) -> str:
    """Replace every known emoji sequence with its name words.

    Longest table key wins at each position. Emoji-block codepoints absent
    from the table are dropped and tallied in a warning. Text without emoji
    is returned unchanged.
    """
    # plain-text runs at even indices, emoji names ("" if dropped) between
    pieces: list[str] = []
    run_start = 0
    unknown = 0
    for match in table.pattern.finditer(text):
        name = table.entries.get(match.group())
        if name is None:
            name = ""
            unknown += 1
        pieces += [text[run_start:match.start()], name]
        run_start = match.end()
    if not pieces:
        return text
    if unknown:
        log.warning("dropped %d emoji absent from the emoji table", unknown)
    pieces.append(text[run_start:])
    # whitespace next to an emoji collapses into the single space around its name
    last = len(pieces) - 1
    for k in range(0, last + 1, 2):
        if k > 0:
            pieces[k] = pieces[k].lstrip()
        if k < last:
            pieces[k] = pieces[k].rstrip()
    return re.sub(r" {2,}", " ", " ".join(pieces)).strip()


def _capital_runs(tag: str) -> list[str]:
    return re.findall(r"[A-Z][^A-Z]*|^[^A-Z]+", tag)


def segment_hashtag(tag: str, unigrams: UnigramTable) -> str:
    """Split a hashtag body into lowercase words.

    Camel-case tags (two or more capital-initiated runs, not all-caps) split
    at the capitals. Everything else goes through dynamic-programming
    segmentation maximizing the summed unigram log-probability, ties broken
    by fewest words then lexicographically.
    """
    if not tag:
        return ""
    if not tag.isupper():
        runs = _capital_runs(tag)
        if len([r for r in runs if r]) >= 2 and "".join(runs) == tag:
            return " ".join(r.lower() for r in runs)
    return " ".join(_dp_segment(tag.lower(), unigrams))


_TIE_EPS = 1e-12


def _dp_segment(text: str, unigrams: UnigramTable) -> tuple[str, ...]:
    """The words of the best segmentation of `text`: the largest summed
    unigram log-probability, scores within _TIE_EPS tied, ties broken by
    fewest words, then by the lexicographically smaller word sequence.
    Candidates for the last word of each prefix are tried in order of their
    start, and each prefix keeps only its best score, word count and the
    start of its last word; a tie rebuilds the two word sequences it
    compares. A candidate longer than the table's longest word is unknown
    without a lookup."""
    n = len(text)
    known, unknown, longest = unigrams.log_probs, unigrams.unknown_log_prob, unigrams.longest
    score, count, back = [0.0] * (n + 1), [0] * (n + 1), [0] * (n + 1)

    def words(end: int) -> list[str]:
        out = []
        while end:
            out.append(text[back[end]:end])
            end = back[end]
        return out[::-1]

    for end in range(1, n + 1):
        best, best_start = -math.inf, 0
        for start in range(end):
            length = end - start
            log_prob = known.get(text[start:end]) if length <= longest else None
            cand = score[start] + (unknown - length if log_prob is None else log_prob)
            if cand <= best + _TIE_EPS:
                if cand < best - _TIE_EPS or count[start] > count[best_start]:
                    continue
                if (count[start] == count[best_start]
                        and words(start) + [text[start:end]]
                        >= words(best_start) + [text[best_start:end]]):
                    continue
            best, best_start = cand, start
        score[end], count[end], back[end] = best, count[best_start] + 1, best_start
    return tuple(words(n))


def collapse_mentions(text: str) -> str:
    """Two or more `@user` tokens collapse into one `@users` at the first slot."""
    tokens = text.split()
    positions = [i for i, tok in enumerate(tokens) if tok == MENTION]
    if len(positions) < 2:
        return text
    kept = [tok for i, tok in enumerate(tokens) if i not in positions]
    kept.insert(positions[0], MENTIONS)
    return " ".join(kept)


# the whole-token substitutions `normalize` applies
SUBSTITUTIONS = {"url": "http"}


def substitute_rare(text: str) -> str:
    """Whole-token substitution by SUBSTITUTIONS (url -> http)."""
    tokens = text.split(" ")
    if not any(tok in SUBSTITUTIONS for tok in tokens):
        return text
    return " ".join(SUBSTITUTIONS.get(tok, tok) for tok in tokens)


_HASHTAG = re.compile(r"#(\w+)")


def normalize(tweet: RawTweet, table: EmojiTable, unigrams: UnigramTable) -> NormalizedTweet:
    """Apply the full preprocessing pipeline in its fixed step order."""
    # each hashtag is segmented from its own original-case body, which drives
    # the camel-case split: the bodies that lowercase to a hashtag of the
    # lowercased text, in order of occurrence
    bodies: dict[str, list[str]] = {}
    for body in _HASHTAG.findall(tweet.text):
        bodies.setdefault(body.lower(), []).append(body)

    def segment(match: re.Match) -> str:
        # a body not seen in the original text is segmented as it stands
        originals = bodies.get(match.group(1))
        return segment_hashtag(originals.pop(0) if originals else match.group(1), unigrams)

    text = tweet.text.lower().strip()
    text = emoji_to_words(text, table)
    text = _HASHTAG.sub(segment, text)
    text = collapse_mentions(text)
    text = substitute_rare(text)
    return NormalizedTweet(id=tweet.id, text=text, steps_applied=STEP_ORDER)
