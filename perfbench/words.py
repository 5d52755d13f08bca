"""Seeded synthetic lexicon shared by the tokenizer and dataset generators.

The lexicon is a fixed function of ``LEXICON_SEED``: pseudo-English words
built from syllables, ranked for a Zipf-Mandelbrot frequency law, with a
small share of accented (two-byte UTF-8) and Cyrillic words. Both the
committed tokenizer asset and every generated dataset draw from it, so
dataset text is mostly in-vocabulary for the tokenizer, as real text is for
a published BPE vocab. Nothing here imports ``tokfix``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

LEXICON_SEED = 221209912
LEXICON_SIZE = 20_000

FUNCTION_WORDS = (
    "the of and in to a was is for on by with as at from that his her it an "
    "were which after during their this also had its into one two been first "
    "but not they who are or has when than more other between over about "
    "three under while most some these those such only both later each"
).split()

_ONSETS = (
    "b c d f g h j k l m n p r s t v w z br ch cl cr dr fl gr pl pr sh sk "
    "sl st str th tr"
).split() + [""] * 4
_VOWELS = "a e i o u a e i o ai ea ee ie oo ou".split()
_CODAS = "n r s t l m nd st rk ng ck".split() + [""] * 8
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü", "n": "ñ", "c": "ç"}
_CYRILLIC = "абвгдежзиклмнопрстуфхцчшэюя"


def _syllable(rng: random.Random) -> str:
    return rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)


def make_word(rng: random.Random) -> str:
    """A pseudo-word of 1-4 syllables; ~4% accented, ~0.4% Cyrillic."""
    kind = rng.random()
    if kind < 0.004:
        return "".join(rng.choice(_CYRILLIC) for _ in range(rng.randint(3, 8)))
    n = rng.choices((1, 2, 3, 4), weights=(3, 5, 3, 1))[0]
    word = "".join(_syllable(rng) for _ in range(n))
    if kind < 0.04:
        spots = [i for i, ch in enumerate(word) if ch in _ACCENTS]
        if spots:
            i = rng.choice(spots)
            word = word[:i] + _ACCENTS[word[i]] + word[i + 1 :]
    return word


def lexicon() -> list[str]:
    """Word types in rank order: function words first, then generated words."""
    rng = random.Random(LEXICON_SEED)
    words = list(FUNCTION_WORDS)
    seen = set(words)
    while len(words) < LEXICON_SIZE:
        word = make_word(rng)
        if len(word) >= 2 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_cum_weights(n: int, exponent: float, shift: float = 2.7) -> list[float]:
    """Cumulative Zipf-Mandelbrot weights 1 / (rank + shift) ** exponent."""
    return list(accumulate(1.0 / (r + shift) ** exponent for r in range(1, n + 1)))


class ZipfSampler:
    """Draws words by rank from a prefix of the lexicon."""

    def __init__(self, words: list[str], exponent: float) -> None:
        self.words = words
        self.cum = zipf_cum_weights(len(words), exponent)
        self.total = self.cum[-1]

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect_right(self.cum, rng.random() * self.total)]


def year(rng: random.Random) -> str:
    """A four-digit year, concentrated on 1800-2020 as in encyclopedic text."""
    if rng.random() < 0.85:
        return str(rng.randint(1800, 2020))
    return str(rng.randint(1000, 2099))


def number(rng: random.Random) -> str:
    """A year or a small count."""
    if rng.random() < 0.6:
        return year(rng)
    return str(rng.choices((rng.randint(2, 99), rng.randint(100, 9999)), (3, 1))[0])
