"""Shared test utilities: tokenizer builders, independent oracles and data.

The oracles here deliberately use brute-force algorithms structured
differently from the library code so agreement is meaningful.
"""

from __future__ import annotations

import json
import random
import re
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import regex

from tokfix.bpe import BYTE_TO_UNIT, Encoding, TokenSpan, Tokenizer, load_tokenizer
from tokfix.metrics import SignificanceResult
from tokfix.mrqa import CharSpan


#: Each unit character back to its byte: ``BYTE_TO_UNIT`` inverted.
UNIT_TO_BYTE = {unit: b for b, unit in BYTE_TO_UNIT.items()}

#: Splits bare "1912" into 19/12 but fuses " 1912" into one token.
NUMBER_MERGES = [("1", "9"), ("1", "2"), ("Ġ", "19"), ("Ġ19", "12")]


def build_vocab(merges: list[tuple[str, str]], extra_tokens: tuple[str, ...] = ()) -> dict[str, int]:
    units = [BYTE_TO_UNIT[b] for b in range(256)]
    vocab = {u: i for i, u in enumerate(units)}
    for left, right in merges:
        vocab.setdefault(left + right, len(vocab))
    for token in extra_tokens:
        vocab.setdefault(token, len(vocab))
    return vocab


def merges_text(merges: list[tuple[str, str]]) -> str:
    return "#version: test\n" + "\n".join(f"{l} {r}" for l, r in merges) + "\n"


def load_tokenizer_texts(vocab_json: str, merges: str) -> Tokenizer:
    """Write ``vocab.json`` and ``merges.txt`` as UTF-8 into a temporary
    directory and load them with ``load_tokenizer``, so every test
    tokenizer passes its validation."""
    with tempfile.TemporaryDirectory() as directory:
        vocab_path = Path(directory) / "vocab.json"
        merges_path = Path(directory) / "merges.txt"
        vocab_path.write_text(vocab_json, encoding="utf-8")
        merges_path.write_text(merges, encoding="utf-8")
        return load_tokenizer(vocab_path, merges_path)


def make_tokenizer(merges: list[tuple[str, str]], extra_tokens: tuple[str, ...] = ()) -> Tokenizer:
    vocab = build_vocab(merges, extra_tokens)
    return load_tokenizer_texts(json.dumps(vocab), merges_text(merges))


def split_points(text: str) -> list[int]:
    """Every split point of text, by its definition."""
    inner = [p for p in range(1, len(text)) if regex.fullmatch(r"\S\s", text[p - 1 : p + 1])]
    return sorted({0, *inner, len(text)})


def write_file(directory: Path, data: bytes | str, name: str = "data.jsonl") -> Path:
    """Write ``data`` (text as UTF-8) to ``directory / name``; return the path."""
    path = directory / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path


def as_id_string(ids) -> str:
    """Ids as ``Encoding.id_string`` holds them, one code point per id."""
    return "".join(map(chr, ids))


def bpe_oracle_units(tok: Tokenizer, segment: str) -> list[str]:
    """One-step-at-a-time merge oracle.

    Each step rescans the whole merge table in priority order, applies the
    first rule found anywhere (at its leftmost position), and starts over.
    """
    units = [BYTE_TO_UNIT[b] for b in segment.encode("utf-8")]
    while True:
        applied = False
        for left, right in tok.merges:
            for i in range(len(units) - 1):
                if units[i] == left and units[i + 1] == right:
                    units[i : i + 2] = [left + right]
                    applied = True
                    break
            if applied:
                break
        if not applied:
            return units


def bpe_oracle_ids(tok: Tokenizer, text: str) -> list[int]:
    """Oracle encoding for single-segment texts (letters-only strings)."""
    return [tok.vocab[u] for u in bpe_oracle_units(tok, text)]


def naive_find(haystack, needle) -> TokenSpan | None:
    """Double-loop subsequence scan."""
    n, m = len(haystack), len(needle)
    if m == 0:
        return TokenSpan(0, 0)
    for i in range(n - m + 1):
        ok = True
        for j in range(m):
            if haystack[i + j] != needle[j]:
                ok = False
                break
        if ok:
            return TokenSpan(i, i + m)
    return None


def token_bytes(tok: Tokenizer, ids) -> bytes:
    """The source bytes of ids, read unit by unit from the vocabulary;
    one token's bytes need not be valid UTF-8."""
    return bytes(UNIT_TO_BYTE[unit] for i in ids for unit in tok.inverse_vocab[i])


def byte_offset(text: str, index: int) -> int:
    """The UTF-8 byte offset of code point ``index``, by encoding the prefix."""
    return len(text[:index].encode("utf-8"))


def slice_oracle(enc: Encoding, text: str, char_start: int, char_end: int):
    """Convert code points [char_start, char_end) of ``enc``'s source text
    to bytes by encoding prefixes, then enumerate all O(n^2) token
    sub-ranges; pick an exact cover if one exists, else the minimal cover.
    Returns (kind, (start, end)) or ("failed", None)."""
    start, end = byte_offset(text, char_start), byte_offset(text, char_end)
    if not enc.ids or start == end:
        return ("failed", None)
    n = len(enc.ids)
    best = None
    for i in range(n):
        for j in range(i + 1, n + 1):
            cover_start = enc.bounds[i]
            cover_end = enc.bounds[j]
            if cover_start <= start and end <= cover_end:
                if (cover_start, cover_end) == (start, end):
                    return ("exact", (i, j))
                if best is None or (j - i) < (best[1] - best[0]):
                    best = (i, j)
    assert best is not None
    return ("expanded", best)


def as_oracle_result(found) -> tuple:
    """A ``token_slice_for_span`` result in ``slice_oracle``'s form."""
    if found is None:
        return ("failed", None)
    span, exact = found
    return ("exact" if exact else "expanded", (span.start, span.end))


def has_faithful_slice(tok: Tokenizer, enc: Encoding, answer: str) -> bool:
    """Brute force: does any run of context ids decode to the answer
    once both are stripped of edge whitespace?"""
    n = len(enc.ids)
    for i in range(n):
        for j in range(i + 1, n + 1):
            try:
                decoded = token_bytes(tok, enc.ids[i:j]).decode("utf-8")
            except UnicodeDecodeError:
                continue
            if decoded.strip() == answer.strip():
                return True
    return False


def random_toy_tokenizer(rng: random.Random, alphabet: str = "abc") -> Tokenizer:
    """A random merge table over a tiny alphabet, shuffled so priorities
    need not respect construction order."""
    pool = list(alphabet)
    merges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for _ in range(rng.randrange(3, 14)):
        left = rng.choice(pool)
        right = rng.choice(pool)
        if len(left) + len(right) > 6 or (left, right) in seen:
            continue
        seen.add((left, right))
        merges.append((left, right))
        pool.append(left + right)
    rng.shuffle(merges)
    return make_tokenizer(merges)


def random_letter_text(rng: random.Random, alphabet: str = "abc", max_len: int = 12) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, max_len + 1)))


#: Units for ``random_toy_tokenizer`` under the whitespace oracles: two
#: letters, the space and newline units and the two bytes of "é". "Ġ"
#: comes twice, so that more merges fuse spaces, "ĠĠ" among them.
SPACE_UNITS = "abĠĠĊ" + BYTE_TO_UNIT[0xC3] + BYTE_TO_UNIT[0xA9]


def random_spaced_text(rng: random.Random) -> str:
    """Words over "a", "b" and "é", each followed by a run of spaces or
    newlines; a run may also lead, and half the time the last is cut."""
    gaps = [" ", " ", "  ", "   ", "\n", " \n"]
    text = rng.choice(["", "", " ", "\n"]) + "".join(
        random_letter_text(rng, "abé", 4) + rng.choice(gaps) for _ in range(rng.randrange(1, 6))
    )
    return text if rng.random() < 0.5 else text.rstrip()


def random_edge_answer(rng: random.Random, context: str) -> tuple[str, CharSpan | None] | None:
    """A slice of context, as an answer that may have edge whitespace, and
    a gold span or None; None when the slice is blank.

    Half the time the slice's trailing whitespace is swapped for a run
    drawn anew, which may be empty. A span (70%) starts where the slice
    does and ends anywhere in the context's whitespace after the answer's
    last non-space character, so ``mrqa.span_mismatch`` passes it.
    """
    start = rng.randrange(len(context))
    answer = context[start : rng.randrange(start + 1, len(context) + 1)]
    if not answer.strip():
        return None
    core = answer.rstrip()
    if rng.random() < 0.5:
        answer = core + rng.choice(["", " ", "  ", "\n"])
    if rng.random() < 0.3:
        return answer, None
    end = start + len(core)
    tail = len(context) - end - len(context[end:].lstrip())
    return answer, CharSpan(start, end + rng.randrange(tail + 1))


def f1_oracle(pred_tokens: list[str], gold_tokens: list[str]) -> Fraction:
    """Exact-arithmetic token-overlap F1 over pre-normalized token lists."""
    if not pred_tokens and not gold_tokens:
        return Fraction(1)
    overlap = 0
    remaining = list(gold_tokens)
    for token in pred_tokens:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    if overlap == 0:
        return Fraction(0)
    precision = Fraction(overlap, len(pred_tokens))
    recall = Fraction(overlap, len(gold_tokens))
    return 2 * precision * recall / (precision + recall)


def normalize_answer_per_char(s: str) -> str:
    """``metrics.normalize_answer`` as first written: punctuation is tested
    one character at a time against ``set(string.punctuation)``."""
    punct = set(string.punctuation)
    s = s.lower()
    s = "".join(ch for ch in s if ch not in punct)
    s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


def monte_carlo_p_2048_rows(scores_a, scores_b, *, resamples: int, seed: int) -> float:
    """Monte Carlo sign-flip p-value drawn in fixed 2,048-row chunks, the
    loop ``paired_significance`` used before it sized chunks by bytes, with
    its tie rule: a sum within ``n * 2**-50 * sum(|diffs|)`` of the
    observed one counts as a hit."""
    diffs = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    tolerance = len(diffs) * 2.0**-50 * float(np.abs(diffs).sum())
    threshold = abs(float(diffs.sum())) - tolerance
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = resamples
    while remaining > 0:
        chunk = min(remaining, 2048)
        signs = rng.integers(0, 2, size=(chunk, len(diffs))).astype(np.float64) * 2 - 1
        sums = signs @ diffs
        hits += int(np.count_nonzero(np.abs(sums) >= threshold))
        remaining -= chunk
    return (1 + hits) / (resamples + 1)


def paired_significance_integers(scores_a, scores_b, *, resamples: int = 10_000, seed: int = 42):
    """``paired_significance`` as it drew its signs before it read the bit
    generator's raw words: ``rng.integers(0, 2, dtype=np.int32)`` per
    64-row chunk, scaled to +-1 by a multiply and a subtraction, with the
    same tie rule. Inputs are taken as valid."""
    diffs = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    n = len(diffs)
    observed_sum = float(diffs.sum())
    threshold = abs(observed_sum) - n * 2.0**-50 * float(np.abs(diffs).sum())

    exact = n <= 62 and 2**n <= resamples
    total = 2**n if exact else resamples
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(64, total), n), dtype=np.float64)
    hits = 0
    for first in range(0, total, 64):
        rows = min(64, total - first)
        if exact:
            codes = np.arange(first, first + rows, dtype=np.uint64)
            draws = (codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        else:
            draws = rng.integers(0, 2, size=(rows, n), dtype=np.int32)
        signs = buffer[:rows]
        np.multiply(draws, 2, out=signs, casting="unsafe")
        signs -= 1
        hits += int(np.count_nonzero(np.abs(signs @ diffs) >= threshold))
    return SignificanceResult(
        p_value=hits / total if exact else (1 + hits) / (total + 1),
        statistic=observed_sum / n,
        resamples=total,
        seed=None if exact else seed,
        method="exact" if exact else "monte_carlo",
    )


def _qa(qid, answer=None, span=None):
    return {
        "qid": qid,
        "question": "?",
        "answers": [answer] if answer else [],
        "detected_answers": (
            [{"text": answer, "char_spans": [span]}] if answer else []
        ),
    }


#: Several qas per record. m2 and m4 have no answer, so record two has no
#: repairable qa; every other record has at least one.
MULTI_QA_RECORDS = [
    {
        "context": "The ship was finished in 1912 after delays.",
        "qas": [_qa("m1", "1912", [25, 28]), _qa("m2"), _qa("m3", "ship", [4, 7])],
    },
    {"context": "Nobody knew.", "qas": [_qa("m4")]},
    {
        "context": "A museum preserved the treaty.",
        "qas": [_qa("m5", "treaty", [23, 28]), _qa("m6", "museum", [2, 7])],
    },
]
