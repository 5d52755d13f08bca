"""SQuAD-style answer scoring, out-of-context detection, significance tests.

EM and F1 follow the v1.1 evaluation recipe: answers are lowercased,
punctuation and the articles a/an/the are removed, whitespace is collapsed,
and per-example scores take the max over gold answers. A prediction is
counted as out-of-context (textual hallucination) when its surface form is
not a substring of the context.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .mrqa import ExtractiveExample, records, unique_qids

#: SQuAD v1.1's ``\b(a|an|the)\b``, faster: each lookbehind, like the first ``\b``,
#: wants no word character before the article, and ``(?!\w)`` is the second.
_ARTICLES = re.compile(r"(?:a(?<!\wa)n?|t(?<!\wt)he)(?!\w)")
#: The 32 ASCII characters of ``string.punctuation``, as in the SQuAD v1.1
#: script; curly quotes, dashes and other non-ASCII marks are kept.
_PUNCT = re.compile("[" + re.escape(string.punctuation) + "]")


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    s = _PUNCT.sub("", s.lower())
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def hallucination_check(pred: str, context: str) -> bool:
    """True when the trimmed prediction is not a case-sensitive substring
    of the context (an out-of-context answer)."""
    return pred.strip() not in context


# The F1 rules below take strings already passed through
# ``normalize_answer``, so ``evaluate`` normalizes each text once.


def _f1_normalized(norm_pred: str, norm_golds: Sequence[str]) -> float:
    # one Counter per question keeps a question linear in its prediction plus its golds
    pred_tokens = norm_pred.split()
    pred_counts = Counter(pred_tokens)
    n_pred = len(pred_tokens)
    return max((_f1_tokens(pred_counts, n_pred, g.split()) for g in norm_golds), default=0.0)


def _f1_tokens(pred_counts: Counter[str], n_pred: int, gold_tokens: list[str]) -> float:
    if not n_pred and not gold_tokens:
        return 1.0
    overlap = sum(min(count, pred_counts[t]) for t, count in Counter(gold_tokens).items())
    if overlap == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


@dataclass
class Evaluation:
    """The gold question count, then per prediction file, in order, its
    report row and its ``(qid, em, f1)`` score rows."""

    n: int
    reports: list[dict]
    scores: list[list[tuple[str, int, float]]]


def evaluate(
    predictions: Sequence[dict[str, str]], examples: Iterable[ExtractiveExample]
) -> Evaluation:
    """Score every prediction file against the gold questions in one pass.

    ``examples`` is read once, so it may be a ``read_dataset`` stream; a
    qid that occurs twice in it raises DatasetError. A file's report row is
    the dict ``tokfix evaluate`` prints for it: macro-averaged ``em`` and
    ``f1`` percentages, ``n``, ``n_predicted``, both out-of-context rates,
    ``hallucinated_qids`` and ``unknown_qids``; percentages are rounded to
    4 places, and 0.0 when their denominator is 0. Every gold question
    counts toward each row's EM/F1 denominators; a missing prediction
    scores 0 on EM and F1. Out-of-context rates are computed over predicted
    answers only. Predictions whose qid matches no gold question are
    excluded and listed in ``unknown_qids``. A file's score rows hold one
    ``(qid, em, f1)`` triple per gold question, in input order; an exact
    match scores F1 1.0 without counting tokens. A question's golds and
    the context of a ``records`` run are normalized once whatever the
    number of files, and only when some file predicted one of them.
    """
    # per file: its predictions, score rows, and the qids out of context
    # before and after normalization
    files = [(preds, [], [], []) for preds in predictions]
    n = 0
    for record in records(unique_qids(examples)):
        context, norm_context = record[0].context, None
        n += len(record)
        for example in record:
            norm_golds = None
            for preds, rows, hallucinated, hallucinated_norm in files:
                pred = preds.get(example.qid)
                if pred is None:
                    rows.append((example.qid, 0, 0.0))
                    continue
                if norm_golds is None:
                    norm_golds = [normalize_answer(g) for g in example.answer_texts()]
                if norm_context is None:
                    norm_context = normalize_answer(context)
                norm_pred = normalize_answer(pred)
                em_i = int(norm_pred in norm_golds)
                f1_i = 1.0 if em_i else _f1_normalized(norm_pred, norm_golds)  # no F1 exceeds 1.0
                rows.append((example.qid, em_i, f1_i))
                if hallucination_check(pred, context):
                    hallucinated.append(example.qid)
                if norm_pred not in norm_context:
                    hallucinated_norm.append(example.qid)

    def percent(count: float, total: int) -> float:
        return round(100.0 * count / total, 4) if total else 0.0

    # a missing prediction's row adds 0 to the sums; qids are unique, so
    # every prediction not unknown was scored. fsum rounds alike on every
    # Python version (3.12's sum compensates, 3.11's does not).
    reports = []
    for preds, rows, hallucinated, hallucinated_norm in files:
        unknown = sorted(preds.keys() - (qid for qid, _, _ in rows))
        n_predicted = len(preds) - len(unknown)
        reports.append(
            {
                "em": percent(math.fsum(em for _, em, _ in rows), n),
                "f1": percent(math.fsum(f1 for _, _, f1 in rows), n),
                "n": n,
                "n_predicted": n_predicted,
                "hallucination_rate": percent(len(hallucinated), n_predicted),
                "hallucination_rate_normalized": percent(len(hallucinated_norm), n_predicted),
                "hallucinated_qids": hallucinated,
                "unknown_qids": unknown,
            }
        )
    return Evaluation(n, reports, [rows for _, rows, _, _ in files])


@dataclass(frozen=True)
class SignificanceResult:
    """Two-sided paired sign-flip randomization test outcome."""

    p_value: float
    statistic: float
    resamples: int
    seed: int | None  # None for the exact test, which draws nothing
    method: str


#: Bytes one chunk of flip rows may hold: 4 a flip for its raw words and 8
#: for its float64 flips (the exact test's int64 row bits take 8, not 4).
#: Hits count ties within the tolerance below, so neither chunk shape nor a
#: row's place in the matrix product, which can move a sum's last bits,
#: moves a p-value.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(n: int) -> int:
    """Flip rows per chunk for n pairs: the most that fit in ``_CHUNK_BYTES``
    at 12 bytes a flip, at least 2. Even, so only the last drawn chunk can
    end on half a raw word."""
    return max(2, _CHUNK_BYTES // (24 * n) * 2)


def paired_significance(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    *,
    resamples: int = 10_000,
    seed: int = 42,
) -> SignificanceResult:
    """Two-sided paired randomization (sign-flip) test on score differences.

    When all 2**n flip patterns fit within the resample budget the test
    enumerates them (p = hits / 2**n), draws nothing and reports ``seed``
    as None. Otherwise it samples, p = (1 + hits) / (resamples + 1), a flip
    per top bit of each 32-bit half of the generator's raw words, low half
    first: the draws of ``integers(0, 2)``, so p-values match earlier
    releases. Both tests work in chunks of ``_chunk_rows(n)`` rows (8 at
    n = 10,530), each written as 0.0/1.0 flips into one reused float64
    buffer. Deterministic for a fixed seed.

    A row is a hit when |D - 2 * (flips @ d)| >= |D| - n * 2**-50 * sum(|d|)
    for the differences d and their float sum D; D - 2 * (flips @ d) is the
    row's signed sum. With u = 2**-53, the computed row value lies within
    about 3 * n * u * sum(|d|) of the exact signed sum, and D within
    n * u * sum(|d|) of its exact value, so a row that ties the observed sum
    exactly falls at most about 4 * n * u * sum(|d|) short of |D|: half the
    tolerance of 8 * n * u * sum(|d|), so it always counts. Raises
    ValueError on non-finite scores.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError(
            f"paired scores differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    if not scores_a:
        raise ValueError("paired significance needs at least one pair")
    if resamples < 1:
        raise ValueError("resamples must be positive")

    import numpy as np  # only this test needs numpy; keep it out of the CLI's start-up

    diffs = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    if not np.isfinite(diffs).all():
        raise ValueError("paired scores must be finite")
    n = len(diffs)
    observed_sum = float(diffs.sum())
    threshold = abs(observed_sum) - n * 2.0**-50 * float(np.abs(diffs).sum())

    exact = n <= 62 and 2**n <= resamples
    total = 2**n if exact else resamples
    chunk_rows = _chunk_rows(n)
    if not exact:
        bits = np.random.default_rng(seed).bit_generator
    buffer = np.empty((min(chunk_rows, total), n), dtype=np.float64)
    hits = 0
    for first in range(0, total, chunk_rows):
        rows = min(chunk_rows, total - first)
        if exact:
            marks = -((np.arange(first, first + rows, dtype=np.int64)[:, None] >> np.arange(n)) & 1)
        else:
            marks = bits.random_raw((rows * n + 1) // 2).astype("<u8", copy=False)
            marks = marks.view("<i4")[: rows * n].reshape(rows, n)
        # a 1 bit flips; flipping a whole row negates its sum exactly, so hits do not change
        flips = np.less(marks, 0, out=buffer[:rows])
        del marks  # so the next chunk's words are drawn after these are freed
        hits += int(np.count_nonzero(np.abs(observed_sum - 2 * (flips @ diffs)) >= threshold))
    return SignificanceResult(
        p_value=hits / total if exact else (1 + hits) / (total + 1),
        statistic=observed_sum / n,
        resamples=total,
        seed=None if exact else seed,
        method="exact" if exact else "monte_carlo",
    )
