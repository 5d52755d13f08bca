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

_ARTICLES = re.compile(r"\b(a|an|the)\b")
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
class MetricsReport:
    """Macro-averaged EM/F1 percentages with out-of-context rates."""

    em: float
    f1: float
    n: int
    n_predicted: int
    hallucination_rate: float
    hallucination_rate_normalized: float
    hallucinated_qids: list[str]
    unknown_qids: list[str]
    per_example: list[tuple[str, int, float]]

    def to_dict(self) -> dict:
        return {
            "em": round(self.em, 4),
            "f1": round(self.f1, 4),
            "n": self.n,
            "n_predicted": self.n_predicted,
            "hallucination_rate": round(self.hallucination_rate, 4),
            "hallucination_rate_normalized": round(
                self.hallucination_rate_normalized, 4
            ),
            "hallucinated_qids": list(self.hallucinated_qids),
            "unknown_qids": list(self.unknown_qids),
        }


@dataclass
class Evaluation:
    """The gold question count and one report per prediction file, in order."""

    n: int
    reports: list[MetricsReport]


def evaluate(
    predictions: Sequence[dict[str, str]], examples: Iterable[ExtractiveExample]
) -> Evaluation:
    """Score every prediction file against the gold questions in one pass.

    ``examples`` is read once, so it may be a ``read_dataset`` stream; a
    qid that occurs twice in it raises DatasetError. Every gold question
    counts toward each report's denominators; a missing prediction scores
    0 on EM and F1. Out-of-context rates are computed over predicted
    answers only. Predictions whose qid matches no gold question are
    excluded and listed in ``unknown_qids``. ``per_example`` holds one
    ``(qid, em, f1)`` triple per gold question, in input order. A
    question's golds and the context of a ``records`` run are normalized
    once whatever the number of files, and only when some file predicted
    one of their questions.
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
            for preds, per_example, hallucinated, hallucinated_normalized in files:
                pred = preds.get(example.qid)
                if pred is None:
                    per_example.append((example.qid, 0, 0.0))
                    continue
                if norm_golds is None:
                    norm_golds = [normalize_answer(g) for g in example.answer_texts()]
                if norm_context is None:
                    norm_context = normalize_answer(context)
                norm_pred = normalize_answer(pred)
                em_i = int(norm_pred in norm_golds)
                per_example.append((example.qid, em_i, _f1_normalized(norm_pred, norm_golds)))
                if hallucination_check(pred, context):
                    hallucinated.append(example.qid)
                if norm_pred not in norm_context:
                    hallucinated_normalized.append(example.qid)

    # a missing prediction's row adds 0 to the sums; qids are unique, so
    # every prediction not unknown was scored. fsum rounds alike on every
    # Python version (3.12's sum compensates, 3.11's does not).
    reports = []
    for preds, per_example, hallucinated, hallucinated_normalized in files:
        unknown = sorted(preds.keys() - (qid for qid, _, _ in per_example))
        n_predicted = len(preds) - len(unknown)
        reports.append(
            MetricsReport(
                em=100.0 * math.fsum(em for _, em, _ in per_example) / n if n else 0.0,
                f1=100.0 * math.fsum(f1 for _, _, f1 in per_example) / n if n else 0.0,
                n=n,
                n_predicted=n_predicted,
                hallucination_rate=(
                    100.0 * len(hallucinated) / n_predicted if n_predicted else 0.0
                ),
                hallucination_rate_normalized=(
                    100.0 * len(hallucinated_normalized) / n_predicted if n_predicted else 0.0
                ),
                hallucinated_qids=hallucinated,
                unknown_qids=unknown,
                per_example=per_example,
            )
        )
    return Evaluation(n, reports)


@dataclass(frozen=True)
class SignificanceResult:
    """Two-sided paired sign-flip randomization test outcome."""

    p_value: float
    statistic: float
    resamples: int
    seed: int | None  # None for the exact test, which draws nothing
    method: str


#: Sign rows per chunk; even, so only the last drawn chunk can end on half a raw word.
#: Hits count ties within the tolerance below, so neither chunk shape nor a
#: row's place in the matrix product, which can move a sum's last bits, moves a p-value.
_CHUNK_ROWS = 64


def paired_significance(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    *,
    resamples: int = 10_000,
    seed: int = 42,
) -> SignificanceResult:
    """Two-sided paired randomization (sign-flip) test on score differences.

    When all 2**n sign assignments fit within the resample budget the test
    enumerates them (p = hits / 2**n), draws nothing and reports ``seed``
    as None. Otherwise it samples, p = (1 + hits) / (resamples + 1), a sign
    per top bit of each 32-bit half of the generator's raw words, low half
    first: the draws of ``integers(0, 2)``, so p-values match earlier
    releases. One ``copysign`` turns 64 rows at a time into a reused float64
    buffer: 64 x n x 12 bytes for n pairs. Deterministic for a fixed seed.

    A row is a hit when |signs @ d| >= |sum(d)| - n * 2**-50 * sum(|d|) for
    the differences d. The tolerance is four times the bound on how far
    two float sums of the same n differences, added in any order and
    counting each difference's own rounding, can drift apart, so a row
    that ties the observed sum exactly always counts. Raises ValueError on
    non-finite scores.
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
    bits = np.random.default_rng(seed).bit_generator
    buffer = np.empty((min(_CHUNK_ROWS, total), n), dtype=np.float64)
    hits = 0
    for first in range(0, total, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, total - first)
        if exact:
            marks = -((np.arange(first, first + rows, dtype=np.int64)[:, None] >> np.arange(n)) & 1)
        else:
            marks = bits.random_raw((rows * n + 1) // 2).astype("<u8", copy=False)
            marks = marks.view("<i4")[: rows * n].reshape(rows, n)
        # a 1 bit gives -1; negating a row negates its sum exactly, so hits do not change
        signs = np.copysign(1.0, marks, out=buffer[:rows])
        del marks  # so the next chunk's words are drawn after these are freed
        hits += int(np.count_nonzero(np.abs(signs @ diffs) >= threshold))
    return SignificanceResult(
        p_value=hits / total if exact else (1 + hits) / (total + 1),
        statistic=observed_sum / n,
        resamples=total,
        seed=None if exact else seed,
        method="exact" if exact else "monte_carlo",
    )
