"""SQuAD-style answer scoring, out-of-context detection, significance tests.

EM and F1 follow the v1.1 evaluation recipe: answers are lowercased,
punctuation and the articles a/an/the are removed, whitespace is collapsed,
and per-example scores take the max over gold answers. A prediction is
counted as out-of-context (textual hallucination) when its surface form is
not a substring of the context.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .mrqa import ExtractiveExample, unique_qids

logger = logging.getLogger(__name__)

_ARTICLES = re.compile(r"\b(a|an|the)\b")
#: The 32 ASCII characters of ``string.punctuation``, as in the SQuAD v1.1
#: script; curly quotes, dashes and other non-ASCII marks are kept.
_PUNCT = re.compile("[" + re.escape(string.punctuation) + "]")


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    s = _PUNCT.sub("", s.lower())
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold."""
    return _exact_match_normalized(
        normalize_answer(pred), [normalize_answer(g) for g in golds]
    )


def f1(pred: str, golds: Sequence[str]) -> float:
    """Token-multiset F1 in [0, 1], max over gold answers (0 with none)."""
    return _f1_normalized(normalize_answer(pred), [normalize_answer(g) for g in golds])


def hallucination_check(pred: str, context: str) -> bool:
    """True when the trimmed prediction is not a case-sensitive substring
    of the context (an out-of-context answer)."""
    return pred.strip() not in context


# The rules below take strings already passed through ``normalize_answer``,
# so ``evaluate`` normalizes each prediction, gold and context once and
# ``exact_match`` and ``f1`` stay thin wrappers over the same rules.


def _exact_match_normalized(norm_pred: str, norm_golds: Sequence[str]) -> int:
    return int(norm_pred in norm_golds)


def _f1_normalized(norm_pred: str, norm_golds: Sequence[str]) -> float:
    pred_tokens = norm_pred.split()
    return max((_f1_tokens(pred_tokens, g.split()) for g in norm_golds), default=0.0)


def _f1_tokens(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
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


def evaluate(preds: dict[str, str], examples: Iterable[ExtractiveExample]) -> MetricsReport:
    """Score predictions against gold questions.

    Every gold question counts toward the denominators; a missing
    prediction scores 0 on EM and F1. Out-of-context rates are computed
    over predicted answers only. Predictions whose qid matches no gold
    question are reported and excluded. ``per_example`` holds one
    ``(qid, em, f1)`` triple per gold question, in input order. A qid
    that occurs twice in ``examples`` raises DatasetError.
    """
    per_example: list[tuple[str, int, float]] = []
    hallucinated: list[str] = []
    halluc_norm = 0
    # examples of one record share a context object: normalize it once,
    # and only when one of its questions has a prediction
    context = norm_context = None

    for example in unique_qids(examples):
        if example.context is not context:
            context, norm_context = example.context, None
        pred = preds.get(example.qid)
        if pred is None:
            per_example.append((example.qid, 0, 0.0))
            continue
        norm_pred = normalize_answer(pred)
        norm_golds = [normalize_answer(g) for g in example.answer_texts()]
        em_i = _exact_match_normalized(norm_pred, norm_golds)
        f1_i = _f1_normalized(norm_pred, norm_golds)
        per_example.append((example.qid, em_i, f1_i))
        if hallucination_check(pred, context):
            hallucinated.append(example.qid)
        if norm_context is None:
            norm_context = normalize_answer(context)
        if norm_pred not in norm_context:
            halluc_norm += 1

    unknown = sorted(preds.keys() - (qid for qid, _, _ in per_example))
    for qid in unknown:
        logger.warning("prediction for unknown qid %r ignored", qid)

    # a missing prediction's row adds 0 to the sums; qids are unique, so
    # every prediction not unknown was scored
    n = len(per_example)
    n_predicted = len(preds) - len(unknown)
    return MetricsReport(
        em=100.0 * sum(em for _, em, _ in per_example) / n if n else 0.0,
        f1=100.0 * sum(f1 for _, _, f1 in per_example) / n if n else 0.0,
        n=n,
        n_predicted=n_predicted,
        hallucination_rate=(
            100.0 * len(hallucinated) / n_predicted if n_predicted else 0.0
        ),
        hallucination_rate_normalized=(
            100.0 * halluc_norm / n_predicted if n_predicted else 0.0
        ),
        hallucinated_qids=hallucinated,
        unknown_qids=unknown,
        per_example=per_example,
    )


@dataclass(frozen=True)
class SignificanceResult:
    """Two-sided paired sign-flip randomization test outcome."""

    p_value: float
    statistic: float
    resamples: int
    seed: int
    method: str = "monte_carlo"


#: Sign rows drawn per Monte Carlo chunk. The draw is the same stream
#: whatever the chunk shape, but a sum's last bits can depend on the row's
#: position within the matrix product, and a p-value moves when a sum ties
#: the observed one. Chunks of a multiple of 64 rows gave sums bitwise
#: equal to the former fixed 2,048-row chunks.
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
    enumerates them exhaustively (p = hits / 2**n); otherwise it samples,
    with p = (1 + hits) / (resamples + 1), drawing 64 rows of signs at a
    time into one reused buffer, so sampling memory grows as 64 x n
    floats for n pairs. Deterministic for a fixed seed.
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
    n = len(diffs)
    observed_sum = float(diffs.sum())
    statistic = observed_sum / n
    threshold = abs(observed_sum)

    if n <= 62 and 2**n <= resamples:
        codes = np.arange(2**n, dtype=np.uint64)
        bits = ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)
        signs = (bits * 2 - 1).astype(np.float64)
        sums = signs @ diffs
        hits = int(np.count_nonzero(np.abs(sums) >= threshold))
        return SignificanceResult(
            p_value=hits / 2**n,
            statistic=statistic,
            resamples=2**n,
            seed=seed,
            method="exact",
        )

    rng = np.random.default_rng(seed)
    rows = min(_CHUNK_ROWS, resamples)
    buffer = np.empty((rows, n), dtype=np.float64)
    hits = 0
    remaining = resamples
    while remaining > 0:
        chunk = min(remaining, rows)
        signs = buffer[:chunk]
        np.multiply(rng.integers(0, 2, size=(chunk, n)), 2, out=signs, casting="unsafe")
        signs -= 1
        sums = signs @ diffs
        hits += int(np.count_nonzero(np.abs(sums) >= threshold))
        remaining -= chunk
    return SignificanceResult(
        p_value=(1 + hits) / (resamples + 1),
        statistic=statistic,
        resamples=resamples,
        seed=seed,
        method="monte_carlo",
    )
