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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .mrqa import ExtractiveExample, PredictionSet

logger = logging.getLogger(__name__)

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    s = s.lower()
    s = "".join(ch for ch in s if ch not in _PUNCT)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold."""
    norm_pred = normalize_answer(pred)
    return int(any(norm_pred == normalize_answer(g) for g in golds))


def _f1_single(pred: str, gold: str) -> float:
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(pred: str, golds: Sequence[str]) -> float:
    """Token-multiset F1 in [0, 1], max over gold answers."""
    if not golds:
        return 0.0
    return max(_f1_single(pred, g) for g in golds)


def hallucination_check(pred: str, context: str) -> bool:
    """True when the trimmed prediction is not a case-sensitive substring
    of the context (an out-of-context answer)."""
    return pred.strip() not in context


def hallucination_check_normalized(pred: str, context: str) -> bool:
    """Diagnostic variant of the out-of-context test on normalized strings."""
    return normalize_answer(pred) not in normalize_answer(context)


@dataclass
class MetricsReport:
    """Macro-averaged EM/F1 percentages with out-of-context rates."""

    em: float = 0.0
    f1: float = 0.0
    n: int = 0
    n_predicted: int = 0
    hallucination_rate: float = 0.0
    hallucination_rate_normalized: float = 0.0
    hallucinated_qids: list[str] = field(default_factory=list)
    unknown_qids: list[str] = field(default_factory=list)
    per_example: list[tuple[str, int, float]] = field(default_factory=list)

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


def evaluate(preds: PredictionSet, examples: Iterable[ExtractiveExample]) -> MetricsReport:
    """Score predictions against gold questions.

    Every gold question counts toward the denominators; a missing
    prediction scores 0 on EM and F1. Out-of-context rates are computed
    over predicted answers only. Predictions whose qid matches no gold
    question are reported and excluded. ``per_example`` holds one
    ``(qid, em, f1)`` triple per gold question, in input order.
    """
    per_example: list[tuple[str, int, float]] = []
    em_sum = 0.0
    f1_sum = 0.0
    n = 0
    n_predicted = 0
    halluc = 0
    halluc_norm = 0
    hallucinated: list[str] = []
    seen_qids = set()

    for example in examples:
        n += 1
        seen_qids.add(example.qid)
        golds = [a for a in example.gold_answers if a] or [
            t for t, _ in example.detected if t
        ]
        pred = preds.get(example.qid)
        if pred is None:
            per_example.append((example.qid, 0, 0.0))
            continue
        n_predicted += 1
        em_i = exact_match(pred, golds) if golds else 0
        f1_i = f1(pred, golds) if golds else 0.0
        em_sum += em_i
        f1_sum += f1_i
        per_example.append((example.qid, em_i, f1_i))
        if hallucination_check(pred, example.context):
            halluc += 1
            hallucinated.append(example.qid)
        if hallucination_check_normalized(pred, example.context):
            halluc_norm += 1

    unknown = sorted(set(preds) - seen_qids)
    for qid in unknown:
        logger.warning("prediction for unknown qid %r ignored", qid)

    return MetricsReport(
        em=100.0 * em_sum / n if n else 0.0,
        f1=100.0 * f1_sum / n if n else 0.0,
        n=n,
        n_predicted=n_predicted,
        hallucination_rate=100.0 * halluc / n_predicted if n_predicted else 0.0,
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
    with p = (1 + hits) / (resamples + 1). Deterministic for a fixed seed.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError(
            f"paired scores differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    if not scores_a:
        raise ValueError("paired significance needs at least one pair")
    if resamples < 1:
        raise ValueError("resamples must be positive")

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
    hits = 0
    remaining = resamples
    while remaining > 0:
        chunk = min(remaining, 2048)
        signs = rng.integers(0, 2, size=(chunk, n)).astype(np.float64) * 2 - 1
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
