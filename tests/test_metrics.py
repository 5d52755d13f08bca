import itertools
import json
import math
import random
import re
import string
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokfix import metrics
from tokfix.metrics import evaluate, hallucination_check, normalize_answer, paired_significance
from tokfix.mrqa import DatasetError, ExtractiveExample, read_dataset

from helpers import (
    f1_oracle,
    monte_carlo_p_2048_rows,
    normalize_answer_per_char,
    paired_significance_integers,
    write_file,
)

CTX_SNACK = (
    "It was the final year that Doritos, a longtime sponsor of the game, "
    "held its contest."
)
CTX_CLAIM = (
    "Israeli military action in Gaza is comparable to that of German "
    "soldiers during the Holocaust, a lawmaker claimed."
)

# (qid, context, golds, prediction or None, em, f1 as Fraction, out_of_context)
HAND_CASES = [
    ("c01", CTX_SNACK, ["Doritos"], "Doritos", 1, Fraction(1), False),
    ("c02", CTX_SNACK, ["Doritos"], "Dorfos", 0, Fraction(0), True),
    (
        "c03",
        CTX_CLAIM,
        [
            "Israeli military action in Gaza is comparable to that of "
            "German soldiers during the Holocaust"
        ],
        "Nazi soldiers during the Holocaust",
        0,
        Fraction(1, 3),
        True,
    ),
    (
        "c04",
        "Both sides signed The Treaty that winter.",
        ["The Treaty"],
        "the treaty",
        1,
        Fraction(1),
        True,  # case-sensitive surface form differs
    ),
    (
        "c05",
        "The ship was finished in 1912 after delays.",
        ["1912."],
        "1912",
        1,
        Fraction(1),
        False,
    ),
    (
        "c06",
        "Ships waited in the harbor overnight.",
        ["the harbor"],
        "harbor",
        1,
        Fraction(1),
        False,
    ),
    (
        "c07",
        "Visitors photographed the fenwick bridge from below.",
        ["fenwick bridge"],
        "bridge",
        0,
        Fraction(2, 3),
        False,
    ),
    (
        "c08",
        "Rain fell over the garden all night.",
        ["garden"],
        "the garden treaty",
        0,
        Fraction(2, 3),
        True,
    ),
    (
        "c09",
        "The crew raised the anchor before noon.",
        ["anchor"],
        "window",
        0,
        Fraction(0),
        True,
    ),
    (
        "c10",
        "The ancient harbor lay in ruins beside the old harbor wall.",
        ["harbor", "old harbor"],
        "old harbor",
        1,
        Fraction(1),
        False,
    ),
    ("c11", CTX_SNACK, ["Doritos"], "", 0, Fraction(0), False),
    (
        "c12",
        "Records mention 1912 and little else.",
        ["1912"],
        "  1912  ",
        1,
        Fraction(1),
        False,
    ),
    (
        "c13",
        "The piston piston seal failed.",
        ["piston piston seal"],
        "piston seal",
        0,
        Fraction(4, 5),
        False,
    ),
    ("c14", "Gate 77 stayed open late.", ["77"], "77.", 1, Fraction(1), True),
    ("c15", "Snow covered the meadow.", ["meadow"], None, 0, Fraction(0), False),
    (
        "c16",
        "Both sides signed the treaty that winter.",
        ["treaty"],
        "treaty",
        1,
        Fraction(1),
        False,
    ),
    (
        "c17",
        'The sign read "museum" in faded paint.',
        ["museum"],
        "sign read",
        0,
        Fraction(0),
        False,
    ),
    (
        "c18",
        "Deer gathered in the meadow at dusk.",
        ["meadow"],
        "Deer gathered in the meadow at dusk.",
        0,
        Fraction(2, 7),
        False,
    ),
    (
        "c19",
        "The café near the harbor closed.",
        ["café"],
        "café",
        1,
        Fraction(1),
        False,
    ),
    (
        "c20",
        "A label said (doritos) on the box.",
        ["the"],
        "a",
        1,
        Fraction(1),  # both sides normalize to the empty string
        False,
    ),
]


def exact_match(pred, golds):
    """1 iff the normalized prediction equals any normalized gold."""
    return int(normalize_answer(pred) in {normalize_answer(g) for g in golds})


def f1(pred, golds):
    """Token-multiset F1 in [0, 1] by ``evaluate``'s rule over normalized
    text, max over gold answers (0 with none)."""
    return metrics._f1_normalized(normalize_answer(pred), [normalize_answer(g) for g in golds])


def evaluate_one(preds, examples):
    """The report row and score rows of ``evaluate`` on one prediction file."""
    result = evaluate([preds], examples)
    (report,), (rows,) = result.reports, result.scores
    assert report["n"] == result.n
    return report, rows


def hand_examples():
    return [
        ExtractiveExample(
            qid=qid,
            context=context,
            question="?",
            gold_answers=tuple(golds),
        )
        for qid, context, golds, *_ in HAND_CASES
    ]


def hand_predictions():
    return {
        qid: pred for qid, _ctx, _golds, pred, *_ in HAND_CASES if pred is not None
    }


#: ASCII punctuation, whitespace, the letters of the articles in both cases,
#: and characters whose lowercase form or class differs from ASCII's.
_NORMALIZE_ALPHABET = (
    string.punctuation
    + string.whitespace
    + "\u00a0\u2003\u2028"
    + "aAnNtThHeE"
    + "İẞΣς\u0301’“—"
)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The Doritos!", "doritos"),
            ("", ""),
            (" 1912.", "1912"),
            ("a an the", ""),
            ("An  Anchor,   the harbor", "anchor harbor"),
            ("U.S.", "us"),
            # only ASCII punctuation goes; curly quotes and dashes stay
            ("“The Doritos”—a snack’s", "“ doritos”— snack’s"),
        ],
    )
    def test_rules(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text())
    @settings(max_examples=1000)
    def test_agrees_with_the_per_character_rule(self, text):
        assert normalize_answer(text) == normalize_answer_per_char(text)

    @given(st.text(alphabet=_NORMALIZE_ALPHABET))
    @settings(max_examples=1000)
    def test_agrees_with_the_per_character_rule_near_its_edges(self, text):
        assert normalize_answer(text) == normalize_answer_per_char(text)


#: articles, words that start or end like one, and the characters that may
#: sit next to one: non-ASCII letters, digits, ``_`` and a curly apostrophe
_ARTICLE_PIECES = st.sampled_from(
    ["a", "an", "the", "and", "theme", "tthe", "ta"]
    + ["é", "ñ", "ß", "Σ", "3", "_", "’", " ", "-"]
)


class TestArticles:
    @given(st.lists(st.one_of(_ARTICLE_PIECES, st.characters()), max_size=12).map("".join))
    @example("the an a")
    @example("an’tthe_a3éthe")
    @settings(max_examples=1000)
    def test_removes_what_the_squad_v11_pattern_removes(self, text):
        assert metrics._ARTICLES.sub(" ", text) == re.sub(r"\b(a|an|the)\b", " ", text)


class TestExactMatch:
    def test_identical_surface_form(self):
        assert exact_match("Doritos", ["Doritos"]) == 1

    def test_misspelling_fails(self):
        assert exact_match("Dorfos", ["Doritos"]) == 0

    @pytest.mark.parametrize("text", ["harbor", "The Treaty.", "1912", "café"])
    def test_any_string_matches_itself(self, text):
        assert exact_match(text, [text]) == 1

    def test_max_over_golds(self):
        assert exact_match("old harbor", ["harbor", "old harbor"]) == 1


class TestF1:
    def test_identical(self):
        assert f1("fenwick bridge", ["fenwick bridge"]) == 1.0

    def test_disjoint(self):
        assert f1("window", ["anchor"]) == 0.0

    def test_long_answer_overlap_matches_exact_arithmetic(self):
        _, _, golds, pred, _, expected, _ = HAND_CASES[2]
        oracle = f1_oracle(normalize_answer(pred).split(), normalize_answer(golds[0]).split())
        assert oracle == expected == Fraction(1, 3)
        assert f1(pred, golds) == pytest.approx(float(expected), abs=1e-12)

    def test_duplicate_tokens_use_multiset_overlap(self):
        score = f1("piston seal", ["piston piston seal"])
        assert score == pytest.approx(float(Fraction(4, 5)), abs=1e-12)

    def test_both_normalize_to_empty_scores_one(self):
        assert f1("a", ["the"]) == 1.0
        assert exact_match("a", ["the"]) == 1

    def test_empty_gold_list_scores_zero(self):
        assert f1("anything", []) == 0.0

    def test_em_one_implies_f1_one_on_fixture(self):
        for _qid, _ctx, golds, pred, em, frac, _h in HAND_CASES:
            if pred is None:
                continue
            if exact_match(pred, golds) == 1:
                assert f1(pred, golds) == 1.0

    def test_symmetry_for_single_gold(self):
        pairs = [("fenwick bridge", "bridge"), ("a b c", "c d"), ("77", "77.")]
        for left, right in pairs:
            assert f1(left, [right]) == pytest.approx(f1(right, [left]))

    def test_prediction_tokens_are_counted_once_per_question(self, monkeypatch):
        counted = []

        def counting(tokens):
            counted.append(len(tokens))
            return Counter(tokens)

        monkeypatch.setattr(metrics, "Counter", counting)
        pred = " ".join(f"w{i}" for i in range(100))
        golds = [f"w{i} w{i} x" for i in range(40)]
        expected = f1_oracle(pred.split(), golds[0].split())
        assert f1(pred, golds) == pytest.approx(float(expected), abs=1e-12)
        # one question costs its prediction's tokens plus its golds' tokens,
        # not prediction tokens times golds
        assert sum(counted) == 100 + 40 * 3


class TestHallucinationCheck:
    def test_misspelled_answer_is_out_of_context(self):
        assert hallucination_check("Dorfos", CTX_SNACK) is True

    def test_paraphrased_answer_is_out_of_context(self):
        assert hallucination_check("Nazi soldiers during the Holocaust", CTX_CLAIM) is True

    def test_context_slice_is_in_context(self):
        assert hallucination_check("soldiers during the Holocaust", CTX_CLAIM) is False

    def test_trimming_before_the_test(self):
        assert hallucination_check("  Doritos ", CTX_SNACK) is False

    def test_case_sensitive_but_normalized_variant_is_not(self):
        context = "Both sides signed The Treaty that winter."
        assert hallucination_check("the treaty", context) is True
        example = ExtractiveExample(qid="q", context=context, question="?", gold_answers=("x",))
        report, _ = evaluate_one({"q": "the treaty"}, [example])
        assert report["hallucination_rate"] == 100.0
        assert report["hallucination_rate_normalized"] == 0.0

    def test_random_context_slices_never_flagged(self):
        rng = random.Random(5150)
        contexts = [case[1] for case in HAND_CASES]
        for _ in range(300):
            context = rng.choice(contexts)
            i = rng.randrange(len(context))
            j = rng.randrange(i + 1, len(context) + 1)
            assert hallucination_check(context[i:j], context) is False


#: Answer words: articles, punctuation-only and empty pieces, and words
#: that differ only in case or punctuation.
_ANSWER_WORDS = ["ship", "Ship,", "old", "harbor", "the", "A", "...", "!", "", "1912"]


@st.composite
def scored_questions(draw):
    """A prediction and its golds: random texts with duplicates, empty and
    punctuation-only strings, and at times a gold that overlaps the
    prediction in part listed before one that matches it."""
    texts = st.lists(st.sampled_from(_ANSWER_WORDS), max_size=4).map(" ".join)
    pred = draw(texts)
    golds = draw(st.lists(texts, max_size=4))
    if draw(st.booleans()):
        golds += [f"{pred} harbor", pred.upper()]
    if golds and draw(st.booleans()):
        golds.append(draw(st.sampled_from(golds)))
    return pred, golds


class TestEvaluate:
    def test_perfect_predictions(self):
        # cases whose first gold answer is a verbatim slice of its context
        in_context = {"c01", "c02", "c03", "c04", "c06"}
        examples = [e for e in hand_examples() if e.qid in in_context]
        preds = {e.qid: e.gold_answers[0] for e in examples}
        report, _ = evaluate_one(preds, examples)
        assert report["em"] == 100.0
        assert report["f1"] == 100.0
        assert report["hallucination_rate"] == 0.0
        assert report["n"] == 5

    def test_empty_predictions_keep_denominator(self):
        examples = hand_examples()
        report, _ = evaluate_one({}, examples)
        assert report["em"] == 0.0
        assert report["f1"] == 0.0
        assert report["n"] == len(examples)
        assert report["n_predicted"] == 0
        assert report["hallucination_rate"] == 0.0

    def test_blank_gold_is_no_gold_as_an_empty_one_is(self):
        def report(golds):
            ex = ExtractiveExample("q", "It opened in 1912.", "?", gold_answers=golds)
            return evaluate_one({"q": ""}, [ex])

        blank, empty = report(("  ", "1912")), report(("", "1912"))
        assert blank == empty
        assert (blank[0]["em"], blank[0]["f1"]) == (0.0, 0.0)

    def test_hand_fixture_matches_per_example_oracle(self):
        report, rows = evaluate_one(hand_predictions(), hand_examples())
        by_qid = {qid: (em, score) for qid, em, score in rows}
        em_sum = 0
        f1_sum = Fraction(0)
        for qid, _ctx, _golds, pred, em, frac, _h in HAND_CASES:
            got_em, got_f1 = by_qid[qid]
            assert got_em == em, qid
            assert got_f1 == pytest.approx(float(frac), abs=1e-12), qid
            em_sum += em
            f1_sum += frac
        n = len(HAND_CASES)
        assert report["em"] == pytest.approx(round(100.0 * em_sum / n, 4), abs=1e-9)
        assert report["f1"] == pytest.approx(round(float(100 * f1_sum / n), 4), abs=1e-9)

    def test_hand_fixture_hallucination_flags(self):
        report, _ = evaluate_one(hand_predictions(), hand_examples())
        expected = sorted(qid for qid, *_rest, h in HAND_CASES if h)
        assert sorted(report["hallucinated_qids"]) == expected
        n_predicted = sum(1 for case in HAND_CASES if case[3] is not None)
        assert report["n_predicted"] == n_predicted
        assert report["hallucination_rate"] == pytest.approx(
            round(100.0 * len(expected) / n_predicted, 4)
        )

    def test_unknown_qid_is_reported_and_excluded(self):
        examples = hand_examples()[:3]
        preds = {e.qid: e.gold_answers[0] for e in examples}
        preds["zzz"] = "ghost"
        report, _ = evaluate_one(preds, examples)
        assert report["unknown_qids"] == ["zzz"]
        assert report["n"] == 3
        assert report["n_predicted"] == 3
        assert report["em"] == 100.0

    def test_repeated_qid_raises(self, tmp_path):
        qa = {"qid": "q", "question": "When?", "answers": ["1912"]}
        lines = [
            {"header": {}},
            {"context": "It opened in 1912.", "qas": [qa]},
            {"context": "It closed in 1912.", "qas": [qa]},
        ]
        data = "".join(json.dumps(line) + "\n" for line in lines).encode()
        _, stream = read_dataset(write_file(tmp_path, data))
        with pytest.raises(DatasetError, match="duplicate qid 'q' in dataset"):
            evaluate([{"q": "1912"}], stream)


    def test_two_files_normalize_each_context_and_gold_once(self, multi_qa_path, monkeypatch):
        _, stream = read_dataset(multi_qa_path)
        examples = list(stream)
        normalized = []
        original = metrics.normalize_answer

        def counting_normalize(text):
            normalized.append(text)
            return original(text)

        monkeypatch.setattr(metrics, "normalize_answer", counting_normalize)
        # m4 is predicted by neither file, m5 by the second only
        first = {"m1": "1912", "m2": "the ship", "m3": "ship", "m6": "museum"}
        second = {"m1": "1913", "m3": "The Ship", "m5": "treaty"}
        result = evaluate([first, second], examples)
        assert result.n == 6
        assert [r["n_predicted"] for r in result.reports] == [4, 3]

        contexts = {e.context for e in examples if e.qid != "m4"}
        golds = [g for e in examples if e.qid != "m4" for g in e.answer_texts()]
        predictions = [*first.values(), *second.values()]
        # no context equals a gold or a prediction, so counting by value
        # counts each context's calls
        assert not contexts & {*golds, *predictions}
        assert Counter(normalized) == Counter([*contexts, *golds, *predictions])

    def test_two_files_score_as_two_single_file_calls(self, multi_qa_path):
        _, stream = read_dataset(multi_qa_path)
        examples = list(stream)
        first = {"m1": "1912", "m3": "ship", "m6": "the museum", "ghost": "x"}
        second = {"m1": "in 1912", "m2": "Nobody", "m5": "treaty"}
        result = evaluate([first, second], iter(examples))
        assert [*zip(result.reports, result.scores)] == [
            evaluate_one(first, examples),
            evaluate_one(second, examples),
        ]
        assert result.reports[0]["unknown_qids"] == ["ghost"]

    def test_means_do_not_depend_on_summation_order(self):
        # one prediction token among 19 gold tokens scores F1 0.1; 53 more
        # questions have no prediction. The exact sum of the eleven 0.1 rows
        # gives 100 * 1.1 / 64 = 1.71875, which rounds to 1.7188; their
        # left-to-right sum, 1.0999999999999999, would round to 1.7187
        gold = " ".join(f"x{j}" for j in range(19))
        examples = [
            ExtractiveExample(qid=f"q{i}", context=gold, question="?", gold_answers=(gold,))
            for i in range(64)
        ]
        report, rows = evaluate_one({e.qid: "x0" for e in examples[:11]}, examples)
        assert [score for _, _, score in rows] == [0.1] * 11 + [0.0] * 53
        assert report["f1"] == 1.7188

    def test_report_matches_public_functions_per_question(self, multi_qa_path):
        _, stream = read_dataset(multi_qa_path)
        multi_qa = list(stream)
        multi_preds = {
            "m1": "1912",
            "m2": "ship",
            "m3": "The Ship",
            "m4": "nobody",
            "m6": "museum treaty",
        }
        for preds, examples in (
            (hand_predictions(), hand_examples()),
            (multi_preds, multi_qa),
        ):
            per_example = []
            hallucinated = []
            halluc_norm = 0
            for e in examples:
                pred = preds.get(e.qid)
                if pred is None:
                    per_example.append((e.qid, 0, 0.0))
                    continue
                golds = e.answer_texts()
                per_example.append((e.qid, exact_match(pred, golds), f1(pred, golds)))
                if hallucination_check(pred, e.context):
                    hallucinated.append(e.qid)
                halluc_norm += normalize_answer(pred) not in normalize_answer(e.context)

            report, rows = evaluate_one(preds, examples)
            assert rows == per_example
            assert report["hallucinated_qids"] == hallucinated
            assert report["hallucination_rate"] == round(100.0 * len(hallucinated) / len(preds), 4)
            assert report["hallucination_rate_normalized"] == round(
                100.0 * halluc_norm / len(preds), 4
            )

    @given(st.lists(scored_questions(), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rows_are_exact_match_and_full_token_f1(self, questions):
        examples = [
            ExtractiveExample(qid=f"q{i}", context="x", question="?", gold_answers=tuple(golds))
            for i, (_pred, golds) in enumerate(questions)
        ]
        preds = {f"q{i}": pred for i, (pred, _golds) in enumerate(questions)}
        expected = []
        for e in examples:
            # full counting scores every gold, the matching one included
            pred, golds = preds[e.qid], e.answer_texts()
            expected.append((e.qid, exact_match(pred, golds), f1(pred, golds)))
        assert evaluate_one(preds, examples)[1] == expected

    def test_exact_matches_count_no_tokens(self, multi_qa_path, monkeypatch):
        _, stream = read_dataset(multi_qa_path)
        examples = list(stream)
        counted = []

        def counting(tokens):
            counted.append(tokens)
            return Counter(tokens)

        monkeypatch.setattr(metrics, "Counter", counting)
        # each prediction normalizes equal to a gold of its question
        first = {"m1": "1912", "m3": "The Ship", "m5": "treaty", "m6": "museum"}
        second = {"m1": "1912.", "m3": "ship", "m6": "a museum"}
        result = evaluate([first, second], examples)
        assert [(r["em"], r["f1"]) for r in result.reports] == [
            (round(400 / 6, 4), round(400 / 6, 4)),
            (50.0, 50.0),
        ]
        assert counted == []


def rational_diffs(scores_a, scores_b) -> list[int]:
    """Score differences as the rationals the floats stand for
    (``Fraction.limit_denominator(1000)``), scaled by their common
    denominator to integers, so every signed sum is exact in any order."""
    diffs = [
        Fraction(a).limit_denominator(1000) - Fraction(b).limit_denominator(1000)
        for a, b in zip(scores_a, scores_b)
    ]
    scale = math.lcm(*(d.denominator for d in diffs))
    return [int(d * scale) for d in diffs]


def significance_oracle(scores_a, scores_b):
    """Exhaustive sign-flip enumeration over exactly 2**n assignments, in
    exact rational arithmetic."""
    diffs = rational_diffs(scores_a, scores_b)
    observed = abs(sum(diffs))
    hits = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        total = abs(sum(s * d for s, d in zip(signs, diffs)))
        if total >= observed:
            hits += 1
    return hits / 2 ** len(diffs)


def sampled_significance_oracle(scores_a, scores_b, *, resamples, seed):
    """Monte Carlo sign-flip p-value over the generator's default 64-bit
    draws, one row at a time, in exact rational arithmetic."""
    diffs = rational_diffs(scores_a, scores_b)
    observed = abs(sum(diffs))
    draws = np.random.default_rng(seed).integers(0, 2, size=(resamples, len(diffs)))
    hits = sum(
        abs(sum(d if bit else -d for bit, d in zip(row, diffs))) >= observed
        for row in draws.tolist()
    )
    return (1 + hits) / (resamples + 1)


F1_LIKE = (0.0, 1.0, 0.5, 1 / 3, 2 / 3)
NON_DYADIC_F1 = (0.0, 1.0, 1 / 3, 2 / 3, 0.4, 0.8, 4 / 7, 2 / 7)


def f1_like_scores(n: int) -> tuple[list[float], list[float]]:
    """Two systems' per-question F1 drawn from a few common values, so the
    differences (0, ±1, ±1/2, ±1/3, ±2/3, ...) make resampled sums tie the
    observed one exactly and a change in a sum's last bits moves the
    p-value."""
    rng = random.Random(0)
    return (
        [rng.choice(F1_LIKE) for _ in range(n)],
        [rng.choice(F1_LIKE) for _ in range(n)],
    )


class TestPairedSignificance:
    def test_identical_scores_give_p_one(self):
        result = paired_significance([0.5, 0.25, 1.0], [0.5, 0.25, 1.0])
        assert result.p_value == 1.0

    def test_small_n_matches_exhaustive_enumeration(self):
        # k/8 scores add exactly in any order; the F1-like thirds, fifths
        # and sevenths do not, so a float sum can miss an exact tie
        rng = random.Random(31337)
        cases = [((0.0, 0.0, 2 / 3), (2 / 3, 1 / 3, 0.0))]
        for values in ([k / 8 for k in range(9)], NON_DYADIC_F1):
            for _ in range(25):
                n = rng.randrange(2, 14)
                cases.append(
                    ([rng.choice(values) for _ in range(n)], [rng.choice(values) for _ in range(n)])
                )
        for a, b in cases:
            result = paired_significance(a, b, resamples=10_000, seed=1)
            assert result.method == "exact"
            assert result.resamples == 2 ** len(a)
            assert result.p_value == significance_oracle(a, b), (a, b)
        assert significance_oracle(*cases[0]) == 1.0

    def test_only_the_sampled_test_reports_its_seed(self):
        a, b = f1_like_scores(13)
        exact = [paired_significance(a, b, seed=seed) for seed in (7, 42)]
        assert exact[0] == exact[1]
        assert exact[0].method == "exact" and exact[0].seed is None
        sampled = paired_significance(a, b, resamples=1_000, seed=7)
        assert sampled.method == "monte_carlo" and sampled.seed == 7

    @pytest.mark.parametrize("resamples", [1_000, 2_000, 9_999])
    def test_monte_carlo_matches_exact_sums_over_the_same_draws(self, resamples):
        a, b = f1_like_scores(20)
        result = paired_significance(a, b, resamples=resamples, seed=42)
        assert result.method == "monte_carlo"
        assert result.p_value == sampled_significance_oracle(a, b, resamples=resamples, seed=42)

    def test_constant_shift_is_significant_at_n100(self):
        a = [1.0] * 100
        b = [0.0] * 100
        result = paired_significance(a, b, resamples=10_000, seed=42)
        assert result.method == "monte_carlo"
        assert result.p_value < 0.05
        assert result.statistic == pytest.approx(1.0)

    def test_two_sidedness_under_negated_differences(self):
        rng = random.Random(99)
        a = [rng.randrange(0, 9) / 8 for _ in range(40)]
        b = [rng.randrange(0, 9) / 8 for _ in range(40)]
        forward = paired_significance(a, b, resamples=2_000, seed=7)
        backward = paired_significance(b, a, resamples=2_000, seed=7)
        assert forward.p_value == backward.p_value
        assert forward.statistic == pytest.approx(-backward.statistic)

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(12)
        a = [rng.random() for _ in range(50)]
        b = [rng.random() for _ in range(50)]
        first = paired_significance(a, b, seed=5)
        second = paired_significance(a, b, seed=5)
        assert first == second

    def test_monte_carlo_p_uses_add_one_smoothing(self):
        a = [1.0] * 20
        b = [0.0] * 20
        result = paired_significance(a, b, resamples=1_000, seed=3)
        assert result.method == "monte_carlo"
        # all-ones flips are the only hits; they are vanishingly rare but
        # smoothing keeps p strictly positive
        assert 0.0 < result.p_value <= 1.0
        assert result.p_value >= 1.0 / 1001

    @pytest.mark.parametrize("resamples", [1_000, 2_000, 9_999])
    @pytest.mark.parametrize("n", [20, 500, 10_530])
    def test_chunking_keeps_the_fixed_2048_row_p_value(self, n, resamples):
        a, b = f1_like_scores(n)
        result = paired_significance(a, b, resamples=resamples, seed=42)
        assert result.method == "monte_carlo"
        assert result.p_value == monte_carlo_p_2048_rows(a, b, resamples=resamples, seed=42)

    @staticmethod
    def traced_peak(n: int, resamples: int) -> int:
        a, b = f1_like_scores(n)
        tracemalloc.start()
        try:
            paired_significance(a, b, resamples=resamples, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @staticmethod
    def memory_bound(n: int) -> int:
        """One chunk of raw words (4 B a flip) and float64 flips (8 B),
        which is 1 MiB or, when a row is larger, 2 rows; plus four n-length
        float64 vectors: the two score vectors, their differences and one
        temporary."""
        return max(1 << 20, 2 * 12 * n) + 4 * 8 * n

    def test_memory_stays_bounded_at_full_size(self):
        # 64-row chunks took 8.2 MB here; drawing every row at once ~420 MB
        n = 10_530
        assert self.traced_peak(n, resamples=10_000) <= self.memory_bound(n)

    def test_memory_does_not_grow_with_n(self):
        # a row of 100,000 flips outgrows the budget, so a chunk is 2 rows,
        # not 64 (77.7 MB here)
        n = 100_000
        assert self.traced_peak(n, resamples=200) <= self.memory_bound(n)

    @pytest.mark.parametrize("n", [1, 13, 14, 10_530, 10**6])
    def test_chunk_rows_are_even_and_at_least_two(self, n):
        rows = metrics._chunk_rows(n)
        assert rows >= 2 and rows % 2 == 0
        assert rows * n * 12 <= metrics._CHUNK_BYTES or rows == 2
        assert (rows + 2) * n * 12 > metrics._CHUNK_BYTES

    @pytest.mark.parametrize("resamples", [63, 1_001, 9_999])
    @pytest.mark.parametrize("n", [13, 15, 65, 1_001])
    def test_chunk_rows_do_not_move_a_p_value(self, n, resamples, monkeypatch):
        # each budget fits one row more than asked, an odd count that must
        # round down: odd rows of an odd n would end a chunk on half a raw word
        rng = random.Random(n)
        non_dyadic = [[rng.choice(NON_DYADIC_F1) for _ in range(n)] for _ in range(2)]
        inputs = [f1_like_scores(n), non_dyadic]
        for a, b in inputs:
            results = set()
            for rows in (2, 4, 8, 64, 2_048):
                monkeypatch.setattr(metrics, "_CHUNK_BYTES", (rows + 1) * 12 * n)
                assert metrics._chunk_rows(n) == rows
                results.add(paired_significance(a, b, resamples=resamples, seed=42))
            assert len(results) == 1, results

    @pytest.mark.parametrize("n", [1, 2, 13, 14, 63, 64, 65, 1_001])
    def test_raw_word_signs_equal_the_integers_draws(self, n):
        # 2**n <= resamples enumerates; an odd n with an odd last chunk
        # (1, 65, 129 or 1,001 resamples) ends on half a raw word
        rng = random.Random(n)
        a = [rng.choice(NON_DYADIC_F1) for _ in range(n)]
        b = [rng.choice(NON_DYADIC_F1) for _ in range(n)]
        for resamples in (1, 63, 64, 65, 129, 1_001):
            for seed in (0, 42, 2**40 + 3):
                expected = paired_significance_integers(a, b, resamples=resamples, seed=seed)
                result = paired_significance(a, b, resamples=resamples, seed=seed)
                assert result == expected, (resamples, seed)

    def test_raw_word_signs_equal_the_integers_draws_on_random_inputs(self):
        rng = random.Random(18)
        methods = Counter()
        for _ in range(1_000):
            n = rng.randrange(1, 401)
            resamples = rng.choice((rng.randrange(1, 130), rng.randrange(130, 1_025)))
            seed = rng.randrange(2**32)
            a = [rng.choice(NON_DYADIC_F1) for _ in range(n)]
            b = [rng.choice(NON_DYADIC_F1) for _ in range(n)]
            result = paired_significance(a, b, resamples=resamples, seed=seed)
            expected = paired_significance_integers(a, b, resamples=resamples, seed=seed)
            assert result == expected, (a, b, resamples, seed)
            methods[result.method] += 1
        assert min(methods["exact"], methods["monte_carlo"]) >= 10, methods

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            paired_significance([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            paired_significance([], [])

    def test_resamples_below_one_rejected(self):
        with pytest.raises(ValueError, match="resamples must be positive"):
            paired_significance([1.0], [0.0], resamples=0)

    @pytest.mark.parametrize(
        "scores_a, scores_b",
        [
            ([math.nan, 0.5], [0.0, 0.5]),
            ([math.inf, 0.5], [0.0, 0.5]),
            ([0.0, 0.5], [0.0, -math.inf]),
        ],
    )
    def test_non_finite_scores_rejected(self, scores_a, scores_b):
        with pytest.raises(ValueError, match="finite"):
            paired_significance(scores_a, scores_b)
