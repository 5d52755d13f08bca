import json
import random
import time
import tracemalloc
from collections import Counter
from itertools import groupby

import pytest

from tokfix import consist
from tokfix.bpe import (
    BYTE_TO_UNIT,
    encode,
    find_subsequence,
    ids_to_pieces,
)
from tokfix.consist import (
    ALREADY_CONSISTENT,
    CONSISTENT_PREFIX_SPACE,
    CONSISTENT_RAW,
    EXACT_SLICE,
    EXPANDED_SLICE,
    INCONSISTENT,
    SUBSEQUENCE_SEARCH,
    UNRESOLVED,
    SpanMismatchError,
    _reservoir_sample,
    analyze_dataset,
    answer_variants,
    check_consistency,
    fix_dataset,
    make_consistent_target,
)
from tokfix.mrqa import CharSpan, DatasetError, ExtractiveExample, read_dataset

from gen_corpus import EXPECTED_METHODS, EXPECTED_TOTALS
from helpers import (
    MULTI_QA_RECORDS,
    NUMBER_MERGES,
    SPACE_UNITS,
    build_vocab,
    load_tokenizer_texts,
    make_tokenizer,
    merges_text,
    naive_find,
    random_edge_answer,
    random_spaced_text,
    random_toy_tokenizer,
    split_points,
    token_bytes,
)


FIXED_QA_KEYS = [
    "qid",
    "question",
    "answers",
    "detected_answers",
    "target_token_ids",
    "fix_method",
    "context_token_span",
]


def example(qid, context, answer, span=None, gold=None):
    detected = ((answer, (span,) if span else ()),) if answer else ()
    return ExtractiveExample(
        qid=qid,
        context=context,
        question="?",
        gold_answers=tuple(gold) if gold is not None else ((answer,) if answer else ()),
        detected=detected,
    )


def record_encodes(monkeypatch):
    """Rebind ``consist`` names to log, for each record that
    ``analyze_dataset`` or ``fix_dataset`` reads, its context and the
    texts encoded for it outside ``answer_variants``."""
    log = []
    in_variants = []
    encode_, variants, records = consist.encode, consist.answer_variants, consist.records

    def logging_encode(tok, text):
        if not in_variants:
            log[-1][1].append(text)
        return encode_(tok, text)

    def flagged_variants(tok, answer):
        in_variants.append(answer)
        try:
            return variants(tok, answer)
        finally:
            in_variants.pop()

    def marking(examples):
        for record in records(examples):
            log.append((record[0].context, []))
            yield record

    monkeypatch.setattr(consist, "encode", logging_encode)
    monkeypatch.setattr(consist, "answer_variants", flagged_variants)
    monkeypatch.setattr(consist, "records", marking)
    return log


class TestAnswerVariants:
    def test_number_variants(self, number_tok):
        raw, prefixed = answer_variants(number_tok, "1912")
        assert ids_to_pieces(number_tok, raw) == ["19", "12"]
        assert ids_to_pieces(number_tok, prefixed) == ["Ġ1912"]

    def test_empty_answer_rejected(self, number_tok):
        with pytest.raises(ValueError, match="blank"):
            answer_variants(number_tok, "")

    @pytest.mark.parametrize("answer", ["  ", "\n"])
    def test_blank_answer_rejected(self, number_tok, answer):
        with pytest.raises(ValueError, match="blank"):
            answer_variants(number_tok, answer)

    def test_toy_answer(self, toy_tok):
        raw, prefixed = answer_variants(toy_tok, "abc")
        assert ids_to_pieces(toy_tok, raw) == ["abc"]
        assert ids_to_pieces(toy_tok, prefixed) == ["Ġ", "abc"]

    def test_answer_with_leading_space(self, toy_tok):
        raw, prefixed = answer_variants(toy_tok, " x")
        assert ids_to_pieces(toy_tok, raw) == ["Ġ", "x"]
        assert ids_to_pieces(toy_tok, prefixed) == ["Ġ", "Ġ", "x"]


class TestCheckConsistency:
    def test_space_preceded_answer_needs_prefix_variant(self, number_tok):
        enc = encode(number_tok, "Fenwick finished it in 1912 quietly.")
        verdict = check_consistency(enc, "1912")
        assert verdict.status == CONSISTENT_PREFIX_SPACE
        assert verdict.location is not None
        assert ids_to_pieces(number_tok, enc.ids[verdict.location.start : verdict.location.end]) == ["Ġ1912"]

    def test_context_equal_to_answer_is_raw_consistent(self, number_tok):
        enc = encode(number_tok, "1912")
        verdict = check_consistency(enc, "1912")
        assert verdict.status == CONSISTENT_RAW
        assert verdict.location.start == 0

    @pytest.mark.parametrize("answer", ["  ", "\n"])
    def test_blank_answer_rejected(self, number_tok, answer):
        enc = encode(number_tok, "a  b\n")
        with pytest.raises(ValueError, match="blank"):
            check_consistency(enc, answer)

    def test_absent_answer_is_inconsistent(self, number_tok):
        enc = encode(number_tok, "nothing numeric here")
        verdict = check_consistency(enc, "1912")
        assert verdict.status == INCONSISTENT
        assert verdict.location is None

    def test_matches_brute_force_checker_on_corpus(
        self, corpus_tok, corpus_examples, corpus_expectations
    ):
        for ex in corpus_examples:
            answer = ex.gold_answers[0]
            enc = encode(corpus_tok, ex.context)
            verdict = check_consistency(enc, answer)
            # brute force: re-derive both variants, scan with the naive loop
            raw = encode(corpus_tok, answer).ids
            prefixed = encode(corpus_tok, " " + answer).ids
            if naive_find(enc.ids, raw):
                expected = CONSISTENT_RAW
            elif naive_find(enc.ids, prefixed):
                expected = CONSISTENT_PREFIX_SPACE
            else:
                expected = INCONSISTENT
            assert verdict.status == expected == corpus_expectations[ex.qid]["verdict"]


class TestCheckConsistencyScaling:
    def test_400_questions_over_a_120k_id_context_well_under_a_second(self, number_tok):
        # one record with many qas searches the same long context ids for
        # every answer; joining those ids again per search costs O(q * n)
        enc = encode(number_tok, "wörd 1912 " * 17_000)
        assert len(enc.ids) > 115_000
        expected = {
            "wörd": CONSISTENT_RAW,
            "1912": CONSISTENT_PREFIX_SPACE,
            "1913": INCONSISTENT,
            "dröw": INCONSISTENT,
        }
        answers = random.Random(5).choices(list(expected), k=400)
        start = time.perf_counter()
        verdicts = [check_consistency(enc, answer) for answer in answers]
        elapsed = time.perf_counter() - start
        assert [v.status for v in verdicts] == [expected[a] for a in answers]
        assert elapsed < 0.5


class TestMakeConsistentTarget:
    def test_space_fused_number_repairs_to_single_token(self, number_tok):
        context = "The ship was finished in 1912 after delays."
        enc = encode(number_tok, context)
        span = CharSpan(25, 29)
        outcome = make_consistent_target(context, enc, "1912", span)
        assert outcome.method == EXPANDED_SLICE
        assert ids_to_pieces(number_tok, outcome.target_ids) == ["Ġ1912"]
        assert token_bytes(number_tok, outcome.target_ids) == b" 1912"
        assert enc.ids[outcome.context_span.start : outcome.context_span.end] == outcome.target_ids

    def test_answer_equal_to_context(self, number_tok):
        context = "1912"
        enc = encode(number_tok, context)
        outcome = make_consistent_target(context, enc, "1912", CharSpan(0, 4))
        assert outcome.method == ALREADY_CONSISTENT
        assert outcome.context_span.start == 0
        assert outcome.context_span.end == len(enc.ids)

    def test_sub_token_answer_is_unresolved(self, corpus_tok):
        context = "The hull was laid in 1912, they say."
        enc = encode(corpus_tok, context)
        start = context.index("912")
        span = CharSpan(start, start + 3)
        outcome = make_consistent_target(context, enc, "912", span)
        assert outcome.method == UNRESOLVED
        assert outcome.context_span is None
        assert outcome.target_ids == encode(corpus_tok, "912").ids

    def test_gold_span_mismatch_raises(self, number_tok):
        context = "abc def"
        enc = encode(number_tok, context)
        with pytest.raises(SpanMismatchError, match="points at"):
            make_consistent_target(context, enc, "xyz", CharSpan(0, 3))

    @pytest.mark.parametrize("span", [(-1, 3), (4, 3), (0, 8)])
    def test_gold_span_out_of_range_raises(self, number_tok, span):
        context = "abc def"
        enc = encode(number_tok, context)
        with pytest.raises(SpanMismatchError, match="out of range"):
            make_consistent_target(context, enc, "abc", CharSpan(*span))

    def test_empty_answer_rejected(self):
        # the span check passes an empty or blank answer over whitespace, and
        # the covering run of "a   b"[1:2] is "ĠĠ", which decodes to "  "
        tok = make_tokenizer([("Ġ", "Ġ")])
        context = "a   b"
        enc = encode(tok, context)
        for answer, span in (("", CharSpan(1, 2)), ("  ", CharSpan(2, 3))):
            with pytest.raises(ValueError, match="blank"):
                make_consistent_target(context, enc, answer, span)

    def test_answer_with_trailing_spaces_resolves_to_its_stripped_slice(self):
        # standalone, "a  " ends in the segment "  " and merges to a/ĠĠ; in
        # the context that run splits into " " and " b"
        tok = make_tokenizer([("Ġ", "Ġ")])
        context = " a  b"
        enc = encode(tok, context)
        outcome = make_consistent_target(context, enc, "a  ")
        assert outcome.method == ALREADY_CONSISTENT
        assert ids_to_pieces(tok, outcome.target_ids) == ["a"]
        assert (outcome.context_span.start, outcome.context_span.end) == (1, 2)

    def test_prefix_space_target_carries_no_edge_space_of_the_answer(self):
        tok = make_tokenizer([("Ġ", "a")])
        context = "x a b"
        enc = encode(tok, context)
        outcome = make_consistent_target(context, enc, "a ")
        assert outcome.method == SUBSEQUENCE_SEARCH
        assert ids_to_pieces(tok, outcome.target_ids) == ["Ġa"]
        assert (outcome.context_span.start, outcome.context_span.end) == (1, 2)

    def test_no_span_falls_back_to_prefixed_variant(self, corpus_tok):
        context = "The museum wing of the museum closed."
        enc = encode(corpus_tok, context)
        outcome = make_consistent_target(context, enc, "museum", None)
        assert outcome.method == SUBSEQUENCE_SEARCH
        assert token_bytes(corpus_tok, outcome.target_ids) == b" museum"

    def test_no_span_searches_each_variant_once(self, corpus_tok, monkeypatch):
        searched = []

        def logging_find(haystack, needle):
            searched.append(needle)
            return find_subsequence(haystack, needle)

        monkeypatch.setattr(consist, "find_subsequence", logging_find)
        context = "The hull was laid in 1912, they say."
        enc = encode(corpus_tok, context)
        outcome = make_consistent_target(context, enc, "912", None)
        assert outcome.method == UNRESOLVED
        assert searched == list(answer_variants(corpus_tok, "912"))

    def test_gold_span_beats_leftmost_occurrence(self, corpus_tok):
        context = "The bridge was old, but the bridge held."
        enc = encode(corpus_tok, context)
        second = context.index("bridge", context.index("bridge") + 1)
        span = CharSpan(second, second + len("bridge"))
        outcome = make_consistent_target(context, enc, "bridge", span)
        assert outcome.method == EXPANDED_SLICE
        start_byte = enc.bounds[outcome.context_span.start]
        assert start_byte == second - 1  # the fused leading space

    def test_ladder_finds_slice_whenever_one_exists(self):
        rng = random.Random(424242)
        drawn = Counter()
        for trial in range(1600):
            if trial % 4 == 0:
                tok = random_toy_tokenizer(rng, SPACE_UNITS)
            context = random_spaced_text(rng)
            enc = encode(tok, context)
            case = random_edge_answer(rng, context)
            if case is None:
                continue
            answer, span = case
            outcome = make_consistent_target(context, enc, answer, span)

            # oracle: enumerate every contiguous slice and look for a match
            slices = []
            n = len(enc.ids)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    try:
                        decoded = token_bytes(tok, enc.ids[i:j]).decode("utf-8")
                    except UnicodeDecodeError:
                        continue
                    if decoded.strip() == answer.strip():
                        slices.append((i, j))
            if slices:
                assert outcome.method != UNRESOLVED, (context, answer, span, tok.merges)
            if outcome.method != UNRESOLVED:
                span_found = outcome.context_span
                assert enc.ids[span_found.start : span_found.end] == outcome.target_ids
                decoded = token_bytes(tok, outcome.target_ids).decode("utf-8")
                assert decoded.strip() == answer.strip(), (context, answer, span, tok.merges)
                drawn["checked"] += 1
            drawn["edge whitespace"] += answer != answer.strip()
            if span is not None:
                covered = span.end - span.start
                drawn["span over trailing whitespace"] += covered > len(answer.rstrip())
            drawn["fused spaces"] += ("Ġ", "Ġ") in tok.merges
        # the oracle actually exercised repairs of every kind it draws
        assert min(drawn.values()) > 100, drawn

    @pytest.mark.parametrize(
        "context, answer, span, method, note, pieces, context_span, variant_calls",
        [
            # without a gold span: the two searches, then the fallback
            ("1912", "1912", None, ALREADY_CONSISTENT,
             "raw standalone ids found in context", ["19", "12"], (0, 2), 1),
            ("Year 1912", "1912", None, SUBSEQUENCE_SEARCH,
             "prefix-space variant found in context", ["Ġ1912"], (4, 5), 1),
            ("Year 1912", "912", None, UNRESOLVED,
             "no faithful context slice found; raw standalone ids kept", ["9", "12"], None, 1),
            # with a gold span: the three slice rungs, the two searches, the fallback
            ("1912", "1912", (0, 4), ALREADY_CONSISTENT,
             "raw standalone ids sit at the gold span", ["19", "12"], (0, 2), 1),
            # every rung sees the stripped answer "1912" at span 0:4
            ("1912 was the year", "1912 ", (0, 4), ALREADY_CONSISTENT,
             "raw standalone ids sit at the gold span", ["19", "12"], (0, 2), 1),
            # "!'" is one punctuation segment, but "'s" alone is a contraction and merges
            ("x!'s y", "'s", (2, 4), EXACT_SLICE,
             "token run covers the gold span exactly", ["'", "s"], (2, 4), 1),
            ("Year 1912", "1912", (5, 9), EXPANDED_SLICE,
             "minimal covering run matches modulo edge whitespace", ["Ġ1912"], (4, 5), 0),
            ("Year 1912 or 912", "912", (6, 9), SUBSEQUENCE_SEARCH,
             "prefix-space variant found in context", ["Ġ", "9", "12"], (8, 11), 1),
            ("Year 1912 or x912", "912", (6, 9), SUBSEQUENCE_SEARCH,
             "raw variant found in context", ["9", "12"], (10, 12), 1),
            ("Year 1912", "912", (6, 9), UNRESOLVED,
             "no faithful context slice found; raw standalone ids kept", ["9", "12"], None, 1),
            # the covering run starts inside "é", so it does not decode
            ("éa", "a", (1, 2), UNRESOLVED,
             "no faithful context slice found; raw standalone ids kept", ["a"], None, 1),
        ],
        ids=[
            "raw-found",
            "prefixed-found",
            "unresolved",
            "span-raw-at-span",
            "span-covers-trailing-space",
            "span-exact-slice",
            "span-expanded-slice",
            "span-prefixed-found",
            "span-raw-found",
            "span-unresolved",
            "span-cover-starts-mid-character",
        ],
    )
    def test_every_ladder_outcome(
        self, monkeypatch, context, answer, span, method, note, pieces, context_span, variant_calls
    ):
        # number_tok's merges plus one fusing the last byte of "é" with "a", and "'s"
        tok = make_tokenizer([*NUMBER_MERGES, (BYTE_TO_UNIT[0xA9], "a"), ("'", "s")])
        enc = encode(tok, context)
        gold_span = CharSpan(*span) if span is not None else None
        encoded = []
        variants = consist.answer_variants

        def counted_variants(tok, answer):
            encoded.append(answer)
            return variants(tok, answer)

        monkeypatch.setattr(consist, "answer_variants", counted_variants)
        outcome = make_consistent_target(context, enc, answer, gold_span)
        assert (outcome.method, outcome.note) == (method, note)
        # only the rungs that compare ids encode the answer, once
        assert len(encoded) == variant_calls
        assert ids_to_pieces(tok, outcome.target_ids) == pieces
        if context_span is None:
            assert outcome.context_span is None
        else:
            start, end = context_span
            assert (outcome.context_span.start, outcome.context_span.end) == context_span
            assert enc.ids[start:end] == outcome.target_ids


def repeated_qid_stream(tmp_path):
    """A read_dataset stream whose first two of three records hold qid ``q``."""
    qa = {"qid": "q", "question": "When?", "answers": ["1912"]}
    lines = [
        {"header": {}},
        {"context": "It opened in 1912.", "qas": [qa]},
        {"context": "It closed in 1912.", "qas": [qa]},
        {"context": "It reopened in 1913.", "qas": [{**qa, "qid": "r", "answers": ["1913"]}]},
    ]
    path = tmp_path / "repeated.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    _, stream = read_dataset(path)
    return stream


#: oracle contexts join these: words the fixture tokenizer fuses after a
#: space, digits, a contraction, and the kinds of gap SEGMENT_PATTERN splits at
ORACLE_WORDS = [
    "1912", "the", "treaty", "museum", "Fenwick", "'s", "bridge", "1854", "x", "é", "7.",
]
ORACLE_GAPS = [" ", " ", " ", "  ", "\u00a0", "\t", "\r\n", ", ", ""]


def oracle_dataset(rng):
    """1-4 records of 1-4 questions with 1-3 answers each: heads, tails and
    slices of the context, the whole context, and words that may be absent;
    some contexts repeat one or two words."""
    examples = []
    for r in range(rng.randint(1, 4)):
        words = rng.choices(ORACLE_WORDS, k=rng.randint(1, 8))
        if rng.random() < 0.3:
            words = words[: rng.randint(1, 2)] * rng.randint(2, 6)
        context = "".join(word + rng.choice(ORACLE_GAPS) for word in words)
        for q in range(rng.randint(1, 4)):
            answers = []
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(context))
                word = rng.choice(ORACLE_WORDS)
                slices = [context[: i + 1], context[i:], context[i : i + rng.randint(1, 8)]]
                slices.append(context)
                whole_words = [rng.choice(words), rng.choice(words), word, " " + word]
                answers.append(rng.choice(rng.choice([slices, whole_words])))
            examples.append(example(f"r{r}q{q}", context, answers[0], gold=answers))
    return examples


def report_row(raw, prefix_only, inconsistent):
    """The ``analyze`` report row for these verdict counts."""
    total = raw + prefix_only + inconsistent

    def pct(count):
        return round(100.0 * count / total, 4) if total else 0.0

    return {
        "consistent_raw": raw,
        "consistent_prefix_only": prefix_only,
        "inconsistent": inconsistent,
        "total": total,
        "pct_inconsistent_raw": pct(prefix_only + inconsistent),
        "pct_inconsistent_after_prefix": pct(inconsistent),
    }


def full_context_tally(tok, examples, *, sample_size=None, seed=42, answer_policy="first"):
    """``analyze_dataset``'s row, from every context encoded in full;
    a question without a non-blank answer is skipped."""
    if sample_size is not None:
        examples = _reservoir_sample(examples, sample_size, seed)
    verdicts = (CONSISTENT_RAW, CONSISTENT_PREFIX_SPACE, INCONSISTENT)
    counts = Counter()
    encodings = {}
    for ex in examples:
        answers = ex.answer_texts()
        if answer_policy == "first":
            answers = answers[:1]
        if not answers:
            continue
        if ex.context not in encodings:
            encodings[ex.context] = encode(tok, ex.context)
        enc = encodings[ex.context]
        statuses = [check_consistency(enc, answer).status for answer in answers]
        counts[min(statuses, key=verdicts.index)] += 1
    return report_row(*(counts[status] for status in verdicts))


def stretch_length(context, answers):
    """The length from the split point at or before the character ahead of
    the first occurrence of any answer to the one at or after the end of
    the last occurrence; 0 when none occurs."""
    found = [(context.find(a), context.rfind(a) + len(a)) for a in answers if a in context]
    if not found:
        return 0
    points = split_points(context)
    first = max(min(at for at, _ in found) - 1, 0)
    last = max(end for _, end in found)
    return min(p for p in points if p >= last) - max(p for p in points if p <= first)


class TestAnalyzeDataset:
    def test_corpus_totals_match_hand_tally(self, corpus_tok, corpus_examples):
        stats = analyze_dataset(corpus_tok, corpus_examples)
        assert stats["total"] == EXPECTED_TOTALS["total"]
        assert stats["consistent_raw"] == EXPECTED_TOTALS["consistent_raw"]
        assert stats["consistent_prefix_only"] == EXPECTED_TOTALS["consistent_prefix_only"]
        assert stats["inconsistent"] == EXPECTED_TOTALS["inconsistent"]
        assert stats["pct_inconsistent_raw"] == pytest.approx(78.0)
        assert stats["pct_inconsistent_after_prefix"] == pytest.approx(10.0)

    def test_monotonicity(self, corpus_tok, corpus_examples):
        stats = analyze_dataset(corpus_tok, corpus_examples)
        assert stats["pct_inconsistent_after_prefix"] <= stats["pct_inconsistent_raw"]

    def test_empty_stream(self, corpus_tok):
        stats = analyze_dataset(corpus_tok, [])
        assert stats["total"] == 0
        assert stats["pct_inconsistent_raw"] == 0.0
        assert stats["pct_inconsistent_after_prefix"] == 0.0

    def test_sampling_is_deterministic_for_fixed_seed(self, corpus_path):
        def run(seed):
            _, stream = read_dataset(corpus_path, on_error=lambda _m: None)
            return [example.qid for example in _reservoir_sample(stream, 20, seed)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # different seed picks a different sample

    def test_sample_keeps_stream_order_so_each_record_is_one_run(self, corpus_tok, monkeypatch):
        # a sample out of stream order splits a record into several runs,
        # and each run encodes the record's context again
        stream = []
        for r in range(60):
            context = f"Record {r} names the bridge and the year 1912."
            stream += [example(f"r{r}q{q}", context, "1912") for q in range(4)]
        positions = [stream.index(ex) for ex in _reservoir_sample(stream, 100, 3)]
        assert len(positions) == 100
        assert positions == sorted(positions)
        log = record_encodes(monkeypatch)
        stats = analyze_dataset(corpus_tok, stream, sample_size=100, seed=3)
        assert stats["total"] == 100
        run_contexts = [id(context) for context, _ in log]
        assert len(run_contexts) == len(set(run_contexts))

    def test_answer_policy_any_takes_best_verdict(self, corpus_tok):
        ex = example(
            "q1",
            "Work resumed in 1912 on the bridge.",
            "1912",
            gold=["missing words", "1912"],
        )
        first = analyze_dataset(corpus_tok, [ex], answer_policy="first")
        any_ = analyze_dataset(corpus_tok, [ex], answer_policy="any")
        assert first["inconsistent"] == 1
        assert any_["consistent_prefix_only"] == 1

    def test_answer_policy_any_judges_each_distinct_answer_once(self, number_tok, monkeypatch):
        checked = []
        check = consist.check_consistency

        def counted_check(enc, answer):
            checked.append(answer)
            return check(enc, answer)

        monkeypatch.setattr(consist, "check_consistency", counted_check)
        context = "The ship was finished in 1912."
        ex = example("q1", context, "1912", gold=["1912", "1912", "1912"])
        stats = analyze_dataset(number_tok, [ex], answer_policy="any")
        assert stats["consistent_prefix_only"] == 1
        assert checked == ["1912"]

    def test_each_record_encodes_disjoint_split_point_pieces_of_its_context(
        self, corpus_tok, multi_qa_path, monkeypatch
    ):
        log = record_encodes(monkeypatch)
        _, stream = read_dataset(multi_qa_path)
        stats = analyze_dataset(corpus_tok, stream)
        assert stats["total"] == 4
        # each answer from the space before it to the split point after it
        assert log == [
            (MULTI_QA_RECORDS[0]["context"], [" ship", " 1912"]),
            (MULTI_QA_RECORDS[1]["context"], []),
            (MULTI_QA_RECORDS[2]["context"], [" museum", " treaty."]),
        ]
        rng = random.Random(4)
        for _ in range(300):
            del log[:]
            policy = rng.choice(["first", "any"])
            examples = oracle_dataset(rng)
            analyze_dataset(corpus_tok, examples, answer_policy=policy)
            judged = [
                {a for ex in record for a in ex.answer_texts()[: 1 if policy == "first" else None]}
                for _, record in groupby(examples, key=lambda ex: id(ex.context))
            ]
            assert len(log) == len(judged)
            for (context, texts), answers in zip(log, judged):
                points = split_points(context)
                end = -1
                for text in texts:
                    # the leftmost placement past the last piece leaves the
                    # most room for the pieces after it
                    end = next(
                        (
                            p + len(text)
                            for p in points
                            if p > end and p + len(text) in points and context.startswith(text, p)
                        ),
                        None,
                    )
                    assert end is not None, (context, texts)
                assert sum(map(len, texts)) <= stretch_length(context, answers), (context, texts)

    @pytest.mark.parametrize("answer_policy", ["first", "any"])
    def test_record_whose_answers_are_absent_encodes_nothing(
        self, corpus_tok, monkeypatch, answer_policy
    ):
        log = record_encodes(monkeypatch)
        context = "The ship was finished in 1912 after delays."
        examples = [
            example("q1", context, "1913", gold=["1913", "bridge"]),
            example("q2", context, "ships"),
        ]
        stats = analyze_dataset(corpus_tok, examples, answer_policy=answer_policy)
        assert stats["inconsistent"] == 2
        assert log == [(context, [])]

    def test_no_match_straddles_two_pieces(self, corpus_tok):
        # "foo" and " bar" are encoded as two pieces, and joined without a
        # separator their ids would spell the absent "foo bar". The second
        # tokenizer gives "foo" the largest id load_tokenizer accepts, next
        # to the separator.
        merges = [("f", "o"), ("fo", "o")]
        vocab = build_vocab(merges)
        vocab["foo"] = 0x10FFFE
        top_tok = load_tokenizer_texts(json.dumps(vocab), merges_text(merges))
        assert encode(top_tok, "foo").ids == (0x10FFFE,)
        context = "foo x bar"
        examples = [example(f"q{i}", context, a) for i, a in enumerate(["foo", "bar", "foo bar"])]
        for tok in (corpus_tok, top_tok):
            raw, _ = answer_variants(tok, "foo bar")
            assert raw == encode(tok, "foo").ids + encode(tok, " bar").ids
            stats = analyze_dataset(tok, examples)
            assert stats["inconsistent"] == 1
            assert stats == full_context_tally(tok, examples)

    @pytest.mark.parametrize("answer_policy", ["first", "any"])
    def test_counts_equal_a_tally_over_whole_contexts(self, corpus_tok, answer_policy):
        rng = random.Random(f"oracle-{answer_policy}")
        total = Counter()
        blank_only = 0
        for trial in range(400):
            examples = oracle_dataset(rng)
            blank_only += sum(not ex.answer_texts() for ex in examples)
            sample_size = rng.choice([None, None, 1, 3])
            stats = analyze_dataset(
                corpus_tok, examples, sample_size=sample_size, seed=trial,
                answer_policy=answer_policy,
            )
            assert stats == full_context_tally(
                corpus_tok, examples, sample_size=sample_size, seed=trial,
                answer_policy=answer_policy,
            ), examples
            for key in ("consistent_raw", "consistent_prefix_only", "inconsistent"):
                total[key] += stats[key]
        # every verdict occurs often enough to tell, and whitespace-only
        # slices leave questions with no answer to judge
        assert min(total.values()) >= 40, total
        assert blank_only >= 10, blank_only

    def test_unknown_policy_rejected(self, corpus_tok):
        with pytest.raises(ValueError, match="policy"):
            analyze_dataset(corpus_tok, [], answer_policy="all")

    @pytest.mark.parametrize("sample_size", [None, 1])
    def test_repeated_qid_raises(self, corpus_tok, tmp_path, sample_size):
        stream = repeated_qid_stream(tmp_path)
        with pytest.raises(DatasetError, match=r"duplicate qid 'q' in dataset \(question 2 "):
            analyze_dataset(corpus_tok, stream, sample_size=sample_size)
        assert next(stream, None) is None  # closed before its third question


class TestAnalyzeScaling:
    def test_400_questions_over_one_long_record_well_under_a_second(self, number_tok):
        # the stretch is encoded once for the record and searched per
        # question; a Python step per occurrence would cost O(q * n) here
        context = "wörd 1912 " * 17_000
        expected = {
            "wörd": CONSISTENT_RAW,
            "1912": CONSISTENT_PREFIX_SPACE,
            "1913": INCONSISTENT,
            "dröw": INCONSISTENT,
        }
        answers = random.Random(5).choices(list(expected), k=400)
        examples = [example(f"q{i}", context, answer) for i, answer in enumerate(answers)]
        start = time.perf_counter()
        stats = analyze_dataset(number_tok, examples)
        elapsed = time.perf_counter() - start
        tally = Counter(expected[answer] for answer in answers)
        assert stats == report_row(
            tally[CONSISTENT_RAW], tally[CONSISTENT_PREFIX_SPACE], tally[INCONSISTENT]
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_stretch_grown_by_each_question_stays_linear(self, number_tok, order):
        # each answer occurs once, past the ones before it, so the record's
        # stretch spans nearly the whole context and must be encoded once:
        # rebuilding it per question costs O(q * n)
        context = " ".join(f"w{i:05d}" for i in range(20_000))
        answers = [f"w{i:05d}" for i in range(0, 20_000, 20)][::order]
        examples = [example(f"q{i}", context, answer) for i, answer in enumerate(answers)]
        start = time.perf_counter()
        stats = analyze_dataset(number_tok, examples)
        elapsed = time.perf_counter() - start
        assert stats == report_row(len(answers), 0, 0)
        assert elapsed < 2.0

    def test_answers_recurring_in_every_word_well_under_a_second(self, number_tok):
        # 400 answers occur 3,000 times each: a window per occurrence would
        # take 1.2 million Python steps, so the walk stops at a budget linear
        # in the record and covers each answer's remaining occurrences at once
        word = "abcdefghijklmnopqrstuvwxyzABCD"
        context = " ".join([word] * 3_000)
        substrings = sorted({word[i:j] for i in range(30) for j in range(i + 1, 31)})
        answers = random.Random(7).sample(substrings, 400)
        examples = [example(f"q{i}", context, answer) for i, answer in enumerate(answers)]
        start = time.perf_counter()
        stats = analyze_dataset(number_tok, examples)
        elapsed = time.perf_counter() - start
        assert stats == full_context_tally(number_tok, examples)
        assert elapsed < 1.0

    def test_answers_inside_a_long_letter_run_well_under_a_second(self, number_tok):
        rng = random.Random(6)
        letters = "".join(rng.choice("abcdefgh") for _ in range(16_000))
        context = "one 1912 " + letters + " two"
        answers = [letters[i : i + 5] for i in (rng.randrange(16_000) for _ in range(400))]
        examples = [example(f"q{i}", context, answer) for i, answer in enumerate(answers)]
        start = time.perf_counter()
        stats = analyze_dataset(number_tok, examples)
        elapsed = time.perf_counter() - start
        assert stats == full_context_tally(number_tok, examples)
        assert elapsed < 1.0


class TestFixDataset:
    def fix_corpus(self, corpus_tok, corpus_path, tmp_path):
        issues = []
        header, stream = read_dataset(corpus_path, on_error=issues.append)
        out_path = tmp_path / "fixed.jsonl"
        summary = fix_dataset(corpus_tok, stream, out_path, header=header)
        return summary, out_path

    def test_summary_counts_match_hand_tally(self, corpus_tok, corpus_path, tmp_path):
        summary, _ = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        assert summary["total"] == EXPECTED_TOTALS["total"]
        assert summary["counts"] == EXPECTED_METHODS
        assert summary["written"] == EXPECTED_TOTALS["total"]
        assert summary["skipped_no_answer"] == 0
        assert summary["skipped_span_mismatch"] == 0
        method_sum = sum(summary["counts"].values())
        assert method_sum + summary["skipped_no_answer"] + summary["skipped_span_mismatch"] == summary["total"]

    def test_non_unresolved_targets_are_context_slices(
        self, corpus_tok, corpus_path, tmp_path
    ):
        _, out_path = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        with open(out_path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                record = json.loads(line)
                context_enc = encode(corpus_tok, record["context"])
                context_ids = context_enc.ids
                for qa_obj in record["qas"]:
                    assert list(qa_obj) == FIXED_QA_KEYS
                    target = tuple(qa_obj["target_token_ids"])
                    if qa_obj["fix_method"] == UNRESOLVED:
                        assert qa_obj["context_token_span"] is None
                        continue
                    where = find_subsequence(context_enc.id_string, target)
                    assert where is not None, qa_obj["qid"]
                    span = qa_obj["context_token_span"]
                    assert context_ids[span[0] : span[1]] == target
                    decoded = token_bytes(corpus_tok, target).decode("utf-8")
                    answer = qa_obj["detected_answers"][0]["text"] if qa_obj["detected_answers"] else qa_obj["answers"][0]
                    assert decoded.strip() == answer.strip()

    def test_rechecking_fixed_targets_finds_no_inconsistency(
        self, corpus_tok, corpus_path, tmp_path
    ):
        _, out_path = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        resolved = inconsistent = 0
        with open(out_path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                record = json.loads(line)
                context_string = encode(corpus_tok, record["context"]).id_string
                for qa_obj in record["qas"]:
                    if qa_obj["fix_method"] == UNRESOLVED:
                        continue
                    resolved += 1
                    if find_subsequence(context_string, tuple(qa_obj["target_token_ids"])) is None:
                        inconsistent += 1
        assert resolved == EXPECTED_TOTALS["total"] - EXPECTED_METHODS["unresolved"]
        assert inconsistent == 0

    def test_fixed_file_reads_back_identically(self, corpus_tok, corpus_path, tmp_path):
        _, stream = read_dataset(corpus_path, on_error=lambda _m: None)
        originals = list(stream)
        _, out_path = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        _, stream = read_dataset(out_path, on_error=lambda _m: None)
        assert list(stream) == originals

    def test_per_method_expectations_per_record(
        self, corpus_tok, corpus_path, tmp_path, corpus_expectations
    ):
        _, out_path = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        with open(out_path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                record = json.loads(line)
                for qa_obj in record["qas"]:
                    expected = corpus_expectations[qa_obj["qid"]]["method"]
                    assert qa_obj["fix_method"] == expected, qa_obj["qid"]

    def test_span_mismatch_records_are_counted_and_skipped(self, corpus_tok, tmp_path):
        # bypass the reader: hand the fixer a span that lies about its text
        bad = ExtractiveExample(
            qid="bad",
            context="The anchor held.",
            question="?",
            gold_answers=("anchor",),
            detected=(("anchor", (CharSpan(0, 3),)),),
        )
        ok = example("ok", "The anchor held.", "anchor", CharSpan(4, 10))
        summary = fix_dataset(corpus_tok, [bad, ok], tmp_path / "fixed.jsonl")
        assert summary["skipped_span_mismatch"] == 1
        assert summary["written"] == 1
        assert summary["total"] == 2

    def test_example_without_any_answer_is_skipped(self, corpus_tok, tmp_path):
        empty = ExtractiveExample(qid="none", context="x", question="?")
        summary = fix_dataset(corpus_tok, [empty], tmp_path / "fixed.jsonl")
        assert summary["skipped_no_answer"] == 1
        assert summary["written"] == 0

    def test_each_record_context_is_encoded_once(
        self, corpus_tok, multi_qa_path, monkeypatch, tmp_path
    ):
        log = record_encodes(monkeypatch)
        _, stream = read_dataset(multi_qa_path)
        summary = fix_dataset(corpus_tok, stream, tmp_path / "fixed.jsonl")
        assert summary["written"] == 4
        # the record whose only question has no answer is never encoded
        contexts = [record["context"] for record in MULTI_QA_RECORDS]
        assert log == [(contexts[0], [contexts[0]]), (contexts[1], []), (contexts[2], [contexts[2]])]

    def test_records_with_equal_context_text_stay_apart(self, corpus_tok, tmp_path):
        record = MULTI_QA_RECORDS[2]
        # the same context text again, under fresh qids (a repeated qid is an error)
        again = {**record, "qas": [{**qa, "qid": qa["qid"] + "b"} for qa in record["qas"]]}
        path = tmp_path / "twice.jsonl"
        lines = [{"header": {}}, record, again]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        _, stream = read_dataset(path)
        out_path = tmp_path / "fixed.jsonl"
        summary = fix_dataset(corpus_tok, stream, out_path)
        assert summary["written"] == 4
        written = [json.loads(line) for line in out_path.read_text().splitlines()[1:]]
        assert [r["context"] for r in written] == [record["context"]] * 2
        assert [[qa["qid"] for qa in r["qas"]] for r in written] == [["m5", "m6"], ["m5b", "m6b"]]

    def test_memory_holds_one_record(self, corpus_tok, tmp_path):
        sentence = "The ship was finished in 1912 after delays. "
        out_path = tmp_path / "fixed.jsonl"

        def size_and_peak(repeats):
            qa = {"question": "When?", "answers": ["1912"],
                  "detected_answers": [{"text": "1912", "char_spans": [[25, 28]]}]}
            lines = [{"header": {}}]
            lines += [
                {"context": sentence * repeats, "qas": [{"qid": f"q{i}", **qa}]}
                for i in range(2_000)
            ]
            path = tmp_path / f"repeats{repeats}.jsonl"
            path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
            fix_dataset(corpus_tok, read_dataset(path)[1], out_path)  # warm the segment memo
            _, stream = read_dataset(path)
            tracemalloc.start()
            try:
                summary = fix_dataset(corpus_tok, stream, out_path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert summary["written"] == 2_000
            return path.stat().st_size, peak

        # the same qids with contexts 10x longer: what fix holds grows by
        # about one record, far less than the file
        short_size, short_peak = size_and_peak(1)
        long_size, long_peak = size_and_peak(10)
        assert long_size - short_size > 700_000
        assert long_peak - short_peak < (long_size - short_size) / 10

    def test_repeated_qid_raises(self, corpus_tok, tmp_path):
        stream = repeated_qid_stream(tmp_path)
        out_path = tmp_path / "fixed.jsonl"
        with pytest.raises(DatasetError, match=r"duplicate qid 'q' in dataset \(question 2 "):
            fix_dataset(corpus_tok, stream, out_path)
        assert next(stream, None) is None  # closed before its third question
        assert sorted(p.name for p in tmp_path.iterdir()) == ["repeated.jsonl"]
