import io
import json
import random

import pytest

from tokfix import consist
from tokfix.align import CharSpan, find_subsequence
from tokfix.bpe import decode_bytes, encode, ids_to_pieces
from tokfix.consist import (
    ALREADY_CONSISTENT,
    CONSISTENT_PREFIX_SPACE,
    CONSISTENT_RAW,
    EXPANDED_SLICE,
    INCONSISTENT,
    SUBSEQUENCE_SEARCH,
    UNRESOLVED,
    _reservoir_sample,
    analyze_dataset,
    answer_variants,
    check_consistency,
    fix_dataset,
    make_consistent_target,
)
from tokfix.mrqa import DatasetError, ExtractiveExample, SpanMismatchError, read_dataset

from gen_corpus import EXPECTED_METHODS, EXPECTED_TOTALS
from helpers import MULTI_QA_RECORDS, naive_find, random_toy_tokenizer


def example(qid, context, answer, span=None, gold=None):
    detected = ((answer, (span,) if span else ()),) if answer else ()
    return ExtractiveExample(
        qid=qid,
        context=context,
        question="?",
        gold_answers=tuple(gold) if gold is not None else ((answer,) if answer else ()),
        detected=detected,
    )


def record_context_encodes(monkeypatch):
    """Rebind ``consist.encode`` to log every encode of a record context."""
    contexts = {record["context"] for record in MULTI_QA_RECORDS}
    encoded = []
    original = consist.encode

    def logging_encode(tok, text):
        if text in contexts:
            encoded.append(text)
        return original(tok, text)

    monkeypatch.setattr(consist, "encode", logging_encode)
    return encoded


#: MULTI_QA_RECORDS contexts with an answerable question, each to be encoded
#: once; the record whose only question has no answer is never encoded
ANSWERABLE_CONTEXTS = [MULTI_QA_RECORDS[0]["context"], MULTI_QA_RECORDS[2]["context"]]


class TestAnswerVariants:
    def test_number_variants(self, number_tok):
        raw, prefixed = answer_variants(number_tok, "1912")
        assert ids_to_pieces(number_tok, raw) == ["19", "12"]
        assert ids_to_pieces(number_tok, prefixed) == ["Ġ1912"]

    def test_empty_answer_rejected(self, number_tok):
        with pytest.raises(ValueError, match="non-empty"):
            answer_variants(number_tok, "")

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
        verdict = check_consistency(number_tok, enc, "1912")
        assert verdict.status == CONSISTENT_PREFIX_SPACE
        assert verdict.location is not None
        assert ids_to_pieces(number_tok, enc.ids[verdict.location.start : verdict.location.end]) == ["Ġ1912"]

    def test_context_equal_to_answer_is_raw_consistent(self, number_tok):
        enc = encode(number_tok, "1912")
        verdict = check_consistency(number_tok, enc, "1912")
        assert verdict.status == CONSISTENT_RAW
        assert verdict.location.start == 0

    def test_absent_answer_is_inconsistent(self, number_tok):
        enc = encode(number_tok, "nothing numeric here")
        verdict = check_consistency(number_tok, enc, "1912")
        assert verdict.status == INCONSISTENT
        assert verdict.location is None

    def test_matches_brute_force_checker_on_corpus(
        self, corpus_tok, corpus_examples, corpus_expectations
    ):
        for ex in corpus_examples:
            answer = ex.gold_answers[0]
            enc = encode(corpus_tok, ex.context)
            verdict = check_consistency(corpus_tok, enc, answer)
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


class TestMakeConsistentTarget:
    def test_space_fused_number_repairs_to_single_token(self, number_tok):
        context = "The ship was finished in 1912 after delays."
        enc = encode(number_tok, context)
        span = CharSpan(25, 29)
        outcome = make_consistent_target(number_tok, context, enc, "1912", span)
        assert outcome.method == EXPANDED_SLICE
        assert ids_to_pieces(number_tok, outcome.target_ids) == ["Ġ1912"]
        assert decode_bytes(number_tok, outcome.target_ids) == b" 1912"
        assert enc.ids[outcome.context_span.start : outcome.context_span.end] == outcome.target_ids

    def test_answer_equal_to_context(self, number_tok):
        context = "1912"
        enc = encode(number_tok, context)
        outcome = make_consistent_target(
            number_tok, context, enc, "1912", CharSpan(0, 4)
        )
        assert outcome.method == ALREADY_CONSISTENT
        assert outcome.context_span.start == 0
        assert outcome.context_span.end == len(enc.ids)

    def test_sub_token_answer_is_unresolved(self, corpus_tok):
        context = "The hull was laid in 1912, they say."
        enc = encode(corpus_tok, context)
        start = context.index("912")
        span = CharSpan(start, start + 3)
        outcome = make_consistent_target(corpus_tok, context, enc, "912", span)
        assert outcome.method == UNRESOLVED
        assert outcome.context_span is None
        assert outcome.target_ids == encode(corpus_tok, "912").ids

    def test_gold_span_mismatch_raises(self, number_tok):
        context = "abc def"
        enc = encode(number_tok, context)
        with pytest.raises(SpanMismatchError, match="points at"):
            make_consistent_target(
                number_tok, context, enc, "xyz", CharSpan(0, 3)
            )

    def test_no_span_searches_prefixed_variant_first(self, corpus_tok):
        context = "The museum wing of the museum closed."
        enc = encode(corpus_tok, context)
        outcome = make_consistent_target(corpus_tok, context, enc, "museum", None)
        assert outcome.method == SUBSEQUENCE_SEARCH
        assert decode_bytes(corpus_tok, outcome.target_ids) == b" museum"

    def test_gold_span_beats_leftmost_occurrence(self, corpus_tok):
        context = "The bridge was old, but the bridge held."
        enc = encode(corpus_tok, context)
        second = context.index("bridge", context.index("bridge") + 1)
        span = CharSpan(second, second + len("bridge"))
        outcome = make_consistent_target(corpus_tok, context, enc, "bridge", span)
        assert outcome.method == EXPANDED_SLICE
        start_byte = enc.offsets[outcome.context_span.start][0]
        assert start_byte == second - 1  # the fused leading space

    def test_ladder_finds_slice_whenever_one_exists(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(60):
            tok = random_toy_tokenizer(rng)
            words = [
                "".join(rng.choice("abc") for _ in range(rng.randrange(1, 5)))
                for _ in range(rng.randrange(2, 6))
            ]
            context = " ".join(words)
            enc = encode(tok, context)
            answer = rng.choice(words)
            occurrence = context.index(answer)
            with_span = rng.random() < 0.7
            span = (
                CharSpan(occurrence, occurrence + len(answer))
                if with_span
                else None
            )
            outcome = make_consistent_target(tok, context, enc, answer, span)

            # oracle: enumerate every contiguous slice and look for a match
            slices = []
            n = len(enc.ids)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    try:
                        decoded = decode_bytes(tok, enc.ids[i:j]).decode("utf-8")
                    except UnicodeDecodeError:
                        continue
                    if decoded == answer or decoded.strip() == answer:
                        slices.append((i, j))
            if slices:
                assert outcome.method != UNRESOLVED, (context, answer, tok.merges)
            if outcome.method != UNRESOLVED:
                span_found = outcome.context_span
                assert enc.ids[span_found.start : span_found.end] == outcome.target_ids
                decoded = decode_bytes(tok, outcome.target_ids).decode("utf-8")
                assert decoded == answer or decoded.strip() == answer
                checked += 1
        assert checked > 30  # the oracle actually exercised repairs


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


class TestAnalyzeDataset:
    def test_corpus_totals_match_hand_tally(self, corpus_tok, corpus_examples):
        stats = analyze_dataset(corpus_tok, corpus_examples)
        assert stats.total == EXPECTED_TOTALS["total"]
        assert stats.consistent_raw == EXPECTED_TOTALS["consistent_raw"]
        assert stats.consistent_prefix_only == EXPECTED_TOTALS["consistent_prefix_only"]
        assert stats.inconsistent == EXPECTED_TOTALS["inconsistent"]
        assert stats.pct_inconsistent_raw == pytest.approx(78.0)
        assert stats.pct_inconsistent_after_prefix == pytest.approx(10.0)

    def test_monotonicity(self, corpus_tok, corpus_examples):
        stats = analyze_dataset(corpus_tok, corpus_examples)
        assert stats.pct_inconsistent_after_prefix <= stats.pct_inconsistent_raw

    def test_empty_stream(self, corpus_tok):
        stats = analyze_dataset(corpus_tok, [])
        assert stats.total == 0
        assert stats.pct_inconsistent_raw == 0.0
        assert stats.pct_inconsistent_after_prefix == 0.0

    def test_sampling_is_deterministic_for_fixed_seed(self, corpus_path):
        def run(seed):
            _, stream = read_dataset(corpus_path, on_error=lambda _m: None)
            return [example.qid for example in _reservoir_sample(stream, 20, seed)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # different seed picks a different sample

    def test_answer_policy_any_takes_best_verdict(self, corpus_tok):
        ex = example(
            "q1",
            "Work resumed in 1912 on the bridge.",
            "1912",
            gold=["missing words", "1912"],
        )
        first = analyze_dataset(corpus_tok, [ex], answer_policy="first")
        any_ = analyze_dataset(corpus_tok, [ex], answer_policy="any")
        assert first.inconsistent == 1
        assert any_.consistent_prefix_only == 1

    def test_each_record_context_is_encoded_once(
        self, corpus_tok, multi_qa_path, monkeypatch
    ):
        encoded = record_context_encodes(monkeypatch)
        _, stream = read_dataset(multi_qa_path)
        stats = analyze_dataset(corpus_tok, stream)
        assert stats.total == 4
        assert encoded == ANSWERABLE_CONTEXTS

    def test_unknown_policy_rejected(self, corpus_tok):
        with pytest.raises(ValueError, match="policy"):
            analyze_dataset(corpus_tok, [], answer_policy="all")

    @pytest.mark.parametrize("sample_size", [None, 1])
    def test_repeated_qid_raises(self, corpus_tok, tmp_path, sample_size):
        stream = repeated_qid_stream(tmp_path)
        with pytest.raises(DatasetError, match=r"duplicate qid 'q' in dataset \(question 2 "):
            analyze_dataset(corpus_tok, stream, sample_size=sample_size)
        assert next(stream, None) is None  # closed before its third question


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
                context_ids = encode(corpus_tok, record["context"]).ids
                for qa_obj in record["qas"]:
                    target = tuple(qa_obj["target_token_ids"])
                    if qa_obj["fix_method"] == UNRESOLVED:
                        assert qa_obj["context_token_span"] is None
                        continue
                    where = find_subsequence(context_ids, target)
                    assert where is not None, qa_obj["qid"]
                    span = qa_obj["context_token_span"]
                    assert context_ids[span[0] : span[1]] == target
                    decoded = decode_bytes(corpus_tok, target).decode("utf-8")
                    answer = qa_obj["detected_answers"][0]["text"] if qa_obj["detected_answers"] else qa_obj["answers"][0]
                    assert decoded == answer or decoded.strip() == answer

    def test_rechecking_fixed_targets_finds_no_inconsistency(
        self, corpus_tok, corpus_path, tmp_path
    ):
        _, out_path = self.fix_corpus(corpus_tok, corpus_path, tmp_path)
        resolved = inconsistent = 0
        with open(out_path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                record = json.loads(line)
                context_ids = encode(corpus_tok, record["context"]).ids
                for qa_obj in record["qas"]:
                    if qa_obj["fix_method"] == UNRESOLVED:
                        continue
                    resolved += 1
                    if find_subsequence(context_ids, tuple(qa_obj["target_token_ids"])) is None:
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
        out = io.StringIO()
        summary = fix_dataset(corpus_tok, [bad, ok], out)
        assert summary["skipped_span_mismatch"] == 1
        assert summary["written"] == 1
        assert summary["total"] == 2

    def test_example_without_any_answer_is_skipped(self, corpus_tok):
        empty = ExtractiveExample(qid="none", context="x", question="?")
        out = io.StringIO()
        summary = fix_dataset(corpus_tok, [empty], out)
        assert summary["skipped_no_answer"] == 1
        assert summary["written"] == 0

    def test_each_record_context_is_encoded_once(
        self, corpus_tok, multi_qa_path, monkeypatch
    ):
        encoded = record_context_encodes(monkeypatch)
        _, stream = read_dataset(multi_qa_path)
        summary = fix_dataset(corpus_tok, stream, io.StringIO())
        assert summary["written"] == 4
        assert encoded == ANSWERABLE_CONTEXTS

    def test_records_with_equal_context_text_stay_apart(self, corpus_tok, tmp_path):
        record = MULTI_QA_RECORDS[2]
        # the same context text again, under fresh qids (a repeated qid is an error)
        again = {**record, "qas": [{**qa, "qid": qa["qid"] + "b"} for qa in record["qas"]]}
        path = tmp_path / "twice.jsonl"
        lines = [{"header": {}}, record, again]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        _, stream = read_dataset(path)
        out = io.StringIO()
        summary = fix_dataset(corpus_tok, stream, out)
        assert summary["written"] == 4
        written = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
        assert [r["context"] for r in written] == [record["context"]] * 2
        assert [[qa["qid"] for qa in r["qas"]] for r in written] == [["m5", "m6"], ["m5b", "m6b"]]

    def test_repeated_qid_raises(self, corpus_tok, tmp_path):
        stream = repeated_qid_stream(tmp_path)
        out_path = tmp_path / "fixed.jsonl"
        with pytest.raises(DatasetError, match=r"duplicate qid 'q' in dataset \(question 2 "):
            fix_dataset(corpus_tok, stream, out_path)
        assert next(stream, None) is None  # closed before its third question
        assert sorted(p.name for p in tmp_path.iterdir()) == ["repeated.jsonl"]
