import random
import time

import pytest

from tokfix.bpe import TokenSpan, encode, find_subsequence, token_slice_for_span
from tokfix.consist import codepoint_span_to_byte_span
from tokfix.mrqa import CharSpan

from helpers import (
    as_id_string,
    as_oracle_result,
    naive_find,
    random_toy_tokenizer,
    slice_oracle,
)


def covered_bytes(text, enc, span):
    """The bytes of text under a token span, read through the offsets."""
    return text.encode("utf-8")[enc.offsets[span.start][0] : enc.offsets[span.end - 1][1]]


class TestCharSpanConversion:
    def test_ascii_identity(self):
        assert codepoint_span_to_byte_span("abc", CharSpan(0, 3)) == (0, 3)

    def test_inclusive_end_with_multibyte_codepoint(self):
        # "é" occupies two UTF-8 bytes, so codepoints [1, 3) span bytes [1, 4)
        span = CharSpan(1, 3)
        assert codepoint_span_to_byte_span("héllo", span) == (1, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            codepoint_span_to_byte_span("abc", CharSpan(0, 9))

    def test_inclusive_empty_span(self):
        assert codepoint_span_to_byte_span("abc", CharSpan(2, 2)) == (2, 2)

    def test_every_start_of_a_mixed_width_text_matches_its_prefix_encoding(self):
        # 1- to 4-byte code points over more than two 1,024-code-point checkpoints
        rng = random.Random(5113)
        text = "".join(rng.choice(["a", " ", "ö", "€", "🎉"]) for _ in range(2 * 1024 + 700))
        for start in range(len(text) + 1):
            end = min(len(text), start + 3)
            byte_start = len(text[:start].encode("utf-8"))
            byte_end = len(text[:end].encode("utf-8"))
            assert codepoint_span_to_byte_span(text, CharSpan(start, end)) == (
                byte_start,
                byte_end,
            ), start


class TestCharSpanConversionScaling:
    def test_2000_spans_over_a_1m_character_context_well_under_a_second(self):
        # one record with many qas converts each gold span against the
        # same long context; encoding every prefix costs O(q * n)
        text = "wörd " * 200_000
        rng = random.Random(77)
        starts = [rng.randrange(len(text) - 4) for _ in range(2000)]
        begin = time.perf_counter()
        for start in starts:
            codepoint_span_to_byte_span(text, CharSpan(start, start + 4))
        elapsed = time.perf_counter() - begin
        assert codepoint_span_to_byte_span(text, CharSpan(5, 9)) == (6, 11)
        assert elapsed < 0.5


class TestTokenSliceForSpan:
    def test_full_source_is_exact(self, number_tok):
        enc = encode(number_tok, "1912")
        span, exact = token_slice_for_span(enc, (0, 4))
        assert exact
        assert span == TokenSpan(0, len(enc.ids))
        assert covered_bytes("1912", enc, span) == b"1912"

    def test_answer_inside_space_fused_token_expands(self, number_tok):
        enc = encode(number_tok, " 1912")
        span, exact = token_slice_for_span(enc, (1, 5))  # the bytes of "1912"
        assert not exact
        assert span == TokenSpan(0, 1)
        assert covered_bytes(" 1912", enc, span) == b" 1912"

    def test_empty_encoding_fails(self, number_tok):
        enc = encode(number_tok, "")
        assert token_slice_for_span(enc, (0, 0)) is None

    def test_empty_span_fails(self, number_tok):
        enc = encode(number_tok, "1912")
        assert token_slice_for_span(enc, (2, 2)) is None

    def test_out_of_range_span(self, number_tok):
        enc = encode(number_tok, "1912")
        with pytest.raises(ValueError, match="out of range"):
            token_slice_for_span(enc, (0, 99))

    def test_exact_result_decodes_requested_bytes(self, corpus_tok):
        text = "The ledger listed 1912, 1854, and more."
        enc = encode(corpus_tok, text)
        raw = text.encode("utf-8")
        for start, end in [(0, 3), (0, len(raw)), (3, 10)]:
            span, exact = token_slice_for_span(enc, (start, end))
            if exact:
                assert covered_bytes(text, enc, span) == raw[start:end]

    def test_expanded_cover_is_minimal(self, corpus_tok):
        enc = encode(corpus_tok, "Ships waited in the harbor overnight.")
        start, end = 20, 26  # the bytes of "harbor"
        span, exact = token_slice_for_span(enc, (start, end))
        assert not exact
        # dropping either edge token would uncover part of the request
        assert enc.offsets[span.start][1] > start
        assert enc.offsets[span.end - 1][0] < end

    def test_agrees_with_exhaustive_slice_enumeration(self):
        rng = random.Random(2405)
        for _ in range(60):
            tok = random_toy_tokenizer(rng)
            text = " ".join(
                "".join(rng.choice("abc") for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(1, 5))
            )
            enc = encode(tok, text)
            size = len(text.encode("utf-8"))
            for _ in range(4):
                start = rng.randrange(0, size + 1)
                end = rng.randrange(start, size + 1)
                result = as_oracle_result(token_slice_for_span(enc, (start, end)))
                assert result == slice_oracle(enc, (start, end)), (text, start, end)


class TestFindSubsequence:
    def test_whole_sequence_matches(self):
        assert find_subsequence(as_id_string([4, 5, 6]), [4, 5, 6]) == TokenSpan(0, 3)

    def test_split_pieces_absent_from_fused_context(self, number_tok):
        context = encode(number_tok, "finished in 1912 maybe")
        standalone = encode(number_tok, "1912")
        assert find_subsequence(context.id_string, standalone.ids) is None

    def test_empty_needle_matches_at_zero(self):
        assert find_subsequence(as_id_string([1, 2, 3]), []) == TokenSpan(0, 0)

    def test_leftmost_match_returned(self):
        assert find_subsequence(as_id_string([5, 6, 5, 6]), [5, 6]) == TokenSpan(0, 2)

    def test_needle_longer_than_haystack(self):
        assert find_subsequence(as_id_string([1]), [1, 2]) is None

    def test_agrees_with_naive_double_loop(self):
        rng = random.Random(917)
        for _ in range(300):
            haystack = [rng.randrange(8) for _ in range(rng.randrange(0, 32))]
            if rng.random() < 0.5 and len(haystack) >= 2:
                i = rng.randrange(len(haystack))
                j = rng.randrange(i, min(len(haystack), i + 6)) + 1
                needle = haystack[i:j]
            else:
                needle = [rng.randrange(8) for _ in range(rng.randrange(0, 5))]
            found = find_subsequence(as_id_string(haystack), needle)
            assert found == naive_find(haystack, needle)

    def test_agrees_with_naive_double_loop_across_the_id_range(self):
        # surrogates and ids above 0xFFFF each stay one code point
        ids = [0, 1, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xFFFF, 0x10000, 0x10FFFF]
        rng = random.Random(4021)
        for _ in range(300):
            haystack = [rng.choice(ids) for _ in range(rng.randrange(0, 24))]
            if rng.random() < 0.5 and haystack:
                i = rng.randrange(len(haystack))
                needle = haystack[i : i + rng.randrange(1, 5)]
            else:
                needle = [rng.choice(ids) for _ in range(rng.randrange(0, 4))]
            found = find_subsequence(as_id_string(haystack), needle)
            assert found == naive_find(haystack, needle)


class TestFindSubsequenceScaling:
    def test_64k_adversarial_haystack_searched_well_under_a_second(self):
        # every position matches the needle's first half of ids, so a
        # scan that compares at each first-id hit costs O(n * m)
        n = 2**16
        haystack = [7] * n
        needle = [7] * (n // 2) + [8]
        start = time.perf_counter()
        assert find_subsequence(as_id_string(haystack), needle) is None
        found = find_subsequence(as_id_string(haystack + [8]), needle)
        assert found == TokenSpan(n // 2, n + 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
