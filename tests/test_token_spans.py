import random
import time

import pytest

from tokfix.bpe import (
    BYTE_TO_UNIT,
    TokenSpan,
    decode,
    encode,
    find_subsequence,
    token_slice_for_span,
)

from helpers import (
    as_id_string,
    as_oracle_result,
    byte_offset,
    make_tokenizer,
    naive_find,
    random_toy_tokenizer,
    slice_oracle,
)

#: One token per byte, so a run's token indices are its byte offsets.
BYTES_ONLY_TOK = make_tokenizer([])

#: 1- to 4-byte code points.
MIXED_WIDTH = ["a", " ", "ö", "€", "🎉"]


def mixed_width_tokenizer(rng, text):
    """Merges of adjacent units of text's bytes, as a BPE trainer would
    pick them, so tokens may end inside a code point or fuse several."""
    units = [BYTE_TO_UNIT[b] for b in text.encode("utf-8")]
    merges = []
    for _ in range(rng.randrange(1, 8)):
        if len(units) < 2:
            break
        i = rng.randrange(len(units) - 1)
        pair = (units[i], units[i + 1])
        units[i : i + 2] = ["".join(pair)]
        if pair not in merges:
            merges.append(pair)
    rng.shuffle(merges)
    return make_tokenizer(merges)


def covered_bytes(text, enc, span):
    """The bytes of text under a token span, read through the bounds."""
    return text.encode("utf-8")[enc.bounds[span.start] : enc.bounds[span.end]]


class TestCharSpanConversion:
    """``token_slice_for_span`` maps code points to UTF-8 bytes; with one
    token per byte, a run's token indices are those byte offsets."""

    def test_ascii_identity(self):
        enc = encode(BYTES_ONLY_TOK, "abc")
        assert token_slice_for_span(enc, "abc", 0, 3) == (TokenSpan(0, 3), True)

    def test_inclusive_end_with_multibyte_codepoint(self):
        # "é" occupies two UTF-8 bytes, so code points [1, 3) span bytes [1, 4)
        enc = encode(BYTES_ONLY_TOK, "héllo")
        assert token_slice_for_span(enc, "héllo", 1, 3) == (TokenSpan(1, 4), True)

    def test_out_of_range(self):
        enc = encode(BYTES_ONLY_TOK, "abc")
        with pytest.raises(ValueError, match="out of range"):
            token_slice_for_span(enc, "abc", 0, 9)

    def test_inclusive_empty_span(self):
        enc = encode(BYTES_ONLY_TOK, "abc")
        assert token_slice_for_span(enc, "abc", 2, 2) is None

    def test_every_start_of_a_mixed_width_text_matches_its_prefix_encoding(self):
        # 1- to 4-byte code points over more than two 1,024-code-point checkpoints
        rng = random.Random(5113)
        text = "".join(rng.choice(MIXED_WIDTH) for _ in range(2 * 1024 + 700))
        enc = encode(BYTES_ONLY_TOK, text)
        for start in range(len(text)):
            end = min(len(text), start + 3)
            expected = TokenSpan(byte_offset(text, start), byte_offset(text, end))
            assert token_slice_for_span(enc, text, start, end) == (expected, True), start


class TestCharSpanConversionScaling:
    def test_2000_spans_over_a_1m_character_context_well_under_a_second(self):
        # one record with many qas looks up each gold span in the same
        # long context; encoding every prefix costs O(q * n)
        text = "wörd " * 200_000
        # fuse " wörd" into one token, so the encoding holds 200k tokens
        units = [BYTE_TO_UNIT[b] for b in " wörd".encode("utf-8")]
        tok = make_tokenizer([("".join(units[:i]), units[i]) for i in range(1, len(units))])
        enc = encode(tok, text)
        assert enc.bounds[5:7] == (5, 11)  # " wörd" after the unmerged first word
        rng = random.Random(77)
        starts = [rng.randrange(len(text) - 4) for _ in range(2000)]
        begin = time.perf_counter()
        for start in starts:
            token_slice_for_span(enc, text, start, start + 4)
        elapsed = time.perf_counter() - begin
        assert token_slice_for_span(enc, text, 5, 9) == (TokenSpan(5, 6), False)
        assert token_slice_for_span(enc, text, 4, 9) == (TokenSpan(5, 6), True)
        assert elapsed < 0.5


class TestTokenSliceForSpan:
    def test_full_source_is_exact(self, number_tok):
        enc = encode(number_tok, "1912")
        span, exact = token_slice_for_span(enc, "1912", 0, 4)
        assert exact
        assert span == TokenSpan(0, len(enc.ids))
        assert covered_bytes("1912", enc, span) == b"1912"

    def test_answer_inside_space_fused_token_expands(self, number_tok):
        enc = encode(number_tok, " 1912")
        span, exact = token_slice_for_span(enc, " 1912", 1, 5)  # "1912"
        assert not exact
        assert span == TokenSpan(0, 1)
        assert covered_bytes(" 1912", enc, span) == b" 1912"

    def test_empty_encoding_fails(self, number_tok):
        enc = encode(number_tok, "")
        assert token_slice_for_span(enc, "", 0, 0) is None

    def test_empty_span_fails(self, number_tok):
        enc = encode(number_tok, "1912")
        assert token_slice_for_span(enc, "1912", 2, 2) is None

    def test_out_of_range_span(self, number_tok):
        enc = encode(number_tok, "1912")
        for start, end in [(0, 99), (0, 5), (-1, 2), (3, 2)]:
            with pytest.raises(ValueError, match="out of range"):
                token_slice_for_span(enc, "1912", start, end)

    def test_exact_result_decodes_requested_bytes(self, corpus_tok):
        text = "The ledger listed 1912, 1854, and more."
        enc = encode(corpus_tok, text)
        raw = text.encode("utf-8")
        for start, end in [(0, 3), (0, len(raw)), (3, 10)]:
            span, exact = token_slice_for_span(enc, text, start, end)
            if exact:
                assert covered_bytes(text, enc, span) == raw[start:end]

    def test_expanded_cover_is_minimal(self, corpus_tok):
        text = "Ships waited in the harbor overnight."
        enc = encode(corpus_tok, text)
        start, end = 20, 26  # "harbor"
        span, exact = token_slice_for_span(enc, text, start, end)
        assert not exact
        # dropping either edge token would uncover part of the request
        assert enc.bounds[span.start + 1] > start
        assert enc.bounds[span.end - 1] < end

    def test_agrees_with_exhaustive_slice_enumeration(self):
        rng = random.Random(2405)
        for _ in range(60):
            tok = random_toy_tokenizer(rng)
            text = " ".join(
                "".join(rng.choice("abc") for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(1, 5))
            )
            enc = encode(tok, text)
            for _ in range(4):
                start = rng.randrange(0, len(text) + 1)
                end = rng.randrange(start, len(text) + 1)
                result = as_oracle_result(token_slice_for_span(enc, text, start, end))
                assert result == slice_oracle(enc, text, start, end), (text, start, end)

    def test_agrees_with_exhaustive_slice_enumeration_over_mixed_width_text(self):
        rng = random.Random(6217)
        for _ in range(100):
            text = "".join(rng.choice(MIXED_WIDTH) for _ in range(rng.randrange(1, 16)))
            tok = mixed_width_tokenizer(rng, text)
            enc = encode(tok, text)
            assert decode(tok, enc.ids) == text
            for _ in range(6):
                start = rng.randrange(0, len(text) + 1)
                end = rng.randrange(start, len(text) + 1)
                result = as_oracle_result(token_slice_for_span(enc, text, start, end))
                assert result == slice_oracle(enc, text, start, end), (text, start, end)


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
