import json
import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
import regex
from hypothesis import given, settings
from hypothesis import strategies as st

from tokfix import bpe
from tokfix.bpe import (
    _SEGMENT_MEMO_MAX_CHARS,
    BYTE_TO_UNIT,
    TokenizerError,
    decode,
    decode_bytes,
    encode,
    ids_to_pieces,
    pretokenize,
    split_point,
)

from helpers import (
    bpe_oracle_ids,
    build_vocab,
    load_tokenizer_texts,
    make_tokenizer,
    merges_text,
    random_letter_text,
    random_toy_tokenizer,
)


class TestByteMap:
    def test_bijection_over_all_bytes(self):
        mapping = BYTE_TO_UNIT
        assert sorted(mapping) == list(range(256))
        assert len(set(mapping.values())) == 256

    def test_printable_convention(self):
        mapping = BYTE_TO_UNIT
        assert mapping[ord("!")] == "!"
        assert mapping[0xFF] == "\xff"
        assert mapping[0x20] == "Ġ"  # the space byte renders as Ġ
        assert mapping[0x00] == chr(256)


class TestLoader:
    def test_toy_vocab_loads_and_satisfies_invariants(self, toy_tok):
        assert len(toy_tok.vocab) == len(toy_tok.inverse_vocab) == 258
        for token, idx in toy_tok.vocab.items():
            assert toy_tok.inverse_vocab[idx] == token
        for left, right in toy_tok.merges:
            assert left + right in toy_tok.vocab
        for b in range(256):
            assert BYTE_TO_UNIT[b] in toy_tok.vocab

    def test_merge_without_concatenation_in_vocab(self):
        vocab = build_vocab([])
        with pytest.raises(TokenizerError, match="merge"):
            load_tokenizer_texts(json.dumps(vocab), merges_text([("q", "z")]))

    def test_duplicate_ids_rejected(self):
        vocab = build_vocab([])
        vocab["dup"] = 5
        with pytest.raises(TokenizerError, match="duplicate id"):
            load_tokenizer_texts(json.dumps(vocab), merges_text([]))

    def test_missing_single_byte_unit_rejected(self):
        vocab = build_vocab([])
        del vocab[BYTE_TO_UNIT[0x41]]
        with pytest.raises(TokenizerError, match="single-byte"):
            load_tokenizer_texts(json.dumps(vocab), merges_text([]))

    def test_malformed_vocab_json(self):
        with pytest.raises(TokenizerError, match="JSON"):
            load_tokenizer_texts("not json", "#\n")

    @pytest.mark.parametrize("bad_id", ["7", 7.5, True, -1])
    def test_non_integer_or_negative_ids_rejected(self, bad_id):
        vocab = build_vocab([])
        vocab["zz"] = bad_id
        with pytest.raises(TokenizerError):
            load_tokenizer_texts(json.dumps(vocab), merges_text([]))

    @pytest.mark.parametrize("bad_id", [0x110000, 2**40])
    def test_ids_beyond_the_last_code_point_rejected(self, bad_id):
        vocab = build_vocab([])
        vocab["zz"] = bad_id
        with pytest.raises(TokenizerError, match="invalid id"):
            load_tokenizer_texts(json.dumps(vocab), merges_text([]))

    def test_largest_code_point_id_accepted(self):
        vocab = build_vocab([])
        vocab["zz"] = 0x10FFFF
        tok = load_tokenizer_texts(json.dumps(vocab), merges_text([]))
        assert tok.inverse_vocab[0x10FFFF] == "zz"

    def test_malformed_merge_line(self):
        vocab = build_vocab([("a", "b")])
        with pytest.raises(TokenizerError, match="line 2"):
            load_tokenizer_texts(json.dumps(vocab), "#version\na b c\n")

    def test_merges_without_comment_line_still_parse(self):
        vocab = build_vocab([("a", "b")])
        tok = load_tokenizer_texts(json.dumps(vocab), "a b\n")
        assert tok.merges == (("a", "b"),)
        assert tok.vocab["ab"] == 256


class TestEncode:
    def test_toy_merge_chain_to_single_token(self, toy_tok):
        enc = encode(toy_tok, "abc")
        assert enc.ids == (toy_tok.vocab["abc"],)
        assert enc.offsets == ((0, 3),)

    def test_empty_input(self, toy_tok):
        enc = encode(toy_tok, "")
        assert enc.ids == ()
        assert enc.offsets == ()

    def test_number_splits_differently_alone_and_after_space(self, number_tok):
        standalone = encode(number_tok, "1912")
        assert ids_to_pieces(number_tok, standalone.ids) == ["19", "12"]
        assert standalone.offsets == ((0, 2), (2, 4))

        spaced = encode(number_tok, " 1912")
        assert ids_to_pieces(number_tok, spaced.ids) == ["Ġ1912"]
        assert spaced.offsets == ((0, 5),)

    def test_offsets_partition_source_bytes(self, corpus_tok):
        for text in ["héllo wörld", "a b", "tabs\tand\nnewlines", "🎉 1912!"]:
            enc = encode(corpus_tok, text)
            position = 0
            for start, end in enc.offsets:
                assert start == position
                assert end > start
                position = end
            assert position == len(text.encode("utf-8"))

    def test_offsets_recover_source_slices(self, corpus_tok):
        text = "The ship was finished in 1912 after delays."
        enc = encode(corpus_tok, text)
        raw = text.encode("utf-8")
        for token_id, (start, end) in zip(enc.ids, enc.offsets):
            assert decode_bytes(corpus_tok, [token_id]) == raw[start:end]

    def test_encode_holds_only_the_ids(self, corpus_tok):
        # offsets are built on first read, so an encoding read only for
        # its ids holds about one 8-byte slot per token
        text = "The ship was finished in 1912 after delays. " * 2_500
        encode(corpus_tok, text)  # fill the segment memo first
        tracemalloc.start()
        try:
            enc = encode(corpus_tok, text)
            tokens = len(enc.ids)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tokens > 80_000
        assert held / tokens <= 16

    def test_pure_and_thread_safe(self, corpus_tok):
        text = "Ships waited in the harbor overnight. 1912!"
        expected = encode(corpus_tok, text)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: encode(corpus_tok, text), range(16)))
        assert all(r == expected for r in results)


class TestDecode:
    def test_round_trip_samples(self, corpus_tok):
        samples = [
            "plain ascii",
            " leading and trailing ",
            "控制字符\x00\x01\x1f",
            "émojis 🎉🎊 and access­ents",
            "1912. 1854, 77 U.S.",
            "",
        ]
        for text in samples:
            assert decode(corpus_tok, encode(corpus_tok, text).ids) == text

    def test_decode_empty(self, toy_tok):
        assert decode(toy_tok, []) == ""

    def test_decode_unknown_id(self, toy_tok):
        with pytest.raises(KeyError, match="unknown token id"):
            decode(toy_tok, [10_000_000])

    def test_decode_space_fused_token(self, number_tok):
        assert decode(number_tok, [number_tok.vocab["Ġ1912"]]) == " 1912"


class TestPretokenize:
    def test_splits_words_at_spaces(self, toy_tok):
        assert pretokenize(toy_tok, "Hello world") == [("Hello", 0), (" world", 5)]

    def test_empty(self, toy_tok):
        assert pretokenize(toy_tok, "") == []

    def test_separates_number_and_punctuation_runs(self, toy_tok):
        assert pretokenize(toy_tok, "1912.") == [("1912", 0), (".", 4)]

    def test_byte_starts_account_for_multibyte_codepoints(self, toy_tok):
        assert pretokenize(toy_tok, "é 12") == [("é", 0), (" 12", 2)]

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_segments_partition_text(self, text):
        tok = _PRETOK_SHARED
        segments = pretokenize(tok, text)
        assert "".join(seg for seg, _ in segments) == text
        starts = [start for _, start in segments]
        assert starts == sorted(set(starts))


_PRETOK_SHARED = make_tokenizer([])

#: pieces that meet at and around split points: the spaces SEGMENT_PATTERN's
#: \s knows, \x1c (a space to str.isspace but not to \s), contractions,
#: digits, a combining mark and an emoji
_SPLIT_PIECES = st.sampled_from(
    [
        " ", "  ", "\u00a0", "\u3000", "\r\n", "\t", "\x1c", "\x85",
        "'s", "'t", "'re", "'ll", "it", "Ab", "1912", "7", ".", ",", "-",
        "e\u0301", "\u0301", "\U0001f642", "\u00e9",
    ]
)


def split_points(text):
    """Every split point of text, by its definition."""
    inner = [p for p in range(1, len(text)) if regex.fullmatch(r"\S\s", text[p - 1 : p + 1])]
    return sorted({0, *inner, len(text)})


class TestSplitPoints:
    @given(st.lists(_SPLIT_PIECES, max_size=14).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_text_segments_as_its_two_sides_at_every_split_point(self, text):
        # consist.analyze_dataset encodes only a stretch between two split
        # points and relies on its ids being that slice of the whole ids
        segments = bpe._SEGMENTER.findall(text)
        for p in split_points(text):
            assert bpe._SEGMENTER.findall(text[:p]) + bpe._SEGMENTER.findall(text[p:]) == segments

    @given(st.lists(_SPLIT_PIECES, max_size=14).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_split_point_finds_the_nearest_one(self, text):
        points = split_points(text)
        for index in range(-2, len(text) + 3):
            if index < len(text):
                before = max((p for p in points if p <= index), default=0)
                assert split_point(text, index, after=False) == before
            if index > 0:
                after = min((p for p in points if p >= index), default=len(text))
                assert split_point(text, index, after=True) == after

    def test_a_space_run_splits_only_at_its_start(self):
        assert split_points("ab  c\u00a0d\x1ce") == [0, 2, 5, 9]


class TestMergeSemantics:
    def test_matches_stepwise_lowest_priority_oracle(self):
        rng = random.Random(1301)
        for _ in range(60):
            tok = random_toy_tokenizer(rng)
            for _ in range(5):
                text = random_letter_text(rng)
                assert list(encode(tok, text).ids) == bpe_oracle_ids(tok, text), (
                    tok.merges,
                    text,
                )

    def test_leftmost_position_wins_on_rank_tie(self):
        tok = make_tokenizer([("a", "a")])
        enc = encode(tok, "aaa")
        assert ids_to_pieces(tok, enc.ids) == ["aa", "a"]

    def test_matches_oracle_on_long_and_tie_heavy_inputs(self):
        # long runs with many equal-rank candidates are where a stale
        # heap entry or a lost leftmost tie would show
        rng = random.Random(2417)
        cases = []
        for _ in range(150):
            alphabet = rng.choice(["abc", "ab", "a"])
            tok = random_toy_tokenizer(rng, alphabet)
            length = rng.randrange(50, 401)
            cases.append((tok, "".join(rng.choice(alphabet) for _ in range(length))))
        for merges in (
            [("a", "a")],
            [("a", "a"), ("aa", "aa")],
            [("a", "a"), ("aa", "a")],
            [("a", "b"), ("b", "a"), ("ab", "ab"), ("ba", "ba")],
        ):
            tok = make_tokenizer(merges)
            for length in range(50, 401, 25):
                cases += [(tok, "a" * length), (tok, ("ab" * length)[:length])]
        for tok, text in cases:
            assert list(encode(tok, text).ids) == bpe_oracle_ids(tok, text), (
                tok.merges,
                text,
            )


class TestScaling:
    def test_16k_character_segment_encodes_well_under_a_second(self):
        # merges a+a, aa+aa, ... fold 2**14 letters into one token, so
        # the run is one segment and every level of the chain fires
        merges = [("a" * 2**k, "a" * 2**k) for k in range(14)]
        tok = make_tokenizer(merges)
        text = "a" * 2**14
        start = time.perf_counter()
        enc = encode(tok, text)
        elapsed = time.perf_counter() - start
        assert ids_to_pieces(tok, enc.ids) == [text]
        assert elapsed < 0.5

    def test_long_segments_are_not_memoized(self):
        tok = make_tokenizer([("a", "b")])
        short = "ab" * 8
        long = "ab" * (_SEGMENT_MEMO_MAX_CHARS // 2 + 1)
        assert len(long) > _SEGMENT_MEMO_MAX_CHARS
        encode(tok, f"{short} {long}")
        assert short in tok._segment_cache
        assert " " + long not in tok._segment_cache

    def test_memo_clears_at_its_limit(self, monkeypatch):
        merges = [("a", "b"), ("ab", "c")]
        words = [a + b + c for a in "abc" for b in "abc" for c in "abc"]
        text = " ".join(words)
        reference = make_tokenizer(merges)
        expected = [encode(reference, word).ids for word in words]
        monkeypatch.setattr(bpe, "_SEGMENT_CACHE_LIMIT", 4)
        tok = make_tokenizer(merges)
        sizes = []
        for _ in range(2):
            for word, ids in zip(words, expected):
                assert encode(tok, word).ids == ids
                sizes.append(len(tok._segment_cache))
        assert max(sizes) == 4
        assert sizes.count(1) > 1  # cleared, and refilled from empty
        assert encode(tok, text).ids == encode(reference, text).ids
        assert len(tok._segment_cache) <= 4


def _units(text: str) -> str:
    return "".join(BYTE_TO_UNIT[b] for b in text.encode("utf-8"))


# merges that fuse multibyte code points, whitespace runs and letter runs
_OFFSET_TOK = make_tokenizer(
    [
        (_units("é")[0], _units("é")[1]),
        (_units("€")[0], _units("€")[1]),
        (_units("€")[:2], _units("€")[2]),
        ("Ġ", "Ġ"),
        ("Ċ", "Ċ"),
        ("a", "b"),
        ("ab", "ab"),
        ("abab", "abab"),
        ("Ġ", "a"),
    ]
)
_OFFSET_PIECES = st.one_of(
    st.text(alphabet="abé€😀 ", max_size=20),
    st.text(alphabet=" \t\n\u3000\xa0", min_size=1, max_size=12),
    # letter runs too long for the segment memo
    st.text(alphabet="abé", min_size=_SEGMENT_MEMO_MAX_CHARS + 1, max_size=320),
)


class TestRoundTripProperty:
    @given(st.text(max_size=200))
    @settings(max_examples=250, deadline=None)
    def test_decode_inverts_encode(self, text):
        tok = _PRETOK_SHARED
        enc = encode(tok, text)
        assert decode(tok, enc.ids) == text
        position = 0
        for start, end in enc.offsets:
            assert start == position
            position = end
        assert position == len(text.encode("utf-8"))

    @given(st.lists(_OFFSET_PIECES, max_size=6).map("".join))
    @settings(max_examples=150, deadline=None)
    def test_derived_offsets_partition_the_source(self, text):
        tok = _OFFSET_TOK
        enc = encode(tok, text)
        raw = text.encode("utf-8")
        assert len(enc.offsets) == len(enc.ids)
        position = 0
        for token_id, (start, end) in zip(enc.ids, enc.offsets):
            assert start == position < end
            assert decode_bytes(tok, [token_id]) == raw[start:end]
            position = end
        assert position == len(raw)

