"""Byte-level BPE tokenization with exact byte-offset tracking.

Implements the GPT-2/BART tokenizer family: text is pre-segmented with a
regex pattern, each segment's UTF-8 bytes are remapped to printable "unit"
characters, and ranked merge rules are applied within each segment. A
unit stands for one source byte, so each token's half-open byte range
follows from the ids. ``token_slice_for_span`` and ``find_subsequence``
locate token runs in an ``Encoding`` by byte range and by ids.

Because all 256 single-byte units are required to be in the vocabulary,
encoding is total: any valid UTF-8 string round-trips losslessly through
``encode``/``decode``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence, Union

import regex

# Pre-tokenization pattern (GPT-2 convention): contractions, optionally
# space-prefixed letter/number/symbol runs, then whitespace. No segment holds
# a non-space followed by a space, so text segments as its two sides do at
# such a ``split_point``; ``consist.analyze_dataset`` relies on this.
SEGMENT_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d"
    r"| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"
    r"|\s+(?!\S)|\s+"
)

# Segment-level memo tables are cleared once they reach this many entries.
_SEGMENT_CACHE_LIMIT = 1 << 17

# Segments longer than this many characters are merged but not memoized.
_SEGMENT_MEMO_MAX_CHARS = 256


class TokenizerError(ValueError):
    """Raised when vocab/merges files violate the tokenizer contract."""


#: Every byte value 0..255 mapped to a printable unit character. Bytes
#: 33-126, 161-172 and 174-255 map to their own codepoints; the remaining
#: 68 bytes map, in ascending byte order, to codepoints 256, 257, ... In
#: particular the space byte 0x20 maps to "Ġ" (U+0120).
BYTE_TO_UNIT = {b: chr(b) for b in [*range(33, 127), *range(161, 173), *range(174, 256)]}
BYTE_TO_UNIT.update(
    (b, chr(256 + i)) for i, b in enumerate([b for b in range(256) if b not in BYTE_TO_UNIT])
)
_UNIT_TO_BYTE = {unit: b for b, unit in BYTE_TO_UNIT.items()}
_SEGMENTER = regex.compile(SEGMENT_PATTERN)
_SPLIT = regex.compile(r"\S\s")
_SPLIT_BACKWARD = regex.compile(r"(?r)\S\s")


@dataclass(frozen=True, eq=False)
class Tokenizer:
    """Immutable byte-level BPE model.

    Fields mirror the published GPT-2/BART asset layout: a token->id
    vocabulary, its exact inverse and the ranked merge list (lower index
    merges first). Every tokenizer shares the byte->unit mapping
    ``BYTE_TO_UNIT`` and segments text with ``SEGMENT_PATTERN``.
    Instances are safe to share across threads; ``encode``/``decode`` are
    pure. The only internal state is a memo of per-segment merge results
    keyed by segment text: the segment's token ids and nothing else.
    Segments longer than ``_SEGMENT_MEMO_MAX_CHARS`` characters are not
    memoized, so one huge run of letters cannot pin memory.
    """

    vocab: dict[str, int]
    inverse_vocab: dict[int, str]
    merges: tuple[tuple[str, str], ...]

    @cached_property
    def merge_ranks(self) -> dict[tuple[str, str], int]:
        ranks: dict[tuple[str, str], int] = {}
        for i, pair in enumerate(self.merges):
            ranks.setdefault(pair, i)
        return ranks

    @cached_property
    def _segment_cache(self) -> dict[str, tuple[int, ...]]:
        return {}


@dataclass(frozen=True)
class Encoding:
    """Token ids, and the tokenizer that made them (equality is on ids).

    ``offsets`` is derived from the ids on first read, then kept: one
    half-open byte range per id into the UTF-8 source. They are sorted,
    non-overlapping, and partition the source's bytes exactly (byte-level
    BPE drops nothing), so the last offset's end is the source's length.
    """

    ids: tuple[int, ...]
    tok: Tokenizer = field(repr=False, compare=False)

    @cached_property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        # a token's unit string has one character per source byte
        inverse = self.tok.inverse_vocab
        ends = list(accumulate(len(inverse[i]) for i in self.ids))
        return tuple(zip([0, *ends], ends))

    @cached_property
    def id_string(self) -> str:
        """One code point per id: the haystack of ``find_subsequence``."""
        return "".join(map(chr, self.ids))


@dataclass(frozen=True)
class TokenSpan:
    """A half-open token-index range [start, end)."""

    start: int
    end: int


def token_slice_for_span(
    enc: Encoding, byte_span: tuple[int, int]
) -> tuple[TokenSpan, bool] | None:
    """Find the minimal token run covering a byte range of the source.

    Returns the run and whether its byte range equals the request (it
    otherwise overshoots on a side), or None for an empty encoding or an
    empty request.
    """
    start, end = byte_span
    source_len = enc.offsets[-1][1] if enc.offsets else 0
    if not (0 <= start <= end <= source_len):
        raise ValueError(
            f"byte span {start}:{end} out of range for source of {source_len} bytes"
        )
    if not enc.ids or start == end:
        return None

    # offsets partition the source, so binary search on both edges
    lo = bisect_right(enc.offsets, start, key=lambda o: o[1])
    hi = bisect_left(enc.offsets, end, key=lambda o: o[0])
    exact = enc.offsets[lo][0] == start and enc.offsets[hi - 1][1] == end
    return TokenSpan(lo, hi), exact


def find_subsequence(haystack: str, needle: Sequence[int]) -> TokenSpan | None:
    """Return the leftmost contiguous match of needle in haystack, if any.

    The haystack is an ``Encoding.id_string``, one code point per id, so
    ``str.find`` searches in time linear in it; needle ids must lie in
    ``range(0x110000)``, as ``load_tokenizer`` guarantees. An empty
    needle matches at position 0.
    """
    start = haystack.find("".join(map(chr, needle)))
    return None if start < 0 else TokenSpan(start, start + len(needle))


def _read_text(path: Union[str, Path], name: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TokenizerError(f"{name} is not UTF-8: {exc}") from None


def _parse_merges(text: str) -> list[tuple[str, str]]:
    merges: list[tuple[str, str]] = []
    lines = text.splitlines()
    start = 1 if lines and lines[0].startswith("#") else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TokenizerError(
                f"merges line {lineno}: expected two space-separated units, got {line!r}"
            )
        merges.append((parts[0], parts[1]))
    return merges


def load_tokenizer(vocab_path: Union[str, Path], merges_path: Union[str, Path]) -> Tokenizer:
    """Load and validate a tokenizer from vocab.json / merges.txt files.

    Raises TokenizerError on bytes that are not UTF-8, malformed JSON,
    ids that are not integers in ``range(0x110000)``, duplicate ids,
    missing single-byte units, or a merge whose concatenation is not in
    the vocabulary.
    """
    try:
        raw = json.loads(_read_text(vocab_path, "vocab"))
    except json.JSONDecodeError as exc:
        raise TokenizerError(f"vocab is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise TokenizerError("vocab must be a JSON object mapping token -> id")

    vocab: dict[str, int] = {}
    for token, idx in raw.items():
        # Encoding.id_string and find_subsequence map each id to one code point
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < 0x110000:
            raise TokenizerError(f"token {token!r} has invalid id {idx!r}")
        vocab[token] = idx

    inverse: dict[int, str] = {}
    for token, idx in vocab.items():
        if idx in inverse:
            raise TokenizerError(
                f"duplicate id {idx} assigned to {inverse[idx]!r} and {token!r}"
            )
        inverse[idx] = token

    missing = [b for b in range(256) if BYTE_TO_UNIT[b] not in vocab]
    if missing:
        raise TokenizerError(
            f"vocab lacks {len(missing)} single-byte units "
            f"(first missing: byte {missing[0]!r}); cannot guarantee coverage"
        )

    merges = _parse_merges(_read_text(merges_path, "merges"))
    for left, right in merges:
        if left + right not in vocab:
            raise TokenizerError(
                f"merge ({left!r}, {right!r}) produces {left + right!r}, "
                "which is not in the vocabulary"
            )

    return Tokenizer(vocab=vocab, inverse_vocab=inverse, merges=tuple(merges))


def pretokenize(tok: Tokenizer, text: str) -> list[tuple[str, int]]:
    """Split text into pattern segments, each paired with its start byte.

    Between them the pattern's letter, number, other-symbol and
    whitespace alternatives match every character, so the concatenation
    of segments equals the input; start bytes are strictly increasing.
    """
    segments = _SEGMENTER.findall(text)
    sizes = [len(seg.encode("utf-8")) for seg in segments]
    return list(zip(segments, accumulate(sizes, initial=0)))


def split_point(text: str, index: int, *, after: bool) -> int:
    """The first split point of text at or after ``index > 0``, or the
    last at or before ``index < len(text)``: 0, ``len(text)``, or a p with
    ``text[p - 1]`` not whitespace and ``text[p]`` whitespace (``\\s``)."""
    if after:
        split = _SPLIT.search(text, index - 1)
        return split.start() + 1 if split else len(text)
    # regex reads a negative endpos from the end of the text
    split = _SPLIT_BACKWARD.search(text, 0, max(index + 1, 0))
    return split.start() + 1 if split else 0


def _merge_segment(tok: Tokenizer, segment: str) -> tuple[int, ...]:
    """Run the merge loop over one segment's byte units; return the token ids.

    Repeatedly applies the lowest-ranked applicable merge; when the same
    rank applies at several positions, the leftmost is merged first.

    Candidate pairs sit in a min-heap keyed on (rank, left unit index)
    over a linked list of units, so a segment of n bytes costs
    O(n log n); an entry whose left unit is gone or whose units have
    grown since it was pushed is stale and skipped.
    """
    units = [BYTE_TO_UNIT[b] for b in segment.encode("utf-8")]
    ranks = tok.merge_ranks
    n = len(units)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = []
    for i in range(n - 1):
        rank = ranks.get((units[i], units[i + 1]))
        if rank is not None:
            heap.append((rank, i, units[i], units[i + 1]))
    heapify(heap)
    while heap:
        _, i, left, right = heappop(heap)
        # a unit's text only grows, so equal text means unchanged; while
        # units[i] is unchanged its right neighbour is still nxt[i]
        j = nxt[i]
        if units[i] != left or units[j] != right:
            continue
        merged = left + right
        units[i] = merged
        units[j] = ""
        k = nxt[j]
        nxt[i] = k
        if k < n:
            prv[k] = i
            rank = ranks.get((merged, units[k]))
            if rank is not None:
                heappush(heap, (rank, i, merged, units[k]))
        p = prv[i]
        if p >= 0:
            rank = ranks.get((units[p], merged))
            if rank is not None:
                heappush(heap, (rank, p, units[p], merged))

    vocab = tok.vocab
    return tuple(vocab[unit] for unit in units if unit)


def encode(tok: Tokenizer, text: str) -> Encoding:
    """Encode valid UTF-8 text into token ids; byte offsets follow on read."""
    ids: list[int] = []
    cache = tok._segment_cache
    for segment, _ in pretokenize(tok, text):
        seg_ids = cache.get(segment)
        if seg_ids is None:
            seg_ids = _merge_segment(tok, segment)
            if len(segment) <= _SEGMENT_MEMO_MAX_CHARS:
                if len(cache) >= _SEGMENT_CACHE_LIMIT:
                    cache.clear()
                cache[segment] = seg_ids
        ids.extend(seg_ids)
    return Encoding(tuple(ids), tok)


def decode_bytes(tok: Tokenizer, ids: Iterable[int]) -> bytes:
    """Concatenate unit strings for ids and invert the byte mapping."""
    return bytes(_UNIT_TO_BYTE[c] for token in ids_to_pieces(tok, ids) for c in token)


def decode(tok: Tokenizer, ids: Iterable[int]) -> str:
    """Decode token ids back to text; exact inverse of ``encode``.

    Raises KeyError for an unknown id and UnicodeDecodeError if the id
    sequence does not spell valid UTF-8 (impossible for sequences produced
    by ``encode``).
    """
    return decode_bytes(tok, ids).decode("utf-8")


def ids_to_pieces(tok: Tokenizer, ids: Iterable[int]) -> list[str]:
    """Return the unit-alphabet token strings for ids; KeyError on an unknown id."""
    inverse = tok.inverse_vocab
    pieces = []
    for i in ids:
        token = inverse.get(i)
        if token is None:
            raise KeyError(f"unknown token id {i}")
        pieces.append(token)
    return pieces
