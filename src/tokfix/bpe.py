"""Byte-level BPE tokenization with exact byte-offset tracking.

Implements the GPT-2/BART tokenizer family: text is pre-segmented with a
regex pattern, each segment's UTF-8 bytes are remapped to printable "unit"
characters, and ranked merge rules are applied within each segment. A
unit stands for one source byte, so the byte bounds between tokens
follow from the ids. ``token_slice_for_span`` and ``find_subsequence``
locate token runs in an ``Encoding`` by code-point range and by ids; this
module alone maps between code points and UTF-8 bytes.

Because all 256 single-byte units are required to be in the vocabulary,
encoding is total: any valid UTF-8 string round-trips losslessly through
``encode``/``decode``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence, Union

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
_SEGMENT_MEMO_MAX_CHARS = 32

# ``token_slice_for_span`` keeps the byte offset of every this many code points.
_CHECKPOINT_EVERY = 1024


#: The last code point, a Unicode noncharacter, reserved from token ids:
#: ``consist.analyze_dataset`` joins the ids of context pieces with it, so
#: no needle holds it.
SEPARATOR_ID = 0x10FFFF


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


@lru_cache(maxsize=None)
def _patterns():
    """Segmenter and split-point searches, built on first use: ``evaluate`` never loads regex."""
    import regex
    return regex.compile(SEGMENT_PATTERN), regex.compile(r"\S\s"), regex.compile(r"(?r)\S\s")


@dataclass(frozen=True, eq=False)
class Tokenizer:
    """Immutable byte-level BPE model.

    Fields mirror the published GPT-2/BART asset layout: a token->id
    vocabulary with ids below ``SEPARATOR_ID``, its exact inverse and the
    ranked merge list (lower index merges first). Every tokenizer shares
    the byte->unit mapping ``BYTE_TO_UNIT`` and segments text with
    ``SEGMENT_PATTERN``. Instances are safe to share across threads;
    ``encode``/``decode`` are pure. Their only mutable state is a memo of
    per-segment merge results keyed by segment text: the segment's token
    ids and nothing else; the other caches are derived from the fields on
    first use. Segments over ``_SEGMENT_MEMO_MAX_CHARS`` characters are not
    memoized, so an entry holds at most about 1.1 KB and the memo 140 MB.
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

    @cached_property
    def _byte_lengths(self) -> dict[int, int]:
        # a token's unit string has one character per source byte
        return {i: len(unit) for i, unit in self.inverse_vocab.items()}


@dataclass(frozen=True)
class Encoding:
    """Token ids, and the tokenizer that made them (equality is on ids).

    ``bounds`` is derived from the ids on first read, then kept: N+1
    rising UTF-8 byte offsets from 0 to the source's length, token i
    covering ``[bounds[i], bounds[i + 1])``, so the tokens partition the
    source's bytes exactly (byte-level BPE drops nothing). Callers that
    hold the source text find token runs by code points with
    ``token_slice_for_span``, which maps them to these bytes.
    """

    ids: tuple[int, ...]
    tok: Tokenizer = field(repr=False, compare=False)

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        return tuple(accumulate(map(self.tok._byte_lengths.__getitem__, self.ids), initial=0))

    @cached_property
    def id_string(self) -> str:
        """One code point per id: the haystack of ``find_subsequence``."""
        return "".join(map(chr, self.ids))


@dataclass(frozen=True)
class TokenSpan:
    """A half-open token-index range [start, end)."""

    start: int
    end: int


@lru_cache(maxsize=1)
def _checkpoint_bytes(text: str) -> tuple[int, ...]:
    """UTF-8 byte offset of every ``_CHECKPOINT_EVERY``-th code point.

    The questions of one context look up their spans one after another,
    so caching the latest text makes each lookup encode at most
    ``_CHECKPOINT_EVERY - 1`` code points ahead of its span, not the prefix.
    """
    step = _CHECKPOINT_EVERY
    sizes = (len(text[i : i + step].encode("utf-8")) for i in range(0, len(text), step))
    return tuple(accumulate(sizes, initial=0))


def token_slice_for_span(
    enc: Encoding, text: str, start: int, end: int
) -> tuple[TokenSpan, bool] | None:
    """Find the minimal token run covering code points [start, end) of text.

    ``text`` must be the source that ``enc`` encodes. Returns the run
    from the last of ``enc.bounds`` at or before the range's first byte to
    the first at or after its end, and whether it is exact (both bounds
    are those bytes), or None for an empty encoding or an empty request.
    Raises ValueError when the range does not lie within text.
    """
    if not (0 <= start <= end <= len(text)):
        raise ValueError(f"span {start}:{end} out of range for {len(text)} code points")
    if not enc.ids or start == end:
        return None

    index, past = divmod(start, _CHECKPOINT_EVERY)
    byte_start = _checkpoint_bytes(text)[index] + len(text[start - past : start].encode("utf-8"))
    byte_end = byte_start + len(text[start:end].encode("utf-8"))
    bounds = enc.bounds
    lo = bisect_right(bounds, byte_start) - 1
    hi = bisect_left(bounds, byte_end)
    return TokenSpan(lo, hi), bounds[lo] == byte_start and bounds[hi] == byte_end


def find_subsequence(haystack: str, needle: Sequence[int]) -> TokenSpan | None:
    """Return the leftmost contiguous match of needle in haystack, if any.

    The haystack is an ``Encoding.id_string``, one code point per id, so
    ``str.find`` searches in time linear in it; needle ids must lie in
    ``range(SEPARATOR_ID)``, as ``load_tokenizer`` guarantees. An empty
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

    Raises TokenizerError on bytes that are not UTF-8, JSON that is
    malformed or too deep or long for the parser, ids that are not
    integers in ``range(SEPARATOR_ID)``, duplicate ids, missing
    single-byte units, or a merge whose concatenation is not in the
    vocabulary.
    """
    text = _read_text(vocab_path, "vocab")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TokenizerError(f"vocab is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise TokenizerError("vocab must be a JSON object mapping token -> id")

    vocab: dict[str, int] = {}
    for token, idx in raw.items():
        # Encoding.id_string and find_subsequence map each id to one code
        # point, and SEPARATOR_ID is kept free to join context pieces
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < SEPARATOR_ID:
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
    _patterns()  # regex loads with the tokenizer, not on the first encode
    for left, right in merges:
        if left + right not in vocab:
            raise TokenizerError(
                f"merge ({left!r}, {right!r}) produces {left + right!r}, "
                "which is not in the vocabulary"
            )

    return Tokenizer(vocab=vocab, inverse_vocab=inverse, merges=tuple(merges))


def pretokenize(text: str) -> list[tuple[str, int]]:
    """Split text into pattern segments, each paired with its start byte.

    Between them the pattern's letter, number, other-symbol and
    whitespace alternatives match every character, so the concatenation
    of segments equals the input; start bytes are strictly increasing.
    """
    segments = _patterns()[0].findall(text)
    sizes = [len(seg.encode("utf-8")) for seg in segments]
    return list(zip(segments, accumulate(sizes, initial=0)))


def split_point(text: str, index: int, *, after: bool) -> int:
    """The first split point of text at or after ``index > 0``, or the
    last at or before ``index < len(text)``: 0, ``len(text)``, or a p with
    ``text[p - 1]`` not whitespace and ``text[p]`` whitespace (``\\s``)."""
    _, forward, backward = _patterns()
    if after:
        split = forward.search(text, index - 1)
        return split.start() + 1 if split else len(text)
    # regex reads a negative endpos from the end of the text
    split = backward.search(text, 0, max(index + 1, 0))
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
    """Encode valid UTF-8 text into token ids; byte bounds follow on read."""
    ids: list[int] = []
    cache = tok._segment_cache
    for segment, _ in pretokenize(text):
        seg_ids = cache.get(segment)
        if seg_ids is None:
            seg_ids = _merge_segment(tok, segment)
            if len(segment) <= _SEGMENT_MEMO_MAX_CHARS:
                if len(cache) >= _SEGMENT_CACHE_LIMIT:
                    cache.clear()
                cache[segment] = seg_ids
        ids.extend(seg_ids)
    return Encoding(tuple(ids), tok)


def decode(tok: Tokenizer, ids: Iterable[int]) -> str:
    """Decode token ids back to text; exact inverse of ``encode``.

    The one decoder: each unit character of the ids' tokens maps back to
    the source byte it stands for. Raises KeyError for an unknown id and
    UnicodeDecodeError if the bytes are not valid UTF-8 (impossible for
    sequences produced by ``encode``).
    """
    units = "".join(ids_to_pieces(tok, ids))
    return bytes(map(_UNIT_TO_BYTE.__getitem__, units)).decode("utf-8")


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
