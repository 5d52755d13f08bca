"""Byte-level BPE tokenization with exact byte-offset tracking.

Implements the GPT-2/BART tokenizer family: text is pre-segmented with a
regex pattern, each segment's UTF-8 bytes are remapped to printable "unit"
characters, and ranked merge rules are applied within each segment. Every
emitted token carries the half-open byte range of source text it covers,
so token sequences can be aligned back to character spans exactly.

Because all 256 single-byte units are required to be in the vocabulary,
encoding is total: any valid UTF-8 string round-trips losslessly through
``encode``/``decode``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from pathlib import Path
from typing import IO, Iterable, Union

import regex

# Pre-tokenization pattern (GPT-2 convention): contractions, optionally
# space-prefixed letter/number/symbol runs, then whitespace.
SEGMENT_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d"
    r"| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"
    r"|\s+(?!\S)|\s+"
)

# Segment-level memo tables are cleared once they reach this many entries.
_SEGMENT_CACHE_LIMIT = 1 << 17

# Segments longer than this many characters are merged but not memoized.
_SEGMENT_MEMO_MAX_CHARS = 256

TextSource = Union[str, Path, IO[str]]


class TokenizerError(ValueError):
    """Raised when vocab/merges sources violate the tokenizer contract."""


@lru_cache(maxsize=1)
def byte_to_unit() -> dict[int, str]:
    """Map every byte value 0..255 to a printable unit character.

    Bytes 33-126, 161-172 and 174-255 map to their own codepoints; the
    remaining 68 bytes map, in ascending byte order, to codepoints 256,
    257, ... In particular the space byte 0x20 maps to "Ġ" (U+0120).
    """
    self_mapped = (
        list(range(33, 127)) + list(range(161, 173)) + list(range(174, 256))
    )
    mapping = {b: chr(b) for b in self_mapped}
    fill = 256
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(fill)
            fill += 1
    return mapping


@dataclass(frozen=True, eq=False)
class Tokenizer:
    """Immutable byte-level BPE model.

    Fields mirror the published GPT-2/BART asset layout: a token->id
    vocabulary, its exact inverse, the ranked merge list (lower index
    merges first) and the byte->unit mapping; segmentation always uses
    ``SEGMENT_PATTERN``. Instances are safe to share across threads;
    ``encode``/``decode`` are pure. The only internal state is a memo of
    per-segment merge results keyed by segment text: the token ids and
    each token's length in bytes. Segments longer than
    ``_SEGMENT_MEMO_MAX_CHARS`` characters are not memoized, so one huge
    run of letters cannot pin memory.
    """

    vocab: dict[str, int]
    inverse_vocab: dict[int, str]
    merges: tuple[tuple[str, str], ...]
    byte_map: dict[int, str]

    @cached_property
    def merge_ranks(self) -> dict[tuple[str, str], int]:
        ranks: dict[tuple[str, str], int] = {}
        for i, pair in enumerate(self.merges):
            ranks.setdefault(pair, i)
        return ranks

    @cached_property
    def unit_to_byte(self) -> dict[str, int]:
        return {unit: b for b, unit in self.byte_map.items()}

    @cached_property
    def _segmenter(self) -> "regex.Pattern[str]":
        return regex.compile(SEGMENT_PATTERN)

    @cached_property
    def _segment_cache(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        return {}


@dataclass(frozen=True)
class Encoding:
    """Token ids plus one half-open byte range per id into the UTF-8 source.

    Offsets are sorted, non-overlapping, and partition
    ``[0, len(source_bytes))`` exactly: byte-level BPE drops nothing.
    """

    ids: tuple[int, ...]
    offsets: tuple[tuple[int, int], ...]
    text: str

    @cached_property
    def source_bytes(self) -> bytes:
        return self.text.encode("utf-8")


def _read_text(source: TextSource) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


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


def load_tokenizer(vocab_source: TextSource, merges_source: TextSource) -> Tokenizer:
    """Load and validate a tokenizer from vocab.json / merges.txt sources.

    Sources may be file paths or open text/binary streams. Raises
    TokenizerError on malformed JSON, non-integer or duplicate ids,
    missing single-byte units, or a merge whose concatenation is not in
    the vocabulary.
    """
    try:
        raw = json.loads(_read_text(vocab_source))
    except json.JSONDecodeError as exc:
        raise TokenizerError(f"vocab is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise TokenizerError("vocab must be a JSON object mapping token -> id")

    vocab: dict[str, int] = {}
    for token, idx in raw.items():
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            raise TokenizerError(f"token {token!r} has invalid id {idx!r}")
        vocab[token] = idx

    inverse: dict[int, str] = {}
    for token, idx in vocab.items():
        if idx in inverse:
            raise TokenizerError(
                f"duplicate id {idx} assigned to {inverse[idx]!r} and {token!r}"
            )
        inverse[idx] = token

    byte_map = byte_to_unit()
    missing = [b for b in range(256) if byte_map[b] not in vocab]
    if missing:
        raise TokenizerError(
            f"vocab lacks {len(missing)} single-byte units "
            f"(first missing: byte {missing[0]!r}); cannot guarantee coverage"
        )

    merges = _parse_merges(_read_text(merges_source))
    for left, right in merges:
        if left + right not in vocab:
            raise TokenizerError(
                f"merge ({left!r}, {right!r}) produces {left + right!r}, "
                "which is not in the vocabulary"
            )

    return Tokenizer(
        vocab=vocab,
        inverse_vocab=inverse,
        merges=tuple(merges),
        byte_map=byte_map,
    )


def pretokenize(tok: Tokenizer, text: str) -> list[tuple[str, int]]:
    """Split text into pattern segments, each paired with its start byte.

    The concatenation of segments equals the input; start bytes are
    strictly increasing.
    """
    segments = tok._segmenter.findall(text)
    if sum(map(len, segments)) != len(text):
        raise RuntimeError("segmentation pattern did not cover the full text")
    sizes = [len(seg.encode("utf-8")) for seg in segments]
    return list(zip(segments, accumulate(sizes, initial=0)))


def _merge_segment(tok: Tokenizer, segment: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run the merge loop over one segment's byte units.

    Repeatedly applies the lowest-ranked applicable merge; when the same
    rank applies at several positions, the leftmost is merged first.
    Returns the token ids and each token's length in bytes.

    Candidate pairs sit in a min-heap keyed on (rank, left unit index)
    over a linked list of units, so a segment of n bytes costs
    O(n log n); an entry whose left unit is gone or whose units have
    grown since it was pushed is stale and skipped.
    """
    units = [tok.byte_map[b] for b in segment.encode("utf-8")]
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
    kept = [unit for unit in units if unit]
    # every unit character stands for exactly one source byte
    return tuple(vocab[unit] for unit in kept), tuple(map(len, kept))


def encode(tok: Tokenizer, text: str) -> Encoding:
    """Encode valid UTF-8 text into token ids with exact byte offsets."""
    ids: list[int] = []
    sizes: list[int] = []
    cache = tok._segment_cache
    for segment, _ in pretokenize(tok, text):
        merged = cache.get(segment)
        if merged is None:
            merged = _merge_segment(tok, segment)
            if len(segment) <= _SEGMENT_MEMO_MAX_CHARS:
                if len(cache) >= _SEGMENT_CACHE_LIMIT:
                    cache.clear()
                cache[segment] = merged
        seg_ids, seg_sizes = merged
        ids.extend(seg_ids)
        sizes.extend(seg_sizes)
    ends = list(accumulate(sizes))
    offsets = tuple(zip([0, *ends], ends))
    return Encoding(ids=tuple(ids), offsets=offsets, text=text)


def decode_bytes(tok: Tokenizer, ids: Iterable[int]) -> bytes:
    """Concatenate unit strings for ids and invert the byte mapping."""
    unit_to_byte = tok.unit_to_byte
    return bytes(unit_to_byte[c] for token in ids_to_pieces(tok, ids) for c in token)


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
