"""Conversions between codepoint spans, byte spans, and token spans.

Dataset annotations index answers by codepoint; byte-level encodings index
by byte. These helpers translate between the two and locate the token runs
that realize a byte range or an id subsequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .bpe import Encoding


@dataclass(frozen=True)
class CharSpan:
    """A half-open codepoint range [start, end)."""

    start: int
    end: int


@dataclass(frozen=True)
class TokenSpan:
    """A half-open token-index range [start, end)."""

    start: int
    end: int


_CHECKPOINT_EVERY = 1024


@lru_cache(maxsize=1)
def _checkpoint_bytes(text: str) -> tuple[int, ...]:
    """UTF-8 byte offset of every ``_CHECKPOINT_EVERY``-th code point.

    The questions of one context convert their spans one after another,
    so caching the latest text makes each conversion encode at most
    ``_CHECKPOINT_EVERY - 1`` code points instead of the whole prefix.
    """
    step = _CHECKPOINT_EVERY
    sizes = (len(text[i : i + step].encode("utf-8")) for i in range(0, len(text), step))
    return tuple(accumulate(sizes, initial=0))


def codepoint_span_to_byte_span(text: str, span: CharSpan) -> tuple[int, int]:
    """Convert a codepoint span into the half-open UTF-8 byte range."""
    start, end = span.start, span.end
    if not (0 <= start <= end <= len(text)):
        raise ValueError(
            f"span {start}:{end} out of range for text of {len(text)} codepoints"
        )
    index, past = divmod(start, _CHECKPOINT_EVERY)
    byte_start = _checkpoint_bytes(text)[index] + len(text[start - past : start].encode("utf-8"))
    byte_end = byte_start + len(text[start:end].encode("utf-8"))
    return (byte_start, byte_end)


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

    The haystack is a context's ``Encoding.id_string``, one code point
    per id, so ``str.find`` searches in time linear in it; needle ids
    must lie in ``range(0x110000)``, as ``load_tokenizer`` guarantees. An
    empty needle matches at position 0.
    """
    start = haystack.find("".join(map(chr, needle)))
    return None if start < 0 else TokenSpan(start, start + len(needle))
