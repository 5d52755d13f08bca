"""Conversions between codepoint spans, byte spans, and token spans.

Dataset annotations index answers by codepoint; byte-level encodings index
by byte. These helpers translate between the two and locate the token runs
that realize a byte range or an id subsequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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


def codepoint_span_to_byte_span(text: str, span: CharSpan) -> tuple[int, int]:
    """Convert a codepoint span into the half-open UTF-8 byte range."""
    start, end = span.start, span.end
    if not (0 <= start <= end <= len(text)):
        raise ValueError(
            f"span {start}:{end} out of range for text of {len(text)} codepoints"
        )
    byte_start = len(text[:start].encode("utf-8"))
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
    source_len = len(enc.source_bytes)
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


def find_subsequence(
    haystack: Sequence[int], needle: Sequence[int]
) -> TokenSpan | None:
    """Return the leftmost contiguous match of needle in haystack, if any.

    An empty needle matches at position 0. Ids must lie in
    ``range(0x110000)``, as ``load_tokenizer`` guarantees: each id becomes
    one code point, so ``str.find`` searches in time linear in the
    haystack.
    """
    m = len(needle)
    if m > len(haystack):
        return None
    start = "".join(map(chr, haystack)).find("".join(map(chr, needle)))
    return None if start < 0 else TokenSpan(start, start + m)
