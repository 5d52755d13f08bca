"""Consistency checking and repair of tokenized extraction targets.

A training target is consistently tokenized when its token ids appear
verbatim as a contiguous slice of the tokenized context. Standalone
tokenization of the answer string frequently breaks this (a missing prefix
space is the dominant cause), so the repair extracts the target ids from
the context encoding instead of tokenizing the answer in isolation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Union

from .align import (
    CharSpan,
    TokenSpan,
    codepoint_span_to_byte_span,
    find_subsequence,
    token_slice_for_span,
)
from .bpe import Encoding, Tokenizer, decode_bytes, encode
from .mrqa import (
    ExtractiveExample,
    SpanMismatchError,
    spans_match,
    unique_qids,
    write_fixed_dataset,
)

# verdict statuses
CONSISTENT_RAW = "consistent_raw"
CONSISTENT_PREFIX_SPACE = "consistent_prefix_space"
INCONSISTENT = "inconsistent"

# repair methods, in ladder order
ALREADY_CONSISTENT = "already_consistent"
EXACT_SLICE = "exact_slice"
EXPANDED_SLICE = "expanded_slice"
SUBSEQUENCE_SEARCH = "subsequence_search"
UNRESOLVED = "unresolved"

FIX_METHODS = (
    ALREADY_CONSISTENT,
    EXACT_SLICE,
    EXPANDED_SLICE,
    SUBSEQUENCE_SEARCH,
    UNRESOLVED,
)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """How an answer's standalone tokenization relates to the context's.

    ``consistent_raw``: the raw standalone ids occur verbatim in the
    context ids. ``consistent_prefix_space``: only the prefix-space
    variant occurs. ``inconsistent``: neither does.
    """

    status: str
    location: TokenSpan | None = None


@dataclass(frozen=True)
class FixOutcome:
    """Repaired target ids plus the ladder rung that produced them.

    For every method except ``unresolved``, ``target_ids`` is the
    contiguous slice of the context encoding at ``context_span``; the
    unresolved fallback keeps the raw standalone tokenization so dataset
    size stays fixed.
    """

    target_ids: tuple[int, ...]
    method: str
    context_span: TokenSpan | None = None
    note: str = ""


@dataclass
class ConsistencyStats:
    """Dataset-level consistency tallies; counts partition ``total``."""

    total: int = 0
    consistent_raw: int = 0
    consistent_prefix_only: int = 0
    inconsistent: int = 0

    @property
    def pct_inconsistent_raw(self) -> float:
        """Share whose raw standalone ids are absent from the context ids."""
        if self.total == 0:
            return 0.0
        return 100.0 * (self.consistent_prefix_only + self.inconsistent) / self.total

    @property
    def pct_inconsistent_after_prefix(self) -> float:
        """Share still inconsistent once the prefix-space variant is allowed."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.inconsistent / self.total

    def add(self, status: str) -> None:
        self.total += 1
        if status == CONSISTENT_RAW:
            self.consistent_raw += 1
        elif status == CONSISTENT_PREFIX_SPACE:
            self.consistent_prefix_only += 1
        else:
            self.inconsistent += 1

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "consistent_raw": self.consistent_raw,
            "consistent_prefix_only": self.consistent_prefix_only,
            "inconsistent": self.inconsistent,
            "pct_inconsistent_raw": round(self.pct_inconsistent_raw, 4),
            "pct_inconsistent_after_prefix": round(self.pct_inconsistent_after_prefix, 4),
        }


def answer_variants(
    tok: Tokenizer, answer: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tokenize the answer as-is and with one prepended space."""
    if not answer:
        raise ValueError("answer must be non-empty")
    raw = encode(tok, answer).ids
    prefixed = encode(tok, " " + answer).ids
    return raw, prefixed


def check_consistency(
    tok: Tokenizer, context_enc: Encoding, answer: str
) -> ConsistencyVerdict:
    """Test whether the answer's ids occur verbatim in the context ids.

    The raw variant is tried first; the prefix-space variant only decides
    between ``consistent_prefix_space`` and ``inconsistent``.
    """
    raw, prefixed = answer_variants(tok, answer)
    location = find_subsequence(context_enc.ids, raw)
    if location is not None:
        return ConsistencyVerdict(CONSISTENT_RAW, location)
    location = find_subsequence(context_enc.ids, prefixed)
    if location is not None:
        return ConsistencyVerdict(CONSISTENT_PREFIX_SPACE, location)
    return ConsistencyVerdict(INCONSISTENT)


def _decoded_matches(tok: Tokenizer, ids: tuple[int, ...], answer: str) -> bool:
    """True when ids decode to the answer modulo edge whitespace."""
    try:
        decoded = decode_bytes(tok, ids).decode("utf-8")
    except UnicodeDecodeError:
        return False
    return decoded == answer or decoded.strip() == answer


def make_consistent_target(
    tok: Tokenizer,
    context: str,
    context_enc: Encoding,
    answer: str,
    gold_span: CharSpan | None = None,
) -> FixOutcome:
    """Extract target ids from the context encoding; first rung wins.

    Ladder: (1) the raw standalone ids already sit at the gold span (or
    anywhere, without a span); (2) some token run covers the gold span's
    bytes exactly; (3) the minimal covering run decodes to the answer
    modulo edge whitespace; (4) the prefix-space variant, then the raw
    variant, occurs anywhere in the context ids; (5) unresolved fallback
    to the raw standalone ids.

    Raises SpanMismatchError when the context text at ``gold_span`` is not
    the answer (corrupt data).
    """
    raw, prefixed = answer_variants(tok, answer)
    ctx_ids = context_enc.ids

    byte_span: tuple[int, int] | None = None
    if gold_span is not None:
        start, stop = gold_span.start, gold_span.end
        if not (0 <= start <= stop <= len(context)):
            raise SpanMismatchError(
                f"gold span {start}:{stop} out of range for context"
            )
        if not spans_match(context[start:stop], answer):
            raise SpanMismatchError(
                f"gold span points at {context[start:stop]!r}, not {answer!r}"
            )
        byte_span = codepoint_span_to_byte_span(context, gold_span)

    if byte_span is None:
        location = find_subsequence(ctx_ids, raw)
        if location is not None:
            return FixOutcome(
                target_ids=raw,
                method=ALREADY_CONSISTENT,
                context_span=location,
                note="raw standalone ids found in context",
            )
    else:
        found = token_slice_for_span(context_enc, byte_span)
        if found is not None:
            span, exact = found
            slice_ids = ctx_ids[span.start : span.end]
            if exact:
                if slice_ids == raw:
                    return FixOutcome(
                        target_ids=raw,
                        method=ALREADY_CONSISTENT,
                        context_span=span,
                        note="raw standalone ids sit at the gold span",
                    )
                return FixOutcome(
                    target_ids=slice_ids,
                    method=EXACT_SLICE,
                    context_span=span,
                    note="token run covers the gold span exactly",
                )
            if _decoded_matches(tok, slice_ids, answer):
                return FixOutcome(
                    target_ids=slice_ids,
                    method=EXPANDED_SLICE,
                    context_span=span,
                    note="minimal covering run matches modulo edge whitespace",
                )

    for ids, label in ((prefixed, "prefix-space variant"), (raw, "raw variant")):
        location = find_subsequence(ctx_ids, ids)
        if location is not None:
            return FixOutcome(
                target_ids=ids,
                method=SUBSEQUENCE_SEARCH,
                context_span=location,
                note=f"{label} found in context",
            )

    return FixOutcome(
        target_ids=raw,
        method=UNRESOLVED,
        context_span=None,
        note="no faithful context slice found; raw standalone ids kept",
    )


def analyze_dataset(
    tok: Tokenizer,
    examples: Iterable[ExtractiveExample],
    *,
    sample_size: int | None = None,
    seed: int = 42,
    answer_policy: str = "first",
) -> ConsistencyStats:
    """Tally consistency verdicts over a dataset, one per question.

    ``answer_policy="first"`` judges the first gold answer;
    ``"any"`` counts the most favorable verdict across all gold answers.
    ``sample_size`` takes a uniform reservoir sample, deterministic for a
    fixed seed and input order. Questions without any answer text are
    skipped, and a repeated qid raises DatasetError. A context is encoded
    again only when an example's ``context`` is not the object the
    previous judged example used, so the questions of one
    ``read_dataset`` record share one encoding.
    """
    if answer_policy not in ("first", "any"):
        raise ValueError(f"unknown answer policy {answer_policy!r}")

    examples = unique_qids(examples)
    if sample_size is not None:
        examples = _reservoir_sample(examples, sample_size, seed)

    stats = ConsistencyStats()
    context: str | None = None
    for example in examples:
        answers = example.answer_texts()
        if not answers:
            continue
        if answer_policy == "first":
            answers = answers[:1]
        if example.context is not context:
            context = example.context
            context_enc = encode(tok, context)
        best = None
        for answer in answers:
            verdict = check_consistency(tok, context_enc, answer)
            if best is None or _VERDICT_ORDER[verdict.status] < _VERDICT_ORDER[best]:
                best = verdict.status
            if best == CONSISTENT_RAW:
                break
        stats.add(best)
    return stats


_VERDICT_ORDER = {CONSISTENT_RAW: 0, CONSISTENT_PREFIX_SPACE: 1, INCONSISTENT: 2}


def _reservoir_sample(
    stream: Iterable[ExtractiveExample], k: int, seed: int
) -> list[ExtractiveExample]:
    rng = random.Random(seed)
    sample: list[ExtractiveExample] = []
    for i, item in enumerate(stream):
        if i < k:
            sample.append(item)
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = item
    return sample


def repair_answer_choice(
    example: ExtractiveExample,
) -> tuple[str, CharSpan | None] | None:
    """Pick the answer to repair: first detected text with a valid span,
    else the first detected text, else the first gold answer."""
    for text, spans in example.detected:
        if text and spans:
            return text, spans[0]
    for text, _ in example.detected:
        if text:
            return text, None
    for text in example.gold_answers:
        if text:
            return text, None
    return None


def _records(
    examples: Iterable[ExtractiveExample],
) -> Iterator[list[ExtractiveExample]]:
    """Split an example stream into runs that share one context object."""
    record: list[ExtractiveExample] = []
    for example in examples:
        if record and example.context is not record[0].context:
            yield record
            record = []
        record.append(example)
    if record:
        yield record


def fix_dataset(
    tok: Tokenizer,
    examples: Iterable[ExtractiveExample],
    sink: Union[str, "IO[str]"],
    *,
    header: dict | None = None,
) -> dict:
    """Repair every example and write the fixed dataset; return a summary.

    Consecutive examples that share one ``context`` object, as the
    examples of one ``read_dataset`` record do, are repaired against one
    encoding of it, made when the first of them needs it, and written
    back as one record with their qas in input order. Python may share
    one object between equal empty or one-character strings, so records
    with such a context can merge. A record whose qas were all skipped
    is dropped. The summary's method counts plus the skip counts
    partition the input total; ``written`` counts the repaired qas. Span
    mismatches are counted and skipped, never fatal; a repeated qid
    raises DatasetError.
    """
    counts: Counter[str] = Counter()
    total = 0

    def groups() -> Iterator[tuple[str, list[tuple[ExtractiveExample, FixOutcome]]]]:
        nonlocal total
        for record in _records(unique_qids(examples)):
            total += len(record)
            context = record[0].context
            context_enc: Encoding | None = None
            pairs: list[tuple[ExtractiveExample, FixOutcome]] = []
            for example in record:
                choice = repair_answer_choice(example)
                if choice is None:
                    counts["skipped_no_answer"] += 1
                    continue
                answer, span = choice
                if context_enc is None:
                    context_enc = encode(tok, context)
                try:
                    outcome = make_consistent_target(
                        tok, context, context_enc, answer, span
                    )
                except SpanMismatchError:
                    counts["skipped_span_mismatch"] += 1
                    continue
                counts[outcome.method] += 1
                pairs.append((example, outcome))
            yield context, pairs

    written = write_fixed_dataset(sink, header or {}, groups())
    summary = {
        "total": total,
        "written": written,
        "counts": {method: counts.get(method, 0) for method in FIX_METHODS},
        "skipped_no_answer": counts.get("skipped_no_answer", 0),
        "skipped_span_mismatch": counts.get("skipped_span_mismatch", 0),
    }
    return summary
