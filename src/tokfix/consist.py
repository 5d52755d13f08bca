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
from pathlib import Path
from typing import Collection, Iterable, Iterator, Union

from .bpe import (
    SEPARATOR_ID,
    Encoding,
    TokenSpan,
    Tokenizer,
    decode,
    encode,
    find_subsequence,
    split_point,
    token_slice_for_span,
)
from .mrqa import (
    CharSpan,
    DatasetError,
    ExtractiveExample,
    records,
    span_mismatch,
    unique_qids,
    write_fixed_dataset,
)

# verdict statuses
CONSISTENT_RAW = "consistent_raw"
CONSISTENT_PREFIX_SPACE = "consistent_prefix_space"
INCONSISTENT = "inconsistent"

# verdicts from most to least favorable
_VERDICTS = (CONSISTENT_RAW, CONSISTENT_PREFIX_SPACE, INCONSISTENT)

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


class SpanMismatchError(DatasetError):
    """A gold character span does not point at its answer text."""


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
    unresolved fallback keeps the stripped answer's standalone ids so
    dataset size stays fixed.
    """

    target_ids: tuple[int, ...]
    method: str
    context_span: TokenSpan | None
    note: str


def answer_variants(
    tok: Tokenizer, answer: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tokenize ``answer.strip()`` as-is and with one prepended space; refuse a blank one."""
    answer = answer.strip()
    if not answer:
        raise ValueError("answer must not be blank")
    raw = encode(tok, answer).ids
    prefixed = encode(tok, " " + answer).ids
    return raw, prefixed


def check_consistency(context_enc: Encoding, answer: str) -> ConsistencyVerdict:
    """Test whether the answer's ids under ``context_enc.tok`` occur
    verbatim in the context ids; a blank answer raises ValueError.

    Both variants are of ``answer.strip()``. The raw one is tried first,
    then the prefix-space one: the span-less ladder's search, so the three
    verdicts map onto ``already_consistent``, ``subsequence_search`` and
    ``unresolved`` there, at the same location.
    """
    raw, prefixed = answer_variants(context_enc.tok, answer)
    for ids, status in ((raw, CONSISTENT_RAW), (prefixed, CONSISTENT_PREFIX_SPACE)):
        location = find_subsequence(context_enc.id_string, ids)
        if location is not None:
            return ConsistencyVerdict(status, location)
    return ConsistencyVerdict(INCONSISTENT)


def _decoded_matches(tok: Tokenizer, ids: tuple[int, ...], answer: str) -> bool:
    """True when ids decode to the stripped answer modulo edge whitespace."""
    try:
        decoded = decode(tok, ids)
    except UnicodeDecodeError:
        return False
    return decoded.strip() == answer


def make_consistent_target(
    context: str,
    context_enc: Encoding,
    answer: str,
    gold_span: CharSpan | None = None,
) -> FixOutcome:
    """Extract target ids from the context encoding; first rung wins.

    The gold span is checked against the answer with its edge whitespace,
    then narrowed to ``answer.strip()``, which every rung works on, as
    every command does. Ladder: (1) the raw standalone ids already sit at
    the gold span; (2) some token run covers the gold span's characters
    exactly; (3) the minimal covering run decodes to the answer modulo
    edge whitespace; (4) the context ids are searched for one variant
    after another: with a span the prefix-space variant, then the raw
    one; without a span the raw variant (rung 1 when found), then the
    prefix-space one; (5) unresolved fallback to the stripped answer's
    standalone ids. ``context`` must be the source of ``context_enc``:
    rungs 1-3 find the gold span's code points among its tokens with
    ``token_slice_for_span``. The answer is encoded with ``context_enc.tok``,
    at most once and only where ids are compared: for an exact run, rung 1
    or 2, and at rungs 4-5; rung 3 reads the context's ids alone.

    Raises ValueError for a blank answer, and SpanMismatchError with
    ``mrqa.span_mismatch``'s reason when ``gold_span`` misses the answer.
    """
    tok = context_enc.tok
    stripped = answer.strip()
    if not stripped:
        raise ValueError("answer must not be blank")
    if gold_span is not None:
        start, stop = gold_span.start, gold_span.end
        mismatch = span_mismatch(context, start, stop, answer)
        if mismatch is not None:
            raise SpanMismatchError(f"gold span {start}:{stop} {mismatch}")
        start += len(answer) - len(answer.lstrip())
        end = start + len(stripped)
        span, exact = token_slice_for_span(context_enc, context, start, end)
        slice_ids = context_enc.ids[span.start : span.end]
        if exact and slice_ids == answer_variants(tok, stripped)[0]:
            return FixOutcome(
                slice_ids, ALREADY_CONSISTENT, span, "raw standalone ids sit at the gold span"
            )
        if exact:
            note = "token run covers the gold span exactly"
            return FixOutcome(slice_ids, EXACT_SLICE, span, note)
        if _decoded_matches(tok, slice_ids, stripped):
            note = "minimal covering run matches modulo edge whitespace"
            return FixOutcome(slice_ids, EXPANDED_SLICE, span, note)

    raw, prefixed = answer_variants(tok, stripped)
    prefix_search = (prefixed, SUBSEQUENCE_SEARCH, "prefix-space variant found in context")
    if gold_span is None:
        searches = ((raw, ALREADY_CONSISTENT, "raw standalone ids found in context"), prefix_search)
    else:
        searches = (prefix_search, (raw, SUBSEQUENCE_SEARCH, "raw variant found in context"))
    for ids, method, note in searches:
        location = find_subsequence(context_enc.id_string, ids)
        if location is not None:
            return FixOutcome(ids, method, location, note)
    return FixOutcome(
        raw, UNRESOLVED, None, "no faithful context slice found; raw standalone ids kept"
    )


def analyze_dataset(
    tok: Tokenizer,
    examples: Iterable[ExtractiveExample],
    *,
    sample_size: int | None = None,
    seed: int = 42,
    answer_policy: str = "first",
) -> dict:
    """Tally consistency verdicts over a dataset, one per question; return
    the ``analyze`` report row.

    The row holds the three verdict counts (``consistent_raw``,
    ``consistent_prefix_only``, ``inconsistent``), their ``total``, and
    as percentages of the total rounded to 4 places (0.0 when it is 0)
    ``pct_inconsistent_raw``, the share whose raw standalone ids are
    absent from the context ids, and ``pct_inconsistent_after_prefix``,
    the share still absent once the prefix-space variant is allowed.
    ``answer_policy="first"`` judges the first of ``answer_texts()``,
    which are stripped; ``"any"`` counts the most favorable verdict across
    all of them, and a question without one is skipped. ``sample_size``
    takes a uniform reservoir sample in stream order, deterministic for a
    fixed seed and input order. A repeated qid raises DatasetError.

    Each ``records`` run of the (sampled) stream encodes only windows of
    its context around the occurrences of its distinct judged answers.
    An occurrence's window runs from the ``split_point`` at or before the
    character ahead of it to the one at or after its end (``_pieces``).
    No segment crosses a split point, so a window's ids are a slice of
    the context's ids that holds every match of either variant there.
    Overlapping windows are merged into pieces, each piece is encoded
    once, and their ids are joined with ``SEPARATOR_ID``, an id that
    ``load_tokenizer`` refuses and so no needle holds: no match straddles
    two pieces, and the verdicts equal those over the whole context. A
    record makes at most one window per 16 characters of its context plus
    two per answer: past that budget, each answer's remaining occurrences
    take one window. A record whose context holds none of its answers is
    not encoded.
    """
    if answer_policy not in ("first", "any"):
        raise ValueError(f"unknown answer policy {answer_policy!r}")

    examples = unique_qids(examples)
    if sample_size is not None:
        examples = _reservoir_sample(examples, sample_size, seed)

    counts: Counter[str] = Counter()
    for record in records(examples):
        context = record[0].context
        judged = [example.answer_texts() for example in record]
        if answer_policy == "first":
            judged = [answers[:1] for answers in judged]
        ids: list[int] = []
        for lo, hi in _pieces(context, dict.fromkeys(a for answers in judged for a in answers)):
            if ids:
                ids.append(SEPARATOR_ID)
            ids.extend(encode(tok, context[lo:hi]).ids)
        joined = Encoding(tuple(ids), tok)
        for answers in judged:
            if not answers:
                continue
            best = INCONSISTENT
            for answer in dict.fromkeys(answers):
                verdict = check_consistency(joined, answer)
                best = min(best, verdict.status, key=_VERDICTS.index)
                if best == CONSISTENT_RAW:
                    break
            counts[best] += 1
    raw, prefix_only, inconsistent = (counts[status] for status in _VERDICTS)
    total = raw + prefix_only + inconsistent
    pct = [round(100.0 * n / total, 4) if total else 0.0 for n in (total - raw, inconsistent)]
    return {
        "consistent_raw": raw,
        "consistent_prefix_only": prefix_only,
        "inconsistent": inconsistent,
        "total": total,
        "pct_inconsistent_raw": pct[0],
        "pct_inconsistent_after_prefix": pct[1],
    }


def _pieces(context: str, answers: Collection[str]) -> list[tuple[int, int]]:
    """Disjoint, sorted split-point ranges of context covering, with the
    character ahead of each, every occurrence of every answer.

    An occurrence's window ends at the first split point at or after its
    end, and the walk over an answer's occurrences resumes where the next
    one would end past that window. Each window costs one step of a
    budget of ``len(context) // 16`` plus one per answer; once it is
    spent, each answer's remaining occurrences up to its last take one
    window, so the number of windows stays linear in the record's size.
    """
    budget = len(context) // 16 + len(answers)
    windows = []
    for answer in answers:
        at = context.find(answer)
        while at >= 0:
            lo = split_point(context, max(at - 1, 0), after=False)
            if budget <= 0:
                at = context.rfind(answer)
            budget -= 1
            hi = split_point(context, at + len(answer), after=True)
            windows.append((lo, hi))
            at = context.find(answer, hi - len(answer) + 1)
    pieces: list[tuple[int, int]] = []
    for lo, hi in sorted(windows):
        if pieces and lo <= pieces[-1][1]:
            lo, end = pieces.pop()
            hi = max(hi, end)
        pieces.append((lo, hi))
    return pieces


def _reservoir_sample(
    stream: Iterable[ExtractiveExample], k: int, seed: int
) -> list[ExtractiveExample]:
    """A uniform sample of k items, in stream order, so each ``records``
    run of it holds every sampled question of one record."""
    rng = random.Random(seed)
    sample: list[tuple[int, ExtractiveExample]] = []
    for i, item in enumerate(stream):
        if i < k:
            sample.append((i, item))
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = (i, item)
    return [item for _, item in sorted(sample, key=lambda pair: pair[0])]


def repair_answer_choice(
    example: ExtractiveExample,
) -> tuple[str, CharSpan | None] | None:
    """Pick the answer to repair: first detected text with a valid span,
    else the first detected text, else the first gold answer; a blank
    text is no answer."""
    for text, spans in example.detected:
        if text.strip() and spans:
            return text, spans[0]
    for text, _ in example.detected:
        if text.strip():
            return text, None
    for text in example.gold_answers:
        if text.strip():
            return text, None
    return None


def _fix_fields(outcome: FixOutcome) -> dict:
    """The fields a repaired qa carries after the ones it was read with."""
    span = outcome.context_span
    return {
        "target_token_ids": list(outcome.target_ids),
        "fix_method": outcome.method,
        "context_token_span": [span.start, span.end] if span is not None else None,
    }


def fix_dataset(
    tok: Tokenizer,
    examples: Iterable[ExtractiveExample],
    path: Union[str, Path],
    *,
    header: dict | None = None,
) -> dict:
    """Repair every example and write the fixed dataset; return a summary.

    Each repaired qa is written as read plus ``target_token_ids``,
    ``fix_method`` and ``context_token_span``, which overwrite any already
    there, so fixing the output again gives the same bytes.
    ``write_fixed_dataset`` gets one list of repaired ``(example, fields)``
    pairs per ``records`` run, that is per input line, so a record whose
    qas are all skipped is not written. A record's context is encoded
    once, when its first qa is repaired, so an all-skipped record is never
    encoded. The summary's method counts plus the skip counts
    partition the input total; ``written`` is the sum of the method
    counts. Span mismatches are counted and skipped, never fatal; a
    repeated qid raises DatasetError.
    """
    counts: Counter[str] = Counter()

    def repaired() -> Iterator[list[tuple[ExtractiveExample, dict]]]:
        for record in records(unique_qids(examples)):
            context, context_enc, pairs = record[0].context, None, []
            for example in record:
                choice = repair_answer_choice(example)
                if choice is None:
                    counts["skipped_no_answer"] += 1
                    continue
                if context_enc is None:
                    context_enc = encode(tok, context)
                try:
                    outcome = make_consistent_target(context, context_enc, *choice)
                except SpanMismatchError:
                    counts["skipped_span_mismatch"] += 1
                    continue
                counts[outcome.method] += 1
                pairs.append((example, _fix_fields(outcome)))
            yield pairs

    write_fixed_dataset(path, header or {}, repaired())
    method_counts = {method: counts[method] for method in FIX_METHODS}
    return {
        "total": sum(counts.values()),
        "written": sum(method_counts.values()),
        "counts": method_counts,
        "skipped_no_answer": counts["skipped_no_answer"],
        "skipped_span_mismatch": counts["skipped_span_mismatch"],
    }
