"""In-process tracing of one ``tokfix`` CLI run, from outside the package.

``Tracer.install`` rebinds the public functions of ``bpe``, ``align``,
``consist``, ``mrqa`` and ``metrics`` under the names their callers look
up (``tokfix.consist.encode``, ``tokfix.bpe.pretokenize``,
``tokfix.cli.read_dataset`` ...) to wrappers that record one span per
call: name, start, end and the index of the enclosing span. Nothing under
``src/`` is modified, and ``Tracer.restore`` puts the originals back.
Spans stay in memory until ``write`` stores them; ``layer_metrics``
reduces them to per-layer numbers, where a layer's self time is its span
time minus the time of the spans it encloses.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

FIX_METHODS = (
    "already_consistent",
    "exact_slice",
    "expanded_slice",
    "subsequence_search",
    "unresolved",
)
SKIP_REASONS = ("skipped_no_answer", "skipped_span_mismatch")
VERDICTS = ("consistent_raw", "consistent_prefix_space", "inconsistent")


class Tracer:
    def __init__(self) -> None:
        # one [name, start, end, parent] list per span, parent -1 at the root
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: Counter[str] = Counter()
        self.context_texts: set[str] = set()
        self.context_encode_s: list[float] = []
        self.segments_seen: set[str] = set()
        self.encoded_tokens = 0
        self.max_segment = 0
        self.normalized_chars = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, module: object, attr: str, replacement: object) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        from tokfix import bpe, cli, consist, metrics

        self._patch(cli, "load_tokenizer", self.timed("cli.load_tokenizer", cli.load_tokenizer))
        self._patch(cli, "read_dataset", self._read_dataset(cli.read_dataset))
        self._patch(
            cli, "read_predictions", self.timed("mrqa.read_predictions", cli.read_predictions)
        )
        self._patch(
            consist,
            "write_fixed_dataset",
            self.timed("mrqa.write_fixed_dataset", consist.write_fixed_dataset),
        )
        self._patch(consist, "encode", self.timed("bpe.encode", consist.encode, self._encoded))
        self._patch(
            bpe, "pretokenize", self.timed("bpe.pretokenize", bpe.pretokenize, self._segmented)
        )
        for name in ("find_subsequence", "token_slice_for_span"):
            self._patch(consist, name, self.timed(f"align.{name}", getattr(consist, name)))
        self._patch(
            consist,
            "answer_variants",
            self.timed("consist.answer_variants", consist.answer_variants),
        )
        self._patch(consist, "make_consistent_target", self._ladder(consist))
        self._patch(
            consist,
            "check_consistency",
            self.timed("consist.check_consistency", consist.check_consistency, self._verdict),
        )
        self._patch(consist, "repair_answer_choice", self._choice(consist.repair_answer_choice))
        for name in ("analyze_dataset", "fix_dataset"):
            self._patch(cli, name, self.timed(f"consist.{name}", getattr(cli, name)))
        self._patch(cli, "evaluate", self.timed("metrics.evaluate", cli.evaluate, self._scored))
        self._patch(
            cli,
            "paired_significance",
            self.timed("metrics.paired_significance", cli.paired_significance),
        )
        self._patch(
            metrics,
            "normalize_answer",
            self.timed("metrics.normalize_answer", metrics.normalize_answer, self._normalized),
        )

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- wrappers that also count ------------------------------------------

    def _read_dataset(self, read_dataset: Callable) -> Callable:
        def wrapper(source, *, on_error=None, **kwargs):
            from tokfix import mrqa

            report = on_error if on_error is not None else mrqa.logger.warning

            def counting(message: str) -> None:
                self.counts["span_issues"] += 1
                report(message)

            header, stream = read_dataset(source, on_error=counting, **kwargs)
            return header, self._traced_stream(stream)

        return wrapper

    def _traced_stream(self, stream):
        while True:
            index = self.open("mrqa.read")
            try:
                example = next(stream)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.counts["questions"] += 1
            yield example

    def _encoded(self, index: int, args: tuple, enc) -> None:
        self.encoded_tokens += len(enc.ids)
        _, start, end, parent = self.spans[index]
        if parent < 0 or self.spans[parent][0] != "consist.answer_variants":
            self.context_encode_s.append(end - start)
            self.context_texts.add(args[1])

    def _segmented(self, index: int, args: tuple, segments: list) -> None:
        self.counts["segments"] += len(segments)
        for segment, _ in segments:
            self.segments_seen.add(segment)
            if len(segment) > self.max_segment:
                self.max_segment = len(segment)

    def _ladder(self, consist) -> Callable:
        make = consist.make_consistent_target

        def wrapper(*args, **kwargs):
            index = self.open("consist.make_consistent_target")
            try:
                outcome = make(*args, **kwargs)
            except consist.SpanMismatchError:
                self.counts["method.skipped_span_mismatch"] += 1
                raise
            finally:
                self.close(index)
            self.counts[f"method.{outcome.method}"] += 1
            return outcome

        return wrapper

    def _verdict(self, index: int, args: tuple, verdict) -> None:
        self.counts[f"verdict.{verdict.status}"] += 1

    def _choice(self, choose: Callable) -> Callable:
        def wrapper(example):
            choice = choose(example)
            if choice is None:
                self.counts["method.skipped_no_answer"] += 1
            return choice

        return wrapper

    def _scored(self, index: int, args: tuple, report) -> None:
        self.counts["scored"] += report.n

    def _normalized(self, index: int, args: tuple, result: str) -> None:
        self.normalized_chars += len(args[0])

    # -- reduction ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per span name: total time, self time and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write('{"fields": ["name", "start_s", "end_s", "parent"]}\n')
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    tracer: Tracer,
    *,
    input_bytes: int,
    input_records: int,
    written_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); 0 where a layer did no work."""
    total, own, calls = tracer.totals()
    counts = tracer.counts
    context_calls = len(tracer.context_encode_s)
    segments = counts["segments"]

    def per_call_us(name: str, seconds: dict[str, float]) -> float:
        return _rate(seconds[name] * 1e6, calls[name])

    m: dict[str, tuple[float, str]] = {
        "cli.load_tokenizer_s": (total["cli.load_tokenizer"], "s"),
        "mrqa.read.mb_per_s": (_rate(input_bytes / 1e6, own["mrqa.read"]), "MB/s"),
        "mrqa.read.records": (input_records, "count"),
        "mrqa.read.questions": (counts["questions"], "count"),
        "mrqa.read.span_issues": (counts["span_issues"], "count"),
        "mrqa.read_predictions_s": (total["mrqa.read_predictions"], "s"),
        "mrqa.write.bytes": (written_bytes, "B"),
        "mrqa.write.mb_per_s": (
            _rate(written_bytes / 1e6, own["mrqa.write_fixed_dataset"]),
            "MB/s",
        ),
        "bpe.encode.tok_per_s": (_rate(tracer.encoded_tokens, total["bpe.encode"]), "tok/s"),
        "bpe.encode.context_calls": (context_calls, "count"),
        "bpe.encode.context_distinct": (len(tracer.context_texts), "count"),
        "bpe.encode.context_useful_ratio": (
            _rate(len(tracer.context_texts), context_calls),
            "ratio",
        ),
        "bpe.pretokenize.self_s": (own["bpe.pretokenize"], "s"),
        "bpe.pretokenize.segments_per_s": (_rate(segments, own["bpe.pretokenize"]), "seg/s"),
        "bpe.merge.self_s": (own["bpe.encode"], "s"),
        "bpe.segments": (segments, "count"),
        "bpe.segments_distinct": (len(tracer.segments_seen), "count"),
        "bpe.segment_memo.hit_ratio": (
            _rate(segments - len(tracer.segments_seen), segments),
            "ratio",
        ),
        "bpe.segment.max_chars": (tracer.max_segment, "chars"),
        "bpe.encode.us_p50": (_percentile(tracer.context_encode_s, 0.50) * 1e6, "us"),
        "bpe.encode.us_p99": (_percentile(tracer.context_encode_s, 0.99) * 1e6, "us"),
        "align.find_subsequence.calls": (calls["align.find_subsequence"], "count"),
        "align.find_subsequence.us_per_call": (per_call_us("align.find_subsequence", total), "us"),
        "align.token_slice_for_span.calls": (calls["align.token_slice_for_span"], "count"),
        "align.token_slice_for_span.us_per_call": (
            per_call_us("align.token_slice_for_span", total),
            "us",
        ),
        "consist.answer_variants.s": (total["consist.answer_variants"], "s"),
        "consist.ladder.us_per_question": (
            per_call_us("consist.make_consistent_target", own),
            "us",
        ),
        "consist.check.us_per_question": (per_call_us("consist.check_consistency", own), "us"),
    }
    for method in FIX_METHODS + SKIP_REASONS:
        m[f"consist.method.{method}"] = (counts[f"method.{method}"], "count")
    for status in VERDICTS:
        m[f"consist.verdict.{status}"] = (counts[f"verdict.{status}"], "count")
    m.update(
        {
            "metrics.normalize.calls": (calls["metrics.normalize_answer"], "count"),
            "metrics.normalize.chars": (tracer.normalized_chars, "chars"),
            "metrics.normalize.s": (total["metrics.normalize_answer"], "s"),
            "metrics.evaluate.us_per_question": (
                _rate(total["metrics.evaluate"] * 1e6, counts["scored"]),
                "us",
            ),
            "metrics.significance.s": (total["metrics.paired_significance"], "s"),
        }
    )
    return m
