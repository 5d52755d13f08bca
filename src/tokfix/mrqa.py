"""Streaming reader/writer for MRQA-format datasets and prediction files.

An MRQA dataset is UTF-8 line-delimited JSON, optionally gzipped: the first
line is ``{"header": {...}}`` and each following line holds one context with
its questions. Reading is lazy; memory stays bounded by the largest single
record. Predictions are a single JSON object mapping qid to answer text.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import logging
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Union

from .align import CharSpan

if TYPE_CHECKING:
    from .consist import FixOutcome

logger = logging.getLogger(__name__)

ByteSource = Union[str, Path, IO[bytes]]


class DatasetError(Exception):
    """Fatal dataset problem: missing header, malformed JSON line, bad file."""


class SpanMismatchError(DatasetError):
    """A gold character span does not point at its answer text."""


@dataclass(frozen=True)
class ExtractiveExample:
    """One (context, question) pair with gold answers and detected spans.

    ``detected`` pairs each in-context answer text with its validated
    character spans, half-open; spans that fail validation are pruned by
    the reader and reported through its error channel.
    """

    qid: str
    context: str
    question: str
    gold_answers: tuple[str, ...] = ()
    detected: tuple[tuple[str, tuple[CharSpan, ...]], ...] = ()

    def answer_texts(self) -> list[str]:
        """The non-empty gold texts, or else the non-empty detected texts."""
        return [a for a in self.gold_answers if a] or [t for t, _ in self.detected if t]


def spans_match(snippet: str, answer: str) -> bool:
    """Span/text agreement modulo trailing-whitespace differences only."""
    return snippet == answer or snippet.rstrip() == answer.rstrip()


def _numbered_lines(source: ByteSource) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` pairs, gunzipping a gzip-magic source.

    A file opened here is closed when the generator finishes or is
    closed; a caller's stream is left to the caller, open. Bytes that are
    not UTF-8 or not a complete gzip stream raise DatasetError.
    """
    lineno = 1
    try:
        with contextlib.ExitStack() as stack:
            if isinstance(source, (str, Path)):
                source = stack.enter_context(open(source, "rb"))
            stream = source
            if not isinstance(stream, io.BufferedReader):
                stream = io.BufferedReader(source)  # type: ignore[arg-type]
                # a detached wrapper no longer closes the stream it wraps
                stack.callback(lambda wrapper=stream: wrapper.closed or wrapper.detach())
            if stream.peek(2)[:2] == b"\x1f\x8b":
                stream = stack.enter_context(gzip.GzipFile(fileobj=stream, mode="rb"))  # type: ignore[assignment]
            for line in stream:
                yield lineno, line.decode("utf-8")
                lineno += 1
    except (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DatasetError(f"line {lineno}: unreadable bytes: {exc}") from None


def read_dataset(
    source: ByteSource,
    *,
    on_error: Callable[[str], None] | None = None,
) -> tuple[dict, Iterator[ExtractiveExample]]:
    """Open a dataset and return its header object plus a lazy example stream.

    Compression is detected from the gzip magic bytes, and ``char_spans``
    end indices are inclusive, as in the MRQA release. Per-record
    problems (missing or wrong-typed fields, span/text mismatches) go to
    ``on_error`` and skip what they affect without stopping the stream;
    a malformed JSON line or undecodable bytes are fatal and raise
    DatasetError with the line number.

    The stream yields one example per question, in file order. Every
    example of one record shares a single ``context`` object;
    ``fix_dataset`` and ``analyze_dataset`` rely on this to encode each
    context once, and ``metrics.evaluate`` to normalize it once.
    """
    report = on_error if on_error is not None else logger.warning
    lines = _numbered_lines(source)
    try:
        _, first_line = next(lines, (1, ""))
        header = _parse_header(first_line)
    except DatasetError:
        lines.close()
        raise
    return header, _examples(lines, report)


def unique_qids(examples: Iterable[ExtractiveExample]) -> Iterator[ExtractiveExample]:
    """Pass examples through; raise DatasetError on a qid seen before.

    ``analyze_dataset``, ``fix_dataset`` and ``metrics.evaluate`` read
    through this. It is not part of ``read_dataset`` because its set of
    seen qids grows with the question count, while the reader's memory
    stays bounded by the largest record. An input with a ``close`` method,
    such as a ``read_dataset`` stream, is closed when this generator
    finishes or is closed.
    """
    seen: set[str] = set()
    try:
        for number, example in enumerate(examples, 1):
            if example.qid in seen:
                raise DatasetError(
                    f"duplicate qid {example.qid!r} in dataset "
                    f"(question {number} in file order)"
                )
            seen.add(example.qid)
            yield example
    finally:
        close = getattr(examples, "close", None)
        if close is not None:
            close()


def _parse_header(line: str) -> dict:
    if not line.strip():
        raise DatasetError("missing header: dataset file is empty")
    try:
        header_obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line 1: malformed JSON header: {exc}") from None
    if not isinstance(header_obj, dict) or "header" not in header_obj:
        raise DatasetError('line 1: expected {"header": {...}}')
    header_fields = header_obj["header"] or {}
    if not isinstance(header_fields, dict):
        raise DatasetError('line 1: "header" is not an object')
    return header_fields


def _examples(
    lines: Iterator[tuple[int, str]], report: Callable[[str], None]
) -> Iterator[ExtractiveExample]:
    with contextlib.closing(lines):
        for lineno, line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: malformed JSON: {exc}") from None
            if not isinstance(record, dict):
                report(f"line {lineno}: record is not an object; skipped")
                continue
            context = record.get("context")
            qas = record.get("qas")
            if not isinstance(context, str) or not isinstance(qas, list):
                report(f"line {lineno}: record lacks context/qas; skipped")
                continue
            for qa in qas:
                example = _parse_qa(context, qa, lineno, report)
                if example is not None:
                    yield example


def _parse_qa(
    context: str,
    qa: object,
    lineno: int,
    report: Callable[[str], None],
) -> ExtractiveExample | None:
    if not isinstance(qa, dict):
        report(f"line {lineno}: qa is not an object; skipped")
        return None
    qid = qa.get("qid")
    question = qa.get("question")
    if not qid or not isinstance(qid, str):
        report(f"line {lineno}: qa without qid; skipped")
        return None
    if not isinstance(question, str):
        report(f"line {lineno}: qid {qid}: missing question; skipped")
        return None
    answers = qa.get("answers", [])
    if not isinstance(answers, list):
        report(f"line {lineno}: qid {qid}: answers is not a list; skipped")
        return None
    detected_answers = qa.get("detected_answers", [])
    if not isinstance(detected_answers, list) or not all(
        isinstance(det, dict) for det in detected_answers
    ):
        report(f"line {lineno}: qid {qid}: detected_answers is not a list of objects; skipped")
        return None

    gold = tuple(a for a in answers if isinstance(a, str))

    detected: list[tuple[str, tuple[CharSpan, ...]]] = []
    for det in detected_answers:
        text_ = det.get("text")
        if not isinstance(text_, str):
            report(f"line {lineno}: qid {qid}: detected answer without text")
            continue
        pairs = det.get("char_spans", [])
        if not isinstance(pairs, list):
            report(f"line {lineno}: qid {qid}: unreadable char spans {pairs!r}")
            pairs = []
        spans: list[CharSpan] = []
        for pair in pairs:
            # two JSON integers; type() rather than isinstance() rejects bools
            if not (
                isinstance(pair, list) and len(pair) == 2 and all(type(i) is int for i in pair)
            ):
                report(f"line {lineno}: qid {qid}: unreadable char span {pair!r}")
                continue
            # MRQA ends are inclusive; CharSpan ends are not
            start, end = pair[0], pair[1] + 1
            if not (0 <= start <= end <= len(context)):
                report(f"line {lineno}: qid {qid}: span {pair!r} out of range")
                continue
            snippet = context[start:end]
            if not spans_match(snippet, text_):
                report(
                    f"line {lineno}: qid {qid}: span {pair!r} points at "
                    f"{snippet!r}, not {text_!r}"
                )
                continue
            spans.append(CharSpan(start, end))
        detected.append((text_, tuple(spans)))

    return ExtractiveExample(
        qid=qid,
        context=context,
        question=question,
        gold_answers=gold,
        detected=tuple(detected),
    )


def write_fixed_dataset(
    sink: Union[str, Path, IO[str]],
    header: dict,
    groups: Iterable[tuple[str, Iterable[tuple[ExtractiveExample, "FixOutcome"]]]],
) -> int:
    """Write one record per (context, repaired qas) group; return the qa count.

    Qas keep their given order. Each qa gains ``target_token_ids``,
    ``fix_method`` and ``context_token_span`` fields; a group without any
    qa writes nothing. The output stays readable by ``read_dataset`` (the
    extras are ignored on read). A path sink is gzipped when it ends in
    ``.gz`` and written through ``replace_on_success``, so an error while
    ``groups`` is consumed leaves no partial output.
    """
    if not isinstance(sink, (str, Path)):
        return _write_records(sink, header, groups)
    path = Path(sink)
    with replace_on_success(path) as stream, contextlib.ExitStack() as stack:
        if path.suffix == ".gz":
            stream = stack.enter_context(gzip.GzipFile(str(path), "wb", fileobj=stream))  # type: ignore[assignment]
        out = stack.enter_context(io.TextIOWrapper(stream, encoding="utf-8"))
        return _write_records(out, header, groups)


@contextlib.contextmanager
def replace_on_success(path: Union[str, Path]) -> Iterator[IO[bytes]]:
    """Yield a binary stream on a temporary file beside ``path``.

    The file replaces ``path`` when the block exits cleanly and is
    removed when it raises, so ``path`` never holds partial output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_records(
    out: IO[str],
    header: dict,
    groups: Iterable[tuple[str, Iterable[tuple[ExtractiveExample, "FixOutcome"]]]],
) -> int:
    out.write(json.dumps({"header": header}, ensure_ascii=False))
    out.write("\n")
    count = 0
    for context, pairs in groups:
        qas = [_fixed_qa(example, outcome) for example, outcome in pairs]
        if not qas:
            continue
        out.write(json.dumps({"context": context, "qas": qas}, ensure_ascii=False))
        out.write("\n")
        count += len(qas)
    return count


def _fixed_qa(example: ExtractiveExample, outcome: "FixOutcome") -> dict:
    return {
        "qid": example.qid,
        "question": example.question,
        "answers": list(example.gold_answers),
        "detected_answers": [
            {
                "text": text,
                "char_spans": [[span.start, span.end - 1] for span in spans],
            }
            for text, spans in example.detected
        ],
        "target_token_ids": list(outcome.target_ids),
        "fix_method": outcome.method,
        "context_token_span": (
            [outcome.context_span.start, outcome.context_span.end]
            if outcome.context_span is not None
            else None
        ),
    }


def read_predictions(source: Union[str, Path, IO[bytes], IO[str]]) -> dict[str, str]:
    """Parse a qid -> answer-text JSON object; duplicates and non-strings fail."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"predictions are not UTF-8: {exc}") from None

    def reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DatasetError(f"duplicate qid {key!r} in predictions")
            obj[key] = value
        return obj

    try:
        parsed = json.loads(data, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed predictions JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise DatasetError("predictions must be a JSON object of qid -> text")
    for qid, answer in parsed.items():
        if not isinstance(answer, str):
            raise DatasetError(
                f"prediction for qid {qid!r} is {type(answer).__name__}, not text"
            )
    return parsed
