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
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Union

logger = logging.getLogger(__name__)

# a JSON escape of a UTF-16 surrogate; paired ones decode to one code point
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class DatasetError(Exception):
    """Fatal dataset problem: missing header, malformed JSON line, bad file."""


@dataclass(frozen=True)
class CharSpan:
    """A half-open codepoint range [start, end)."""

    start: int
    end: int


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
    return snippet.rstrip() == answer.rstrip()


def _numbered_lines(path: Union[str, Path]) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` pairs, gunzipping a gzip-magic file.

    The file is closed when the generator finishes or is closed. Bytes
    that are not UTF-8 or not a complete gzip stream raise DatasetError.
    """
    lineno = 1
    try:
        with contextlib.ExitStack() as stack:
            stream = stack.enter_context(open(path, "rb"))
            if stream.peek(2)[:2] == b"\x1f\x8b":
                stream = stack.enter_context(gzip.GzipFile(fileobj=stream, mode="rb"))  # type: ignore[assignment]
            for line in stream:
                yield lineno, line.decode("utf-8")
                lineno += 1
    except (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DatasetError(f"line {lineno}: unreadable bytes: {exc}") from None


def _loads(lineno: int, line: str, what: str) -> object:
    """Parse one JSON line; malformed JSON or a lone surrogate raise DatasetError."""
    try:
        obj = json.loads(line)
        if _SURROGATE_ESCAPE.search(line):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {lineno}: malformed JSON{what}: {exc}") from None
    except UnicodeEncodeError:
        raise DatasetError(f"line {lineno}: unpaired surrogate escape in text") from None
    return obj


def read_dataset(
    path: Union[str, Path],
    *,
    on_error: Callable[[str], None] | None = None,
) -> tuple[dict, Iterator[ExtractiveExample]]:
    """Open a dataset and return its header object plus a lazy example stream.

    Compression is detected from the gzip magic bytes, and ``char_spans``
    end indices are inclusive, as in the MRQA release. Per-record
    problems (missing or wrong-typed fields, span/text mismatches) go to
    ``on_error`` and skip what they affect without stopping the stream;
    a malformed JSON line, a JSON escape that decodes to a lone
    surrogate, or undecodable bytes are fatal and raise DatasetError with
    the line number.

    The stream yields one example per question, in file order; the
    examples of one record share one ``context`` object, so ``records``
    gives them back as one record.
    """
    report = on_error if on_error is not None else logger.warning
    lines = _numbered_lines(path)
    try:
        _, first_line = next(lines, (1, ""))
        header = _parse_header(first_line)
    except DatasetError:
        lines.close()
        raise
    return header, _examples(lines, report)


def records(examples: Iterable[ExtractiveExample]) -> Iterator[list[ExtractiveExample]]:
    """Yield one list per run of consecutive examples that share one
    ``context`` object, as ``read_dataset`` yields each input record.

    It reads at most one example past the record it yields. Records with
    equal text but distinct objects stay apart; Python may share one object
    between equal empty or one-character strings, so adjacent records with
    such a context can merge.
    """
    record: list[ExtractiveExample] = []
    for example in examples:
        if record and example.context is not record[0].context:
            yield record
            record = []
        record.append(example)
    if record:
        yield record


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
    header_obj = _loads(1, line, " header")
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
            record = _loads(lineno, line, "")
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

    gold = []
    for answer in answers:
        if isinstance(answer, str):
            gold.append(answer)
        else:
            report(f"line {lineno}: qid {qid}: answer {answer!r} is not text; dropped")

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
        gold_answers=tuple(gold),
        detected=tuple(detected),
    )


def write_fixed_dataset(
    path: Union[str, Path],
    header: dict,
    records: Iterable[list[tuple[ExtractiveExample, dict]]],
) -> None:
    """Write the header, then one line per record of ``(example, extra)`` pairs.

    The line's context is the first example's, and each qa holds an
    example's MRQA fields, then its ``extra`` fields. A record without
    pairs is dropped. Only one record is held at a time. A path ending in
    ``.gz`` is gzipped with a zero timestamp, so reruns give identical
    bytes. The file is written through ``replace_on_success``, so an error
    while ``records`` is consumed leaves no partial output.
    """
    path = Path(path)
    with replace_on_success(path) as stream, contextlib.ExitStack() as stack:
        if path.suffix == ".gz":
            stream = stack.enter_context(gzip.GzipFile(str(path), "wb", fileobj=stream, mtime=0))  # type: ignore[assignment]
        out = stack.enter_context(io.TextIOWrapper(stream, encoding="utf-8"))
        out.write(json.dumps({"header": header}, ensure_ascii=False))
        out.write("\n")
        for pairs in records:
            if pairs:
                qas = [{**_mrqa_qa(example), **extra} for example, extra in pairs]
                line = {"context": pairs[0][0].context, "qas": qas}
                out.write(json.dumps(line, ensure_ascii=False))
                out.write("\n")


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


def _mrqa_qa(example: ExtractiveExample) -> dict:
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
    }


def read_predictions(path: Union[str, Path]) -> dict[str, str]:
    """Parse a qid -> answer-text JSON object; duplicates and non-strings fail."""

    def reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DatasetError(f"duplicate qid {key!r} in predictions")
            obj[key] = value
        return obj

    try:
        text = Path(path).read_bytes().decode("utf-8")
        parsed = json.loads(text, object_pairs_hook=reject_duplicates)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"predictions are not UTF-8: {exc}") from None
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
