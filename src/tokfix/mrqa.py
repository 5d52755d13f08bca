"""Streaming reader/writer for MRQA-format datasets and prediction files.

An MRQA dataset is UTF-8 line-delimited JSON, optionally gzipped: the first
line is ``{"header": {...}}`` and each following line holds one context with
its questions. Reading is lazy; memory stays bounded by the largest single
record. Predictions are a single JSON object mapping qid to answer text.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Union

from .align import CharSpan

if TYPE_CHECKING:
    from .consist import FixOutcome

logger = logging.getLogger(__name__)

ByteSource = Union[str, Path, IO[bytes]]

#: Prediction files parse to a plain qid -> answer-text mapping.
PredictionSet = dict[str, str]


class DatasetError(Exception):
    """Fatal dataset problem: missing header, malformed JSON line, bad file."""


class SpanMismatchError(DatasetError):
    """A gold character span does not point at its answer text."""


@dataclass(frozen=True)
class DatasetHeader:
    """First record of a dataset file; unknown fields pass through."""

    dataset: str = ""
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = dict(self.extra)
        if self.dataset:
            obj.setdefault("dataset", self.dataset)
        return obj


@dataclass(frozen=True)
class ExtractiveExample:
    """One (context, question) pair with gold answers and detected spans.

    ``detected`` pairs each in-context answer text with its validated
    character spans; spans that fail validation are pruned by the reader
    and reported through its error channel.
    """

    qid: str
    context: str
    question: str
    gold_answers: tuple[str, ...] = ()
    detected: tuple[tuple[str, tuple[CharSpan, ...]], ...] = ()


def spans_match(snippet: str, answer: str) -> bool:
    """Span/text agreement modulo trailing-whitespace differences only."""
    return snippet == answer or snippet.rstrip() == answer.rstrip()


def _open_binary(source: ByteSource) -> tuple[IO[bytes], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    return source, False


def _decompress_if_gzip(stream: IO[bytes], gzipped: bool | None) -> IO[bytes]:
    if gzipped is None:
        buffered = stream if isinstance(stream, io.BufferedReader) else io.BufferedReader(stream)  # type: ignore[arg-type]
        gzipped = buffered.peek(2)[:2] == b"\x1f\x8b"
        stream = buffered
    if gzipped:
        return gzip.GzipFile(fileobj=stream, mode="rb")  # type: ignore[return-value]
    return stream


def read_dataset(
    source: ByteSource,
    *,
    gzipped: bool | None = None,
    span_convention: str = "inclusive",
    on_error: Callable[[str], None] | None = None,
) -> tuple[DatasetHeader, Iterator[ExtractiveExample]]:
    """Open a dataset and return its header plus a lazy example stream.

    ``gzipped=None`` autodetects compression from the magic bytes.
    ``span_convention`` states how ``char_spans`` end indices are meant:
    ``"inclusive"`` (the MRQA release convention) or ``"exclusive"``.
    Per-record problems (missing fields, span/text mismatches) go to
    ``on_error`` and do not stop the stream; a malformed JSON line is
    fatal and raises DatasetError with its line number.

    The stream yields one example per question, in file order. Every
    example of one record shares a single ``context`` object;
    ``fix_dataset`` and ``analyze_dataset`` rely on this to encode each
    context once.
    """
    if span_convention not in ("inclusive", "exclusive"):
        raise ValueError(f"unknown span convention {span_convention!r}")
    report = on_error if on_error is not None else logger.warning

    raw, owned = _open_binary(source)
    stream = _decompress_if_gzip(raw, gzipped)
    text = io.TextIOWrapper(stream, encoding="utf-8")

    header_line = text.readline()
    if not header_line.strip():
        if owned:
            text.close()
        raise DatasetError("missing header: dataset file is empty")
    try:
        header_obj = json.loads(header_line)
    except json.JSONDecodeError as exc:
        if owned:
            text.close()
        raise DatasetError(f"line 1: malformed JSON header: {exc}") from None
    if not isinstance(header_obj, dict) or "header" not in header_obj:
        if owned:
            text.close()
        raise DatasetError('line 1: expected {"header": {...}}')
    header_fields = header_obj["header"] or {}
    header = DatasetHeader(
        dataset=str(header_fields.get("dataset", "")),
        extra=dict(header_fields),
    )

    def examples() -> Iterator[ExtractiveExample]:
        inclusive = span_convention == "inclusive"
        try:
            for lineno, line in enumerate(text, start=2):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"line {lineno}: malformed JSON: {exc}") from None
                context = record.get("context")
                qas = record.get("qas")
                if not isinstance(context, str) or not isinstance(qas, list):
                    report(f"line {lineno}: record lacks context/qas; skipped")
                    continue
                for qa in qas:
                    example = _parse_qa(context, qa, lineno, inclusive, report)
                    if example is not None:
                        yield example
        finally:
            if owned:
                text.close()

    return header, examples()


def _parse_qa(
    context: str,
    qa: dict,
    lineno: int,
    inclusive: bool,
    report: Callable[[str], None],
) -> ExtractiveExample | None:
    qid = qa.get("qid")
    question = qa.get("question")
    if not qid or not isinstance(qid, str):
        report(f"line {lineno}: qa without qid; skipped")
        return None
    if not isinstance(question, str):
        report(f"line {lineno}: qid {qid}: missing question; skipped")
        return None

    gold = tuple(a for a in qa.get("answers", []) if isinstance(a, str))

    detected: list[tuple[str, tuple[CharSpan, ...]]] = []
    for det in qa.get("detected_answers", []):
        text_ = det.get("text")
        if not isinstance(text_, str):
            report(f"line {lineno}: qid {qid}: detected answer without text")
            continue
        spans: list[CharSpan] = []
        for pair in det.get("char_spans", []):
            try:
                start, end = int(pair[0]), int(pair[1])
            except (TypeError, ValueError, IndexError):
                report(f"line {lineno}: qid {qid}: unreadable char span {pair!r}")
                continue
            stop = end + 1 if inclusive else end
            if not (0 <= start <= stop <= len(context)):
                report(f"line {lineno}: qid {qid}: span {pair!r} out of range")
                continue
            snippet = context[start:stop]
            if not spans_match(snippet, text_):
                report(
                    f"line {lineno}: qid {qid}: span {pair!r} points at "
                    f"{snippet!r}, not {text_!r}"
                )
                continue
            spans.append(CharSpan(start, end, inclusive_end=inclusive))
        detected.append((text_, tuple(spans)))

    return ExtractiveExample(
        qid=qid,
        context=context,
        question=question,
        gold_answers=gold,
        detected=tuple(detected),
    )


def _open_text_sink(sink: Union[str, Path, IO[str]]) -> tuple[IO[str], bool]:
    if isinstance(sink, (str, Path)):
        path = Path(sink)
        if path.suffix == ".gz":
            return io.TextIOWrapper(gzip.open(path, "wb"), encoding="utf-8"), True
        return open(path, "w", encoding="utf-8"), True
    return sink, False


def write_fixed_dataset(
    sink: Union[str, Path, IO[str]],
    header: DatasetHeader,
    groups: Iterable[tuple[str, Iterable[tuple[ExtractiveExample, "FixOutcome"]]]],
) -> int:
    """Write one record per (context, repaired qas) group; return the qa count.

    Qas keep their given order. Each qa gains ``target_token_ids``,
    ``fix_method`` and ``context_token_span`` fields; a group without any
    qa writes nothing. The output stays readable by ``read_dataset`` (the
    extras are ignored on read).
    """
    out, owned = _open_text_sink(sink)
    count = 0
    try:
        out.write(json.dumps({"header": header.to_json_obj()}, ensure_ascii=False))
        out.write("\n")
        for context, pairs in groups:
            qas = [_fixed_qa(example, outcome) for example, outcome in pairs]
            if not qas:
                continue
            out.write(json.dumps({"context": context, "qas": qas}, ensure_ascii=False))
            out.write("\n")
            count += len(qas)
    finally:
        if owned:
            out.close()
    return count


def _fixed_qa(example: ExtractiveExample, outcome: "FixOutcome") -> dict:
    return {
        "qid": example.qid,
        "question": example.question,
        "answers": list(example.gold_answers),
        "detected_answers": [
            {
                "text": text,
                "char_spans": [
                    [span.start, span.end if span.inclusive_end else span.end - 1]
                    for span in spans
                ],
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


def read_predictions(source: Union[str, Path, IO[bytes], IO[str]]) -> PredictionSet:
    """Parse a qid -> answer-text JSON object; duplicates and non-strings fail."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_text(encoding="utf-8")
    else:
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")

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
