"""Output checks for benchmark invocations; never imports ``tokfix``.

``fix`` output is checked qa by qa, whatever its record layout (one record
per question today, one per context after a layout change): each resolved
target decodes, through this file's own decoder, to a substring of its
context that equals one of its answers modulo edge whitespace, and exactly
the answerable questions of the input are present. ``analyze`` and
``evaluate`` reports are checked for the invariants the input fixes. Every
check also returns a digest that must not depend on where the run happened,
so a run can be compared with itself and with a pinned digest.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from gen_tokenizer import byte_to_unit

RESAMPLES = 10_000  # the CLI's default for the paired significance test


def _digest(obj: object) -> str:
    data = json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def read_text(path: Path) -> str:
    """A dataset file's text, gunzipped when it starts with the gzip magic."""
    data = path.read_bytes()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return data.decode("utf-8")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in read_text(path).splitlines() if line.strip()]


class Decoder:
    """Token ids -> text, from vocab.json and the GPT-2 byte map alone."""

    def __init__(self, vocab_path: Path) -> None:
        vocab = json.loads(vocab_path.read_text(encoding="utf-8"))
        unit_to_byte = {unit: b for b, unit in byte_to_unit().items()}
        self.pieces = {
            idx: bytes(unit_to_byte[ch] for ch in token) for token, idx in vocab.items()
        }

    def decode(self, ids: list[int]) -> str:
        """Strict UTF-8 decode; raises KeyError or UnicodeDecodeError."""
        return b"".join(self.pieces[i] for i in ids).decode("utf-8")


@dataclass(frozen=True)
class Expected:
    """What a correct run must account for, read from the input dataset."""

    records: int
    questions: int
    answerable: frozenset[str]
    qids: frozenset[str]
    uncompressed_bytes: int

    @classmethod
    def from_dataset(cls, path: Path) -> "Expected":
        text = read_text(path)
        records = [json.loads(line) for line in text.splitlines()[1:]]
        qas = [qa for record in records for qa in record["qas"]]
        answerable = {
            qa["qid"]
            for qa in qas
            if any(qa["answers"]) or any(d["text"] for d in qa["detected_answers"])
        }
        return cls(
            records=len(records),
            questions=len(qas),
            answerable=frozenset(answerable),
            qids=frozenset(qa["qid"] for qa in qas),
            uncompressed_bytes=len(text.encode("utf-8")),
        )


class CheckError(Exception):
    """An invocation's output is wrong."""


def check_fix(output: Path, summary_text: str, expected: Expected, decoder: Decoder) -> str:
    """Check a repaired dataset and its stdout summary; return its digest."""
    summary = json.loads(summary_text)["summary"]
    if summary["total"] != expected.questions:
        raise CheckError(f"summary total {summary['total']} != {expected.questions}")
    rows = []
    for record in read_jsonl(output)[1:]:
        context = record["context"]
        for qa in record["qas"]:
            ids, method = qa["target_token_ids"], qa["fix_method"]
            span = qa["context_token_span"]
            rows.append((qa["qid"], ids, method, span))
            if method == "unresolved":
                continue
            try:
                text = decoder.decode(ids)
            except (KeyError, UnicodeDecodeError) as exc:
                raise CheckError(f"{qa['qid']}: target does not decode: {exc!r}") from None
            answers = {a.strip() for a in qa["answers"]}
            answers |= {d["text"].strip() for d in qa["detected_answers"]}
            if text not in context or text.strip() not in answers:
                raise CheckError(f"{qa['qid']}: target {text!r} is not a faithful slice")
            if span is None or span[1] - span[0] != len(ids):
                raise CheckError(f"{qa['qid']}: context span {span} does not fit the target")
    qids = [row[0] for row in rows]
    if len(qids) != len(set(qids)) or set(qids) != expected.answerable:
        raise CheckError("output qids differ from the answerable input qids")
    if summary["written"] != len(rows):
        raise CheckError(f"summary written {summary['written']} != {len(rows)} output qas")
    counted = sum(summary["counts"].values())
    counted += summary["skipped_no_answer"] + summary["skipped_span_mismatch"]
    if counted != summary["total"]:
        raise CheckError("method and skip counts do not partition the total")
    return _digest(sorted(rows))


def report_body(report_text: str) -> dict:
    """The report without its config echo and the paths it names."""
    report = json.loads(report_text)
    body = {k: v for k, v in report.items() if k not in ("config", "tool_version")}
    for entry in body.get("stats", []):
        entry.pop("path", None)
    for entry in body.get("metrics", []):
        entry.pop("predictions", None)
    return body


def check_analyze(report_text: str, expected: Expected) -> str:
    body = report_body(report_text)
    (stats,) = body["stats"]
    if stats["total"] != len(expected.answerable):
        raise CheckError(f"analyzed {stats['total']} of {len(expected.answerable)} questions")
    parts = stats["consistent_raw"] + stats["consistent_prefix_only"] + stats["inconsistent"]
    if parts != stats["total"]:
        raise CheckError("verdict counts do not partition the total")
    return _digest(body)


def check_evaluate(report_text: str, expected: Expected, predictions: list[Path]) -> str:
    body = report_body(report_text)
    if len(body["metrics"]) != len(predictions):
        raise CheckError("one metrics entry per predictions file expected")
    for entry, path in zip(body["metrics"], predictions):
        preds = set(json.loads(path.read_text(encoding="utf-8")))
        if entry["n"] != expected.questions:
            raise CheckError(f"n {entry['n']} != {expected.questions}")
        if entry["n_predicted"] != len(preds & expected.qids):
            raise CheckError("n_predicted does not match the predictions file")
        if entry["unknown_qids"] != sorted(preds - expected.qids):
            raise CheckError("unknown_qids do not match the predictions file")
        if not 0 <= entry["em"] <= entry["f1"] <= 100:
            raise CheckError(f"em {entry['em']} / f1 {entry['f1']} out of order")
    if len(predictions) == 2:
        # the test enumerates all 2**n sign flips when they fit the budget
        n = expected.questions
        budget = min(2**n, RESAMPLES)
        if body["significance"]["resamples"] != budget:
            raise CheckError("significance test did not run its full resample budget")
    return _digest(body)
