import gzip
import io
import itertools
import json
import tracemalloc

import pytest

from tokfix.align import CharSpan, TokenSpan
from tokfix.consist import ALREADY_CONSISTENT, UNRESOLVED, FixOutcome
from tokfix.mrqa import (
    DatasetError,
    read_dataset,
    read_predictions,
    write_fixed_dataset,
)


def dataset_bytes(records, header=None):
    lines = [json.dumps({"header": header or {"dataset": "test-set"}})]
    lines += [json.dumps(r) for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def qa(qid, question, answer, span, extra_answers=()):
    return {
        "qid": qid,
        "question": question,
        "answers": [answer, *extra_answers],
        "detected_answers": [{"text": answer, "char_spans": [span]}],
    }


THREE_QUESTION_RECORDS = [
    {
        "context": "The bridge opened in 1912.",
        "qas": [
            qa("q1", "When did it open?", "1912", [21, 24]),
            qa("q2", "What opened?", "bridge", [4, 9]),
        ],
    },
    {
        "context": "A museum preserved the treaty.",
        "qas": [qa("q3", "What was preserved?", "treaty", [23, 28])],
    },
]

GOOD_QA = qa("q1", "Which?", "a", [0, 0])


def with_bad_qa(**fields):
    """A record holding the valid qa q1 and a qa q2 with the given fields."""
    return {"context": "ab", "qas": [GOOD_QA, {"qid": "q2", "question": "Which?", **fields}]}


class TestReadDataset:
    def test_header_and_examples_in_file_order(self):
        header, stream = read_dataset(io.BytesIO(dataset_bytes(THREE_QUESTION_RECORDS)))
        assert header == {"dataset": "test-set"}
        examples = list(stream)
        assert [e.qid for e in examples] == ["q1", "q2", "q3"]
        first = examples[0]
        assert first.context == "The bridge opened in 1912."
        assert first.question == "When did it open?"
        assert first.gold_answers == ("1912",)
        assert first.detected == (("1912", (CharSpan(21, 25),)),)

    def test_examples_of_one_record_share_one_context_object(self):
        _, stream = read_dataset(io.BytesIO(dataset_bytes(THREE_QUESTION_RECORDS)))
        q1, q2, q3 = stream
        assert q1.context is q2.context
        assert q3.context is not q1.context

    def test_empty_file_is_missing_header(self):
        with pytest.raises(DatasetError, match="missing header"):
            read_dataset(io.BytesIO(b""))

    def test_header_without_header_key(self):
        with pytest.raises(DatasetError, match="header"):
            read_dataset(io.BytesIO(b'{"context": "x", "qas": []}\n'))

    def test_malformed_json_line_is_fatal_with_line_number(self):
        data = dataset_bytes(THREE_QUESTION_RECORDS[:1]) + b"{oops\n"
        _, stream = read_dataset(io.BytesIO(data))
        with pytest.raises(DatasetError, match="line 3"):
            list(stream)

    def test_bad_span_flags_record_but_keeps_stream(self):
        records = [
            {
                "context": "The bridge opened in 1912.",
                "qas": [qa("q1", "When?", "1912", [0, 3])],  # points at "The "
            },
            THREE_QUESTION_RECORDS[1],
        ]
        issues = []
        _, stream = read_dataset(
            io.BytesIO(dataset_bytes(records)), on_error=issues.append
        )
        examples = list(stream)
        assert len(issues) == 1
        assert "q1" in issues[0]
        assert [e.qid for e in examples] == ["q1", "q3"]
        # the invalid span is pruned; the answer text survives
        assert examples[0].detected == (("1912", ()),)

    def test_trailing_whitespace_difference_is_tolerated(self):
        context = "The treaty held. "
        records = [
            {
                "context": context,
                "qas": [
                    {
                        "qid": "q1",
                        "question": "What held?",
                        "answers": ["treaty"],
                        # span includes the trailing space after "held."
                        "detected_answers": [
                            {"text": "treaty", "char_spans": [[4, 10]]}
                        ],
                    }
                ],
            }
        ]
        issues = []
        _, stream = read_dataset(
            io.BytesIO(dataset_bytes(records)), on_error=issues.append
        )
        examples = list(stream)
        assert issues == []
        assert examples[0].detected[0][1] == (CharSpan(4, 11),)

    def test_missing_qid_or_question_skips_that_qa(self):
        records = [
            {
                "context": "x y z",
                "qas": [
                    {"question": "no qid", "answers": ["x"], "detected_answers": []},
                    {"qid": "ok", "question": "fine?", "answers": ["x"],
                     "detected_answers": [{"text": "x", "char_spans": [[0, 0]]}]},
                ],
            }
        ]
        issues = []
        _, stream = read_dataset(
            io.BytesIO(dataset_bytes(records)), on_error=issues.append
        )
        assert [e.qid for e in list(stream)] == ["ok"]
        assert len(issues) == 1

    def test_gzip_autodetection_and_override(self, tmp_path):
        raw = dataset_bytes(THREE_QUESTION_RECORDS)
        gz_path = tmp_path / "data.jsonl.gz"
        gz_path.write_bytes(gzip.compress(raw))

        _, stream = read_dataset(gz_path)
        assert len(list(stream)) == 3

        _, stream = read_dataset(io.BytesIO(gzip.compress(raw)))
        assert len(list(stream)) == 3

    @pytest.mark.parametrize(
        "record, kept",
        [
            (["x"], []),
            ({"context": "ab", "qas": ["x", GOOD_QA]}, ["q1"]),
            (with_bad_qa(detected_answers={"text": "a"}), ["q1"]),
            (with_bad_qa(detected_answers=["a"]), ["q1"]),
            (with_bad_qa(answers="xy"), ["q1"]),
            # unreadable spans are pruned, as out-of-range ones are; the qa stays
            (with_bad_qa(detected_answers=[{"text": "a", "char_spans": 0}]), ["q1", "q2"]),
            (
                with_bad_qa(
                    detected_answers=[{"text": "a", "char_spans": [{"0": 0}, [float("inf"), 0]]}]
                ),
                ["q1", "q2"],
            ),
        ],
        ids=[
            "record-not-object",
            "qa-not-object",
            "detected-not-list",
            "detected-entry-not-object",
            "answers-not-list",
            "char-spans-not-list",
            "char-span-not-pair",
        ],
    )
    def test_wrong_typed_fields_are_reported_and_skipped(self, record, kept):
        data = dataset_bytes([record, THREE_QUESTION_RECORDS[1]])
        issues = []
        _, stream = read_dataset(io.BytesIO(data), on_error=issues.append)
        assert [e.qid for e in stream] == [*kept, "q3"]
        assert issues
        assert all(message.startswith("line 2:") for message in issues)

    def test_streaming_memory_stays_bounded(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": {"dataset": "big"}}) + "\n")
            for i in range(30_000):
                record = {
                    "context": f"Context number {i} mentions token {i}.",
                    "qas": [qa(f"q{i}", "Which token?", str(i), [16, 15 + len(str(i))])],
                }
                out.write(json.dumps(record) + "\n")
        file_size = path.stat().st_size
        assert file_size > 3_000_000

        _, stream = read_dataset(path, on_error=lambda _m: None)
        tracemalloc.start()
        count = sum(1 for _ in stream)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 30_000
        assert peak < file_size / 4

    @pytest.mark.parametrize(
        "pair",
        ["12", [1, 2, 3], [True, 2], [1.9, 2.2], [1.0, 2]],
        ids=["string", "three-ints", "bool", "floats", "integral-float"],
    )
    def test_char_span_must_be_two_integers(self, pair):
        # int() of each pair's items gives [1, 2], which points at "bc"
        record = {
            "context": "abcdef",
            "qas": [
                {
                    "qid": "q1",
                    "question": "Which?",
                    "answers": ["bc"],
                    "detected_answers": [{"text": "bc", "char_spans": [pair, pair, [1, 2]]}],
                }
            ],
        }
        issues = []
        _, stream = read_dataset(io.BytesIO(dataset_bytes([record])), on_error=issues.append)
        (example,) = stream
        assert example.detected == (("bc", (CharSpan(1, 3),)),)
        assert len(issues) == 2
        assert all("unreadable char span" in message for message in issues)

    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    def test_caller_stream_is_left_open(self, gzipped):
        data = dataset_bytes(THREE_QUESTION_RECORDS)
        if gzipped:
            data = gzip.compress(data)

        src = io.BytesIO(data)
        _, stream = read_dataset(src)
        assert len(list(stream)) == 3
        assert src.closed is False

        src = io.BytesIO(data)
        _, stream = read_dataset(src)
        next(stream)
        stream.close()
        assert src.closed is False

        src = io.BytesIO(b"not a header\n")
        with pytest.raises(DatasetError, match="header"):
            read_dataset(src)
        assert src.closed is False

        # a caller may also close its stream first
        src = io.BytesIO(data)
        _, stream = read_dataset(src)
        next(stream)
        src.close()
        stream.close()


class TestWriteFixedDataset:
    def outcome(self, ids=(1, 2), method=ALREADY_CONSISTENT, span=TokenSpan(0, 2)):
        return FixOutcome(target_ids=tuple(ids), method=method, context_span=span)

    def test_round_trip_preserves_examples(self, tmp_path):
        _, stream = read_dataset(io.BytesIO(dataset_bytes(THREE_QUESTION_RECORDS)))
        originals = list(stream)
        out_path = tmp_path / "fixed.jsonl"
        groups = [
            (context, [(e, self.outcome()) for e in group])
            for context, group in itertools.groupby(originals, key=lambda e: e.context)
        ]
        count = write_fixed_dataset(out_path, {"dataset": "test-set"}, groups)
        assert count == 3
        assert len(out_path.read_text().splitlines()) == 1 + len(THREE_QUESTION_RECORDS)
        header, stream = read_dataset(out_path)
        assert header == {"dataset": "test-set"}
        assert list(stream) == originals

    def test_written_records_carry_fix_fields(self, tmp_path):
        _, stream = read_dataset(io.BytesIO(dataset_bytes(THREE_QUESTION_RECORDS)))
        q1, q2, q3 = stream
        out = io.StringIO()
        count = write_fixed_dataset(
            out,
            {},
            [
                (
                    q1.context,
                    [
                        (q2, self.outcome(ids=(7,), span=TokenSpan(3, 4))),
                        (q1, self.outcome(ids=(9,), method=UNRESOLVED, span=None)),
                    ],
                ),
                (q3.context, []),
            ],
        )
        assert count == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 2  # the empty group writes no record
        record = json.loads(lines[1])
        assert record["context"] == q1.context
        first, second = record["qas"]
        assert first["qid"] == "q2"
        assert first["target_token_ids"] == [7]
        assert first["fix_method"] == ALREADY_CONSISTENT
        assert first["context_token_span"] == [3, 4]
        assert second["qid"] == "q1"
        assert second["target_token_ids"] == [9]
        assert second["fix_method"] == UNRESOLVED
        assert second["context_token_span"] is None

    def test_empty_stream_writes_header_only(self, tmp_path):
        out_path = tmp_path / "empty.jsonl"
        count = write_fixed_dataset(out_path, {"dataset": "x"}, [])
        assert count == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"header": {"dataset": "x"}}

    def test_gz_suffix_writes_gzip(self, tmp_path):
        out_path = tmp_path / "fixed.jsonl.gz"
        write_fixed_dataset(out_path, {"dataset": "x"}, [])
        assert out_path.read_bytes()[:2] == b"\x1f\x8b"
        header, stream = read_dataset(out_path)
        assert header == {"dataset": "x"}
        assert list(stream) == []


class TestReadPredictions:
    def test_single_entry(self):
        assert read_predictions(io.StringIO('{"q1": "Doritos"}')) == {"q1": "Doritos"}

    def test_empty_object(self):
        assert read_predictions(io.StringIO("{}")) == {}

    def test_non_string_value_rejected(self):
        with pytest.raises(DatasetError, match="q1"):
            read_predictions(io.StringIO('{"q1": 5}'))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DatasetError, match="duplicate"):
            read_predictions(io.StringIO('{"q1": "a", "q1": "b"}'))

    def test_malformed_json(self):
        with pytest.raises(DatasetError, match="malformed"):
            read_predictions(io.StringIO("not json"))

    def test_invalid_utf8_rejected(self):
        with pytest.raises(DatasetError, match="UTF-8"):
            read_predictions(io.BytesIO(b'{"q1": "\xff"}'))

    def test_non_object_rejected(self):
        with pytest.raises(DatasetError, match="object"):
            read_predictions(io.StringIO('["a"]'))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text('{"q9": "harbor"}')
        assert read_predictions(path) == {"q9": "harbor"}
