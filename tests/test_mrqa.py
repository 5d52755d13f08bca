import dataclasses
import gzip
import json
import tracemalloc

import pytest

from tokfix.mrqa import (
    CharSpan,
    DatasetError,
    ExtractiveExample,
    read_dataset,
    read_predictions,
    records,
    write_fixed_dataset,
)

from helpers import write_file


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
    def test_header_and_examples_in_file_order(self, tmp_path):
        header, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        assert header == {"dataset": "test-set"}
        examples = list(stream)
        assert [e.qid for e in examples] == ["q1", "q2", "q3"]
        first = examples[0]
        assert first.context == "The bridge opened in 1912."
        assert first.question == "When did it open?"
        assert first.gold_answers == ("1912",)
        assert first.detected == (("1912", (CharSpan(21, 25),)),)

    def test_examples_of_one_record_share_one_context_object(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        q1, q2, q3 = stream
        assert q1.context is q2.context
        assert q3.context is not q1.context

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        lines = dataset_bytes(THREE_QUESTION_RECORDS).decode("utf-8").splitlines()
        data = "\n\n".join(lines[:2]) + "\n  \n\t\n" + "\n".join(lines[2:]) + "\n\n"
        issues = []
        _, stream = read_dataset(write_file(tmp_path, data), on_error=issues.append)
        assert [e.qid for e in stream] == ["q1", "q2", "q3"]
        assert issues == []

    def test_empty_file_is_missing_header(self, tmp_path):
        with pytest.raises(DatasetError, match="missing header"):
            read_dataset(write_file(tmp_path, b""))

    def test_header_without_header_key(self, tmp_path):
        with pytest.raises(DatasetError, match="header"):
            read_dataset(write_file(tmp_path, b'{"context": "x", "qas": []}\n'))

    def test_malformed_json_line_is_fatal_with_line_number(self, tmp_path):
        data = dataset_bytes(THREE_QUESTION_RECORDS[:1]) + b"{oops\n"
        _, stream = read_dataset(write_file(tmp_path, data))
        with pytest.raises(DatasetError, match="line 3"):
            list(stream)

    @pytest.mark.parametrize(
        "escape, fatal",
        [
            (r"\ud83d\ude00", False),
            (r"\\ud800", False),
            (r"\ud800", True),
            (r"\uDFFF", True),
            (r"\ude00\ud83d", True),
        ],
        ids=["pair", "escaped-backslash", "lone-high", "lone-low", "reversed-pair"],
    )
    def test_lone_surrogate_escape_is_fatal_with_line_number(self, tmp_path, escape, fatal):
        line = '{"context": "a%s", "qas": []}' % escape
        path = write_file(tmp_path, dataset_bytes([]) + line.encode("ascii") + b"\n")
        _, stream = read_dataset(path)
        if fatal:
            with pytest.raises(DatasetError, match="line 2: unpaired surrogate"):
                list(stream)
        else:
            assert list(stream) == []

    def test_lone_surrogate_in_header_is_fatal(self, tmp_path):
        path = write_file(tmp_path, '{"header": {"dataset": "x\\udc00"}}\n')
        with pytest.raises(DatasetError, match="line 1: unpaired surrogate"):
            read_dataset(path)

    def test_bad_span_flags_record_but_keeps_stream(self, tmp_path):
        records = [
            {
                "context": "The bridge opened in 1912.",
                "qas": [qa("q1", "When?", "1912", [0, 3])],  # points at "The "
            },
            THREE_QUESTION_RECORDS[1],
        ]
        issues = []
        _, stream = read_dataset(
            write_file(tmp_path, dataset_bytes(records)), on_error=issues.append
        )
        examples = list(stream)
        assert len(issues) == 1
        assert "q1" in issues[0]
        assert [e.qid for e in examples] == ["q1", "q3"]
        # the invalid span is pruned; the answer text survives
        assert examples[0].detected == (("1912", ()),)

    def test_trailing_whitespace_difference_is_tolerated(self, tmp_path):
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
            write_file(tmp_path, dataset_bytes(records)), on_error=issues.append
        )
        examples = list(stream)
        assert issues == []
        assert examples[0].detected[0][1] == (CharSpan(4, 11),)

    def test_missing_qid_or_question_skips_that_qa(self, tmp_path):
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
            write_file(tmp_path, dataset_bytes(records)), on_error=issues.append
        )
        assert [e.qid for e in list(stream)] == ["ok"]
        assert len(issues) == 1

    def test_gzip_autodetection_and_override(self, tmp_path):
        raw = dataset_bytes(THREE_QUESTION_RECORDS)
        gz_path = tmp_path / "data.jsonl.gz"
        gz_path.write_bytes(gzip.compress(raw))

        _, stream = read_dataset(gz_path)
        assert len(list(stream)) == 3

        # the magic bytes decide, not the name
        _, stream = read_dataset(write_file(tmp_path, gzip.compress(raw), "data.jsonl"))
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
    def test_wrong_typed_fields_are_reported_and_skipped(self, record, kept, tmp_path):
        data = dataset_bytes([record, THREE_QUESTION_RECORDS[1]])
        issues = []
        _, stream = read_dataset(write_file(tmp_path, data), on_error=issues.append)
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
                    "qas": [qa(f"q{i}", "Which token?", str(i), [15, 14 + len(str(i))])],
                }
                out.write(json.dumps(record) + "\n")
        file_size = path.stat().st_size
        assert file_size > 3_000_000

        issues = []
        _, stream = read_dataset(path, on_error=issues.append)
        tracemalloc.start()
        count = one_span = 0
        for example in stream:
            count += 1
            one_span += sum(len(spans) for _, spans in example.detected) == 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert issues == []
        assert count == one_span == 30_000
        assert peak < file_size / 4

    @pytest.mark.parametrize(
        "pair",
        ["12", [1, 2, 3], [True, 2], [1.9, 2.2], [1.0, 2]],
        ids=["string", "three-ints", "bool", "floats", "integral-float"],
    )
    def test_char_span_must_be_two_integers(self, pair, tmp_path):
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
        _, stream = read_dataset(
            write_file(tmp_path, dataset_bytes([record])), on_error=issues.append
        )
        (example,) = stream
        assert example.detected == (("bc", (CharSpan(1, 3),)),)
        assert len(issues) == 2
        assert all("unreadable char span" in message for message in issues)

    def test_non_text_answers_are_reported_and_dropped(self, tmp_path):
        record = {
            "context": "It opened in 1912.",
            "qas": [{"qid": "q", "question": "When?", "answers": [7, "1912", None]}],
        }
        issues = []
        _, stream = read_dataset(
            write_file(tmp_path, dataset_bytes([record])), on_error=issues.append
        )
        (example,) = stream
        assert example.gold_answers == ("1912",)
        assert issues == [
            "line 2: qid q: answer 7 is not text; dropped",
            "line 2: qid q: answer None is not text; dropped",
        ]


def examples_of(*contexts):
    return [ExtractiveExample(f"q{i}", context, "?") for i, context in enumerate(contexts)]


class TestRecords:
    def test_runs_of_one_context_object_form_one_record(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        assert [[e.qid for e in r] for r in records(stream)] == [["q1", "q2"], ["q3"]]

    def test_equal_text_in_distinct_objects_stays_apart(self):
        first = "".join(["The bridge ", "opened."])
        second = "".join(["The bridge ", "opened."])
        assert first == second and first is not second
        examples = examples_of(first, first, second)
        assert [[e.qid for e in r] for r in records(examples)] == [["q0", "q1"], ["q2"]]

    def test_adjacent_one_character_contexts_merge(self):
        # CPython keeps one object per one-character Latin-1 string, so
        # records with such a context can merge, as documented
        first, second = "ax"[1], "xb"[0]
        assert first is second
        examples = examples_of(first, second)
        assert [[e.qid for e in r] for r in records(examples)] == [["q0", "q1"]]

    def test_empty_input_yields_nothing(self):
        assert list(records([])) == []

    def test_reads_at_most_one_example_past_the_record_it_yields(self):
        examples = examples_of("a.", "a.", "b.", "b.", "b.", "c.")
        read = []

        def counting():
            for example in examples:
                read.append(example.qid)
                yield example

        stream = records(counting())
        sizes = []
        for record in stream:
            sizes.append(len(record))
            assert len(read) <= sum(sizes) + 1
        assert sizes == [2, 3, 1]
        assert len(read) == len(examples)


class TestWriteFixedDataset:
    def test_round_trip_preserves_examples(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        originals = list(stream)
        out_path = tmp_path / "fixed.jsonl"
        pairs = [[(e, {"fix_method": "exact_slice"}) for e in r] for r in records(originals)]
        write_fixed_dataset(out_path, {"dataset": "test-set"}, pairs)
        assert len(out_path.read_text().splitlines()) == 1 + len(THREE_QUESTION_RECORDS)
        header, stream = read_dataset(out_path)
        assert header == {"dataset": "test-set"}
        assert list(stream) == originals

    def test_written_records_carry_fix_fields(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        q1, q2, q3 = stream
        out_path = tmp_path / "fixed.jsonl"
        write_fixed_dataset(
            out_path,
            {},
            [
                [
                    (q2, {"target_token_ids": [7], "context_token_span": [3, 4]}),
                    (q1, {"target_token_ids": [9], "context_token_span": None}),
                ],
                [],
                [(q3, {"target_token_ids": [5], "context_token_span": [0, 1]})],
            ],
        )
        lines = out_path.read_text(encoding="utf-8").splitlines()
        # the record without pairs is dropped
        assert len(lines) == 3
        record, after = json.loads(lines[1]), json.loads(lines[2])
        assert record["context"] == q1.context
        assert after["context"] == q3.context
        first, second = record["qas"]
        assert list(first) == [
            "qid",
            "question",
            "answers",
            "detected_answers",
            "target_token_ids",
            "context_token_span",
        ]
        assert first["qid"] == "q2"
        assert first["detected_answers"] == [{"text": "bridge", "char_spans": [[4, 9]]}]
        assert first["target_token_ids"] == [7]
        assert first["context_token_span"] == [3, 4]
        assert second["qid"] == "q1"
        assert second["target_token_ids"] == [9]
        assert second["context_token_span"] is None
        assert [qa["qid"] for qa in after["qas"]] == ["q3"]

    def test_empty_stream_writes_header_only(self, tmp_path):
        out_path = tmp_path / "empty.jsonl"
        write_fixed_dataset(out_path, {"dataset": "x"}, [])
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

    def test_gz_rerun_gives_identical_bytes(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        q1 = next(stream)
        out_path = tmp_path / "fixed.jsonl.gz"
        write_fixed_dataset(out_path, {"dataset": "x"}, [[(q1, {})]])
        first = out_path.read_bytes()
        assert first[4:8] == bytes(4)  # the gzip header's mtime field
        write_fixed_dataset(out_path, {"dataset": "x"}, [[(q1, {})]])
        assert out_path.read_bytes() == first

    def test_gz_and_plain_outputs_hold_the_same_bytes(self, tmp_path):
        _, stream = read_dataset(write_file(tmp_path, dataset_bytes(THREE_QUESTION_RECORDS)))
        pairs = [[(e, {"fix_method": "exact_slice"}) for e in r] for r in records(stream)]
        plain, packed = tmp_path / "fixed.jsonl", tmp_path / "fixed.jsonl.gz"
        write_fixed_dataset(plain, {"dataset": "x"}, pairs)
        write_fixed_dataset(packed, {"dataset": "x"}, pairs)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        # the gzip header's XFL byte: 0 between levels 1 and 9, 2 at level 9
        assert packed.read_bytes()[8] == 0


class TestReadPredictions:
    def test_single_entry(self, tmp_path):
        assert read_predictions(write_file(tmp_path, '{"q1": "Doritos"}')) == {"q1": "Doritos"}

    def test_empty_object(self, tmp_path):
        assert read_predictions(write_file(tmp_path, "{}")) == {}

    def test_non_string_value_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="q1"):
            read_predictions(write_file(tmp_path, '{"q1": 5}'))

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate"):
            read_predictions(write_file(tmp_path, '{"q1": "a", "q1": "b"}'))

    def test_malformed_json(self, tmp_path):
        with pytest.raises(DatasetError, match="malformed"):
            read_predictions(write_file(tmp_path, "not json"))

    def test_invalid_utf8_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="UTF-8"):
            read_predictions(write_file(tmp_path, b'{"q1": "\xff"}'))

    def test_non_object_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="object"):
            read_predictions(write_file(tmp_path, '["a"]'))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text('{"q9": "harbor"}')
        assert read_predictions(path) == {"q9": "harbor"}
        assert read_predictions(str(path)) == {"q9": "harbor"}
