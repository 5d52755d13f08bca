import gzip
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tokfix
from tokfix import cli
from tokfix.cli import main
from tokfix.metrics import evaluate
from tokfix.mrqa import read_dataset

from gen_corpus import EXPECTED_METHODS, EXPECTED_TOTALS
from helpers import MULTI_QA_RECORDS

DATA = Path(__file__).parent / "data"
VOCAB = str(DATA / "fixture_vocab.json")
MERGES = str(DATA / "fixture_merges.txt")
CORPUS = str(DATA / "repair_corpus.jsonl")

EVALUATE_TSV_HEADER = (
    "predictions\tn\tn_predicted\tem\tf1\thallucination_rate"
    "\thallucination_rate_normalized\tp_value\tstatistic"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def eval_files(tmp_path):
    """A tiny gold dataset plus two prediction files."""
    gold = tmp_path / "gold.jsonl"
    records = [
        {"header": {"dataset": "eval-fixture"}},
        {
            "context": "The bridge opened in 1912.",
            "qas": [
                {
                    "qid": "q1",
                    "question": "When?",
                    "answers": ["1912"],
                    "detected_answers": [{"text": "1912", "char_spans": [[21, 24]]}],
                },
                {
                    "qid": "q2",
                    "question": "What?",
                    "answers": ["bridge"],
                    "detected_answers": [{"text": "bridge", "char_spans": [[4, 9]]}],
                },
            ],
        },
        {
            "context": "A museum preserved the treaty.",
            "qas": [
                {
                    "qid": "q3",
                    "question": "Preserved what?",
                    "answers": ["treaty"],
                    "detected_answers": [{"text": "treaty", "char_spans": [[23, 28]]}],
                }
            ],
        },
    ]
    gold.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    perfect = tmp_path / "perfect.json"
    perfect.write_text(json.dumps({"q1": "1912", "q2": "bridge", "q3": "treaty"}))
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"q1": "1912", "q2": "window", "q3": "the treaty"}))
    return str(gold), str(perfect), str(worse)


@pytest.fixture()
def repeated_qid_path(tmp_path):
    """Two records whose qas share qid ``q``."""
    qa = {"qid": "q", "question": "When?", "answers": ["1912"]}
    lines = [
        {"header": {}},
        {"context": "It opened in 1912.", "qas": [qa]},
        {"context": "It closed in 1912.", "qas": [qa]},
    ]
    path = tmp_path / "repeated.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return str(path)


class TestAnalyzeCommand:
    def test_json_report(self, capsys):
        code, out, _err = run(
            capsys, "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS
        )
        assert code == 0
        report = json.loads(out)
        assert report["tool_version"]
        assert report["config"]["command"] == "analyze"
        (stats,) = report["stats"]
        assert stats["dataset"] == "repair-fixture"
        assert stats["total"] == EXPECTED_TOTALS["total"]
        assert stats["consistent_raw"] == EXPECTED_TOTALS["consistent_raw"]
        assert stats["pct_inconsistent_raw"] == pytest.approx(78.0)
        assert stats["pct_inconsistent_after_prefix"] == pytest.approx(10.0)
        assert stats["span_issues"] == 1  # the bundled case-mismatch span

    def test_repeated_qid_is_data_error(self, capsys, repeated_qid_path):
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", repeated_qid_path,
        )
        assert code == 2
        assert out == ""
        assert "data error: duplicate qid 'q' in dataset (question 2 in file order)" in err

    def test_tsv_report(self, capsys):
        code, out, _err = run(
            capsys,
            "analyze",
            "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS,
            "--format", "tsv",
        )
        assert code == 0
        assert out == (
            "dataset\ttotal\tconsistent_raw\tconsistent_prefix_only\tinconsistent"
            "\tpct_inconsistent_raw\tpct_inconsistent_after_prefix\n"
            "repair-fixture\t50\t11\t34\t5\t78.0\t10.0\n"
        )

    def test_reruns_are_byte_identical(self, capsys):
        args = (
            "analyze", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--sample", "20", "--seed", "42",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["stats"]

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_sample_below_one_is_usage_error(self, capsys, size):
        # the vocab is missing, so exit 1 rather than 3 shows the check
        # runs before the tokenizer loads
        code, out, err = run(
            capsys,
            "analyze", "--vocab", "/nope/vocab.json", "--merges", MERGES,
            "--dataset", CORPUS, "--sample", size,
        )
        assert code == 1
        assert out == ""
        assert "usage error: --sample must be at least 1" in err

    def test_unwritable_output_fails_before_reading(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"header": {"dataset": "x"}}\n{broken\n')
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(bad),
            "--output", str(tmp_path / "missing" / "r.json"),
        )
        assert code == 3  # the malformed line would give 2 had it been read
        assert out == ""
        assert "i/o error" in err
        assert list(tmp_path.iterdir()) == [bad]

    def test_empty_gold_text_falls_back_to_detected(self, capsys, tmp_path):
        qa = {
            "qid": "e1",
            "question": "When?",
            "answers": [""],
            "detected_answers": [{"text": "1912", "char_spans": [[25, 28]]}],
        }
        lines = [
            {"header": {"dataset": "empty-gold"}},
            {"context": "The ship was finished in 1912 after delays.", "qas": [qa]},
        ]
        dataset = tmp_path / "empty_gold.jsonl"
        dataset.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        code, out, _err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset),
        )
        assert code == 0
        (stats,) = json.loads(out)["stats"]
        assert stats["total"] == 1  # judged on "1912", as evaluate and fix use it

    def test_blank_only_question_is_skipped_as_answerless(self, capsys, tmp_path):
        qas = [
            {"qid": "blank", "question": "When?", "answers": ["  "]},
            {"qid": "year", "question": "When?", "answers": ["1912"]},
        ]
        lines = [
            {"header": {"dataset": "blank"}},
            {"context": "The ship was finished in 1912 after delays.", "qas": qas},
        ]
        dataset = tmp_path / "blank.jsonl"
        dataset.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset),
        )
        assert code == 0
        assert "Traceback" not in err
        (stats,) = json.loads(out)["stats"]
        assert (stats["total"], stats["inconsistent"]) == (1, 0)

    def test_empty_dataset_reports_zero_stats(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"header": {"dataset": "none"}}\n')
        code, out, _err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(empty),
        )
        assert code == 0
        (stats,) = json.loads(out)["stats"]
        assert stats["total"] == 0
        assert stats["pct_inconsistent_raw"] == 0.0
        assert stats["pct_inconsistent_after_prefix"] == 0.0

    def test_multiple_datasets_make_multiple_rows(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"header": {"dataset": "none"}}\n')
        code, out, _err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--dataset", str(empty),
        )
        assert code == 0
        stats = json.loads(out)["stats"]
        assert [s["dataset"] for s in stats] == ["repair-fixture", "none"]

    @pytest.mark.parametrize("name", [["a", 1], 0, None, {"x": "y"}])
    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_non_string_dataset_name_falls_back_to_the_file_name(
        self, capsys, tmp_path, name, fmt
    ):
        dataset = tmp_path / "named.jsonl"
        dataset.write_text(json.dumps({"header": {"dataset": name}}) + "\n")
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(dataset), "--format", fmt,
        )
        assert code == 0
        assert err == f"line 1: non-string dataset name {name!r}; using the file name\n"
        if fmt == "json":
            (stats,) = json.loads(out)["stats"]
            assert stats["dataset"] == "named.jsonl"
        else:
            assert out.splitlines()[1].split("\t")[0] == "named.jsonl"

    def test_missing_merges_flag_is_usage_error(self, capsys):
        code, _out, err = run(capsys, "analyze", "--vocab", VOCAB, "--dataset", CORPUS)
        assert code == 1
        assert "usage error" in err

    def test_nonexistent_vocab_is_io_error(self, capsys):
        code, _out, err = run(
            capsys,
            "analyze", "--vocab", "/nope/vocab.json", "--merges", MERGES,
            "--dataset", CORPUS,
        )
        assert code == 3
        assert "i/o error" in err

    def test_nonexistent_merges_is_io_error_and_writes_nothing(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", str(tmp_path / "merges.txt"),
            "--dataset", CORPUS, "--output", str(report),
        )
        assert code == 3
        assert out == ""
        assert "i/o error" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which", ["vocab", "merges"])
    def test_non_utf8_tokenizer_file_is_data_error(self, capsys, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        files = {"vocab": VOCAB, "merges": MERGES, which: str(bad)}
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(
            capsys,
            "analyze", "--vocab", files["vocab"], "--merges", files["merges"],
            "--dataset", CORPUS, "--output", str(out_dir / "report.json"),
        )
        assert code == 2
        assert out == ""
        assert f"data error: {which} is not UTF-8" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_vocab_that_is_not_an_object_is_data_error(self, capsys, tmp_path):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(list(json.loads(Path(VOCAB).read_text(encoding="utf-8")))))
        code, out, err = run(
            capsys,
            "analyze", "--vocab", str(vocab), "--merges", MERGES, "--dataset", CORPUS,
        )
        assert code == 2
        assert out == ""
        assert "data error: vocab must be a JSON object" in err
        assert "Traceback" not in err

    def test_vocab_holding_the_reserved_id_is_data_error(self, capsys, tmp_path, multi_qa_path):
        # 0x10FFFF joins the pieces of a context in analyze, so no token may have it
        vocab = json.loads(Path(VOCAB).read_text(encoding="utf-8"))
        vocab["reserved"] = 0x10FFFF
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab), encoding="utf-8")
        code, out, err = run(
            capsys,
            "analyze", "--vocab", str(vocab_path), "--merges", MERGES,
            "--dataset", str(multi_qa_path), "--output", str(tmp_path / "report.json"),
        )
        assert code == 2
        assert out == ""
        assert "data error: token 'reserved' has invalid id 1114111" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [vocab_path]

    def test_malformed_dataset_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"header": {"dataset": "x"}}\n{broken\n')
        code, _out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(bad),
        )
        assert code == 2
        assert "data error" in err

    def test_wrong_typed_fields_are_skipped_not_fatal(self, capsys, tmp_path):
        bad_qas = [
            "x",
            {"qid": "b1", "question": "?", "answers": "xy"},
            {"qid": "b2", "question": "?", "detected_answers": {"text": "x"}},
            {"qid": "b3", "question": "?", "detected_answers": ["x"]},
        ]
        lines = [
            {"header": {"dataset": "typed"}},
            ["x"],
            {"context": "x y", "qas": bad_qas},
            *MULTI_QA_RECORDS,
        ]
        dataset = tmp_path / "typed.jsonl"
        dataset.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset),
        )
        assert code == 0
        assert "Traceback" not in err
        (stats,) = json.loads(out)["stats"]
        assert stats["span_issues"] == 5  # one per bad record or qa

    @pytest.mark.parametrize("corruption", ["invalid-utf8", "truncated-gzip"])
    def test_undecodable_bytes_are_data_error(self, capsys, tmp_path, corruption):
        data = Path(CORPUS).read_bytes()
        dataset = tmp_path / "corrupt.jsonl"
        if corruption == "invalid-utf8":
            lines = data.splitlines(keepends=True)
            lines[3] = b'{"context": "\xff\xfe", "qas": []}\n'
            dataset.write_bytes(b"".join(lines))
        else:
            packed = gzip.compress(data)
            dataset.write_bytes(packed[: len(packed) // 2])
        code, out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset),
        )
        assert code == 2
        assert out == ""
        assert "data error" in err
        assert "Traceback" not in err
        if corruption == "invalid-utf8":
            assert "line 4" in err


#: an MRQA-release record: ids, token offsets and fields tokfix does not
#: read, a non-text answer the reader drops, a span it prunes, and the
#: bundled corpus's ``expected``
MRQA_RECORD = {
    "id": "rec-1",
    "context": "The bridge opened in 1912.",
    "context_tokens": [["The", 0], ["bridge", 4], ["opened", 11], ["in", 18], ["1912", 21]],
    "qas": [
        {
            "id": "qa-1",
            "qid": "q1",
            "question": "When did it open?",
            "question_tokens": [["When", 0], ["did", 5], ["it", 9], ["open", 12]],
            "answers": ["1912", 1912],
            "detected_answers": [
                {"text": "1912", "char_spans": [[21, 24], [0, 3]], "token_spans": [[4, 4]]}
            ],
            "expected": {"verdict": "consistent_prefix_space", "method": "expanded_slice"},
        }
    ],
}


def write_dataset(path, *records):
    path.write_text("\n".join(json.dumps(line) for line in [{"header": {}}, *records]) + "\n")
    return path


class TestFixCommand:
    def fix(self, capsys, dataset, output):
        code, out, _err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(dataset), "--output", str(output),
        )
        assert code == 0
        return json.loads(out)["summary"]

    def test_mrqa_record_keeps_every_field(self, capsys, tmp_path):
        dataset = write_dataset(tmp_path / "mrqa.jsonl", MRQA_RECORD)
        fixed = tmp_path / "fixed.jsonl"
        assert self.fix(capsys, dataset, fixed)["written"] == 1
        (record,) = [json.loads(line) for line in fixed.read_text().splitlines()[1:]]
        (qa,) = record["qas"]
        added = {key: qa.pop(key) for key in ("target_token_ids", "fix_method", "context_token_span")}
        assert record == MRQA_RECORD
        assert list(record) == list(MRQA_RECORD)
        assert list(qa) == list(MRQA_RECORD["qas"][0])
        assert added["fix_method"] == qa["expected"]["method"]

    def test_adjacent_one_character_records_stay_apart(self, capsys, tmp_path):
        qa = {"question": "?", "answers": ["x"]}
        first = {"id": "r1", "context": "x", "qas": [{"qid": "a", **qa}]}
        second = {"id": "r2", "context": "x", "qas": [{"qid": "b", **qa}]}
        dataset = write_dataset(tmp_path / "x.jsonl", first, second)
        fixed = tmp_path / "fixed.jsonl"
        assert self.fix(capsys, dataset, fixed)["written"] == 2
        written = [json.loads(line) for line in fixed.read_text().splitlines()[1:]]
        assert [r["id"] for r in written] == ["r1", "r2"]
        assert [[qa["qid"] for qa in r["qas"]] for r in written] == [["a"], ["b"]]

    @pytest.mark.parametrize("source", ["corpus", "mrqa"])
    def test_fixing_the_output_again_gives_the_same_bytes(self, capsys, tmp_path, source):
        if source == "corpus":
            dataset = Path(CORPUS)
        else:
            dataset = write_dataset(tmp_path / "mrqa.jsonl", MRQA_RECORD)
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        summary = self.fix(capsys, dataset, once)
        assert self.fix(capsys, once, twice) == summary
        assert twice.read_bytes() == once.read_bytes()

    def test_writes_dataset_and_summary(self, capsys, tmp_path):
        fixed = tmp_path / "fixed.jsonl"
        code, out, _err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--output", str(fixed),
        )
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["counts"] == EXPECTED_METHODS
        assert report["summary"]["written"] == EXPECTED_TOTALS["total"]

        header, stream = read_dataset(fixed, on_error=lambda _m: None)
        assert header["dataset"] == "repair-fixture"
        assert len(list(stream)) == EXPECTED_TOTALS["total"]

    def test_repaired_record_for_fused_number(self, capsys, tmp_path):
        fixed = tmp_path / "fixed.jsonl"
        run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--output", str(fixed),
        )
        vocab = json.loads(Path(VOCAB).read_text())
        with open(fixed, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                for qa in json.loads(line)["qas"]:
                    if qa["qid"] == "n01":
                        assert qa["target_token_ids"] == [vocab["Ġ1912"]]
                        assert qa["fix_method"] == "expanded_slice"
                        assert qa["context_token_span"] is not None
                        return
        pytest.fail("record n01 missing from the repaired dataset")

    def test_one_record_per_input_record(self, capsys, tmp_path, multi_qa_path):
        fixed = tmp_path / "fixed.jsonl"
        code, out, _err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(multi_qa_path), "--output", str(fixed),
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["total"] == 6
        assert summary["written"] == 4
        assert summary["skipped_no_answer"] == 2

        records = [json.loads(line) for line in fixed.read_text().splitlines()[1:]]
        # unanswerable m2 and m4 are omitted; "Nobody knew." is left empty and dropped
        assert [r["context"] for r in records] == [
            MULTI_QA_RECORDS[0]["context"],
            MULTI_QA_RECORDS[2]["context"],
        ]
        assert [[qa["qid"] for qa in r["qas"]] for r in records] == [
            ["m1", "m3"],
            ["m5", "m6"],
        ]
        assert all(qa["fix_method"] != "unresolved" for r in records for qa in r["qas"])

    def test_blank_answer_is_skipped_as_no_answer(self, capsys, tmp_path):
        qa = {"qid": "q", "question": "?", "answers": ["  "]}
        lines = [{"header": {}}, {"context": "a   b", "qas": [qa]}]
        path = tmp_path / "blank.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        code, out, err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(path), "--output", str(tmp_path / "fixed.jsonl"),
        )
        assert code == 0
        assert "Traceback" not in err
        summary = json.loads(out)["summary"]
        assert (summary["total"], summary["written"], summary["skipped_no_answer"]) == (1, 0, 1)

    def test_gzip_output(self, capsys, tmp_path):
        fixed = tmp_path / "fixed.jsonl.gz"
        code, _out, _err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--output", str(fixed),
        )
        assert code == 0
        assert fixed.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(fixed, "rt", encoding="utf-8") as handle:
            assert json.loads(handle.readline())["header"]["dataset"] == "repair-fixture"

    def test_data_error_leaves_no_output_file(self, capsys, tmp_path):
        lines = Path(CORPUS).read_text(encoding="utf-8").splitlines(keepends=True)
        dataset = tmp_path / "broken.jsonl"
        dataset.write_text("".join(lines[:-1]) + "{broken\n" + lines[-1], encoding="utf-8")
        fixed = tmp_path / "out" / "fixed.jsonl.gz"
        fixed.parent.mkdir()
        code, out, err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(dataset), "--output", str(fixed),
        )
        assert code == 2
        assert out == ""
        assert f"line {len(lines)}" in err
        assert list(fixed.parent.iterdir()) == []

    def test_repeated_qid_is_data_error(self, capsys, tmp_path, repeated_qid_path):
        fixed = tmp_path / "out" / "fixed.jsonl"
        fixed.parent.mkdir()
        code, out, err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", repeated_qid_path, "--output", str(fixed),
        )
        assert code == 2
        assert out == ""
        assert "data error: duplicate qid 'q' in dataset (question 2 in file order)" in err
        assert list(fixed.parent.iterdir()) == []

    def test_tsv_summary(self, capsys, tmp_path):
        code, out, _err = run(
            capsys,
            "fix", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--output", str(tmp_path / "fixed.jsonl"),
            "--format", "tsv",
        )
        assert code == 0
        assert out == (
            "total\twritten\talready_consistent\texact_slice\texpanded_slice"
            "\tsubsequence_search\tunresolved\tskipped_no_answer\tskipped_span_mismatch"
            "\tspan_issues\n"
            "50\t50\t10\t0\t34\t1\t5\t0\t0\t1\n"
        )

    def test_missing_output_is_usage_error(self, capsys):
        code, _out, err = run(
            capsys, "fix", "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS
        )
        assert code == 1
        assert "usage error" in err


#: one record whose two answers carry edge whitespace: stripped, the first
#: is raw-consistent and the second needs the prefix-space variant
EDGE_RECORD = {
    "context": "The ship sank in 1912 at night.",
    "qas": [
        {"qid": "trailing", "question": "When?", "answers": ["in 1912 "]},
        {"qid": "leading", "question": "Which year?", "answers": [" 1912"]},
    ],
}


def test_analyze_and_fix_judge_the_stripped_answer(capsys, tmp_path):
    dataset = write_dataset(tmp_path / "edge.jsonl", EDGE_RECORD)
    tokenizer = ["--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset)]
    code, out, _err = run(capsys, "analyze", *tokenizer)
    assert code == 0
    (stats,) = json.loads(out)["stats"]
    assert (stats["consistent_raw"], stats["consistent_prefix_only"], stats["inconsistent"]) == (
        1, 1, 0,
    )
    code, out, _err = run(capsys, "fix", *tokenizer, "--output", str(tmp_path / "fixed.jsonl"))
    assert code == 0
    counts = json.loads(out)["summary"]["counts"]
    assert {method: n for method, n in counts.items() if n} == {
        "already_consistent": 1,
        "subsequence_search": 1,
    }


class TestEvaluateCommand:
    def test_perfect_predictions(self, capsys, eval_files):
        gold, perfect, _worse = eval_files
        code, out, _err = run(
            capsys, "evaluate", "--dataset", gold, "--predictions", perfect
        )
        assert code == 0
        report = json.loads(out)
        (metrics,) = report["metrics"]
        assert metrics["em"] == 100.0
        assert metrics["f1"] == 100.0
        assert metrics["hallucination_rate"] == 0.0
        assert len(report["per_example"]) == 3

    def test_two_prediction_files_add_significance(self, capsys, eval_files):
        gold, perfect, worse = eval_files
        code, out, _err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", worse,
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["metrics"]) == 2
        assert "per_example" not in report
        sig = report["significance"]
        assert sorted(sig) == ["method", "metric", "p_value", "resamples", "seed", "statistic"]
        assert sig["metric"] == "f1"
        assert 0.0 < sig["p_value"] <= 1.0
        assert sig["statistic"] > 0  # the first file scores higher

    def test_library_rows_are_the_printed_rows(self, capsys, tmp_path, multi_qa_path):
        first = {"m1": "1912", "m2": "ship", "m3": "The Ship", "m6": "museum treaty", "x": "?"}
        second = {"m1": "in 1912", "m4": "nobody", "m5": "treaty"}
        for files in ([first], [first, second]):
            argv = ["evaluate", "--dataset", str(multi_qa_path)]
            for i, preds in enumerate(files):
                path = tmp_path / f"preds{i}.json"
                path.write_text(json.dumps(preds))
                argv += ["--predictions", str(path)]
            code, out, _err = run(capsys, *argv)
            assert code == 0
            printed = json.loads(out)
            _, stream = read_dataset(multi_qa_path)
            result = evaluate(files, stream)
            assert result.reports == [
                {k: v for k, v in row.items() if k != "predictions"} for row in printed["metrics"]
            ]
            if len(files) == 1:
                assert printed["per_example"] == [
                    {"qid": qid, "em": em, "f1": round(score, 6)}
                    for qid, em, score in result.scores[0]
                ]

    def test_two_prediction_files_on_zero_questions_is_data_error(
        self, capsys, eval_files, tmp_path
    ):
        _gold, perfect, worse = eval_files
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps({"header": {"dataset": "empty"}}) + "\n")
        code, out, err = run(
            capsys, "evaluate", "--dataset", str(empty),
            "--predictions", perfect, "--predictions", worse,
        )
        assert code == 2
        assert out == ""
        assert "data error" in err
        assert "Traceback" not in err

    def test_identical_prediction_files_give_p_one(self, capsys, eval_files):
        gold, perfect, _worse = eval_files
        code, out, _err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", perfect,
        )
        assert code == 0
        assert json.loads(out)["significance"]["p_value"] == 1.0

    def test_unknown_qid_warns_but_succeeds(self, capsys, eval_files, tmp_path):
        gold, _perfect, _worse = eval_files
        preds = tmp_path / "extra.json"
        preds.write_text(json.dumps({"q1": "1912", "ghost": "nothing"}))
        code, out, err = run(
            capsys, "evaluate", "--dataset", gold, "--predictions", str(preds)
        )
        assert code == 0
        assert "ghost" in err
        (metrics,) = json.loads(out)["metrics"]
        assert metrics["unknown_qids"] == ["ghost"]

    def test_repeated_qid_is_data_error(self, capsys, tmp_path):
        qa = {"qid": "q", "question": "When?", "answers": ["1912"]}
        lines = [{"header": {}}, {"context": "It opened in 1912.", "qas": [qa, qa]}]
        gold = tmp_path / "repeated.jsonl"
        gold.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps({"q": "1912"}))
        code, out, err = run(
            capsys, "evaluate", "--dataset", str(gold), "--predictions", str(preds)
        )
        assert code == 2
        assert out == ""
        assert "data error: duplicate qid 'q' in dataset" in err

    def test_negative_seed_is_usage_error(self, capsys, eval_files):
        gold, perfect, worse = eval_files
        code, out, err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", worse, "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert "usage error: --seed must be at least 0, not -1" in err

    def test_three_prediction_files_rejected(self, capsys, eval_files, tmp_path):
        gold, perfect, worse = eval_files
        code, _out, err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", worse, "--predictions", perfect,
        )
        assert code == 1
        assert "one or two" in err

    def test_bad_prediction_value_is_data_error(self, capsys, eval_files, tmp_path):
        gold, _perfect, _worse = eval_files
        preds = tmp_path / "bad.json"
        preds.write_text('{"q1": 5}')
        code, _out, err = run(
            capsys, "evaluate", "--dataset", gold, "--predictions", str(preds)
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("files", [1, 2])
    def test_memory_grows_by_about_one_record_with_context_length(self, capsys, tmp_path, files):
        """Contexts 10x longer raise the peak by about one record, not by
        one record per question: the dataset is streamed, not held. With two
        files the significance test's chunk may top the peak, so one file
        checks the scoring pass alone."""

        def peak(words: int, records: int = 200) -> tuple[int, int]:
            lines = [json.dumps({"header": {}})]
            for i in range(records):
                context = " ".join(f"w{i}x{j}" for j in range(words))
                qas = [{"qid": f"q{i}", "question": "?", "answers": [f"w{i}x1"]}]
                lines.append(json.dumps({"context": context, "qas": qas}))
            gold = tmp_path / f"gold{words}.jsonl"
            gold.write_text("\n".join(lines) + "\n")
            right = tmp_path / "right.json"
            right.write_text(json.dumps({f"q{i}": f"w{i}x1" for i in range(records)}))
            partial = tmp_path / "partial.json"
            partial.write_text(json.dumps({f"q{i}": f"w{i}x2 w{i}x3" for i in range(records)}))
            argv = ["evaluate", "--dataset", gold]
            for predictions in (right, partial)[:files]:
                argv += ["--predictions", predictions]
            tracemalloc.start()
            try:
                code, _out, _err = run(capsys, *map(str, argv))
                _, traced_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            return traced_peak, len(lines[1])

        peak(100)  # warm-up: the first two-file run imports numpy
        short_peak, short_record = peak(100)
        long_peak, long_record = peak(1000)
        # holding every example would add 200 records' growth
        assert long_peak - short_peak < 10 * (long_record - short_record)

    def test_tsv_projection(self, capsys, eval_files):
        gold, perfect, worse = eval_files
        code, out, _err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", worse,
            "--format", "tsv",
        )
        assert code == 0
        assert out == (
            f"{EVALUATE_TSV_HEADER}\n"
            f"{perfect}\t3\t3\t100.0\t100.0\t0.0\t0.0\t1.0\t0.3333333333333333\n"
            f"{worse}\t3\t3\t66.6667\t66.6667\t33.3333\t33.3333\t1.0\t0.3333333333333333\n"
        )

    def test_tsv_with_one_file_leaves_significance_blank(self, capsys, eval_files):
        gold, perfect, _worse = eval_files
        code, out, _err = run(
            capsys, "evaluate", "--dataset", gold, "--predictions", perfect, "--format", "tsv"
        )
        assert code == 0
        assert out == (
            f"{EVALUATE_TSV_HEADER}\n"
            f"{perfect}\t3\t3\t100.0\t100.0\t0.0\t0.0\t\t\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--vocab", VOCAB, "--merges", MERGES, "--workers", "2"],
        ["fix", "--vocab", VOCAB, "--merges", MERGES, "--output", "x.jsonl", "--workers", "2"],
        ["evaluate", "--predictions", "p.json", "--workers", "2"],
        ["inspect", "--vocab", VOCAB, "--merges", MERGES, "--qid", "n01", "--workers", "2"],
        ["analyze", "--vocab", VOCAB, "--merges", MERGES, "--gzip", "yes"],
        ["fix", "--vocab", VOCAB, "--merges", MERGES, "--output", "x.jsonl", "--seed", "1"],
        ["inspect", "--vocab", VOCAB, "--merges", MERGES, "--qid", "n01", "--seed", "1"],
        ["inspect", "--vocab", VOCAB, "--merges", MERGES, "--qid", "n01", "--format", "json"],
    ],
    ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
)
def test_removed_flags_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--dataset", CORPUS)
    assert code == 1
    assert out == ""
    assert "usage error" in err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fix", "--vocab", VOCAB, "--merges", MERGES, "--output", "x.jsonl"],
         "fix takes exactly one --dataset"),
        (["evaluate", "--predictions", "p.json"], "evaluate takes exactly one --dataset"),
    ],
    ids=["fix", "evaluate"],
)
def test_second_dataset_is_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--dataset", CORPUS, "--dataset", CORPUS)
    assert code == 1
    assert out == ""
    assert f"usage error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--vocab", VOCAB, "--merges", MERGES, "--seed", "7"],
         "--seed needs --sample"),
        (["evaluate", "--predictions", "p.json", "--seed", "7"],
         "--seed needs two --predictions files"),
    ],
    ids=["analyze", "evaluate"],
)
def test_seed_that_nothing_reads_is_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    # p.json does not exist, so exit 1 rather than 3 shows the check runs first
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--dataset", CORPUS, "--output", "report.json")
    assert code == 1
    assert out == ""
    assert f"usage error: {message}" in err
    assert list(tmp_path.iterdir()) == []


def _golden_evaluate(name: str) -> list[str]:
    """``evaluate`` of the two prediction files on ``golden/{name}.jsonl``."""
    golden = DATA / "golden"
    return [
        "--dataset", str(golden / f"{name}.jsonl"),
        "--predictions", str(golden / f"{name}_a.json"),
        "--predictions", str(golden / f"{name}_b.json"),
    ]


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_seed_that_is_read_is_echoed(capsys, command):
    # the 40 questions of ties_sampled take the sampled significance test
    argv = {
        "analyze": ["--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS, "--sample", "20"],
        "evaluate": _golden_evaluate("ties_sampled"),
    }[command]
    code, out, _err = run(capsys, command, *argv, "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 7
    if command == "evaluate":
        assert report["significance"]["seed"] == 7


def test_seed_the_exact_significance_test_ignores_is_usage_error(capsys, tmp_path):
    # the 13 questions of ties_exact take the exact test, which draws nothing
    report = tmp_path / "report.json"
    argv = [*_golden_evaluate("ties_exact"), "--output", str(report)]
    code, _out, _err = run(capsys, "evaluate", *argv)
    assert code == 0
    assert json.loads(report.read_text())["significance"]["seed"] is None
    report.unlink()
    code, out, err = run(capsys, "evaluate", *argv, "--seed", "7")
    assert code == 1
    assert out == ""
    assert "usage error: --seed is not read" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "evaluate", "inspect"])
def test_report_output_leaves_no_temporary_file(capsys, tmp_path, eval_files, command):
    gold, perfect, _worse = eval_files
    argv = {
        "analyze": ["--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS],
        "evaluate": ["--dataset", gold, "--predictions", perfect],
        "inspect": ["--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS, "--qid", "n01"],
    }[command]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    report = out_dir / "report.txt"
    code, out, _err = run(capsys, command, *argv, "--output", str(report))
    assert code == 0
    assert out == ""
    assert list(out_dir.iterdir()) == [report]
    assert report.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_tsv_output_keeps_a_non_utf8_file_name(capsys, tmp_path, eval_files, command):
    # a name byte that is not UTF-8 reaches argv as a lone surrogate; the
    # TSV row carries the name, and --output writes the byte back as is
    gold, perfect, _worse = eval_files
    name = os.fsdecode(b"h\xff.json")
    if command == "analyze":
        dataset = tmp_path / name
        dataset.write_text(json.dumps({"header": {}}) + "\n")  # no dataset name
        argv = ["--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset)]
    else:
        predictions = tmp_path / name
        predictions.write_bytes(Path(perfect).read_bytes())
        argv = ["--dataset", gold, "--predictions", str(predictions)]
    report = tmp_path / "report.tsv"
    code, out, err = run(capsys, command, *argv, "--format", "tsv", "--output", str(report))
    assert code == 0
    assert out == ""
    assert "Traceback" not in err
    assert b"h\xff.json\t" in report.read_bytes()


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_tsv_cells_escape_tabs_and_line_breaks(capsys, tmp_path, eval_files, command):
    gold, perfect, _worse = eval_files
    if command == "analyze":
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({"header": {"dataset": "sq\tuad\nx\r\\y"}}) + "\n")
        argv = ["--vocab", VOCAB, "--merges", MERGES, "--dataset", str(dataset)]
    else:
        predictions = tmp_path / "sq\tuad\nx\r\\y"
        predictions.write_bytes(Path(perfect).read_bytes())
        argv = ["--dataset", gold, "--predictions", str(predictions)]
    code, out, _err = run(capsys, command, *argv, "--format", "tsv")
    assert code == 0
    header, row = out.splitlines()
    assert out == f"{header}\n{row}\n"
    cells = row.split("\t")
    assert len(cells) == len(header.split("\t"))
    assert cells[0].endswith("sq\\tuad\\nx\\r\\\\y")


@pytest.mark.parametrize(
    "command, field",
    [
        ("analyze", "context"),
        ("analyze", "answers"),
        ("analyze", "header"),
        ("fix", "context"),
        ("fix", "qid"),
        ("fix", "question"),
        ("fix", "answers"),
        ("fix", "header"),
        ("evaluate", "context"),
        ("inspect", "context"),
    ],
)
def test_lone_surrogate_in_dataset_is_data_error(capsys, tmp_path, command, field):
    # json.dumps writes a lone surrogate as the escape \ud800, which is
    # valid UTF-8 on disk; the text it decodes to cannot be encoded back
    qa = {
        "qid": "q1",
        "question": "When?",
        "answers": ["1912"],
        "detected_answers": [{"text": "1912", "char_spans": [[21, 24]]}],
    }
    header = {"dataset": "surrogates"}
    record = {"context": "The bridge opened in 1912.", "qas": [qa]}
    if field == "header":
        header["dataset"] += "\ud800"
    elif field == "context":
        record["context"] += "\ud800"
    elif field == "answers":
        qa["answers"] = ["1912\ud800"]
    else:
        qa[field] += "\ud800"
    dataset = tmp_path / "surrogate.jsonl"
    dataset.write_text(json.dumps({"header": header}) + "\n" + json.dumps(record) + "\n")
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps({"q1": "1912"}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    tokenizer = ["--vocab", VOCAB, "--merges", MERGES]
    argv = {
        "analyze": [*tokenizer, "--format", "tsv"],
        "fix": tokenizer,
        "evaluate": ["--predictions", str(preds)],
        "inspect": [*tokenizer, "--qid", "q1"],
    }[command]
    code, out, err = run(
        capsys, command, *argv,
        "--dataset", str(dataset), "--output", str(out_dir / "result"),
    )
    assert code == 2
    assert out == ""
    assert f"data error: line {1 if field == 'header' else 2}: unpaired surrogate" in err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "inspect"])
def test_surrogate_vocab_token_loads(capsys, tmp_path, command):
    vocab = json.loads(Path(VOCAB).read_text(encoding="utf-8"))
    vocab["\ud800"] = max(vocab.values()) + 1
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps(vocab))  # the token as the escape \ud800
    argv = ["--vocab", str(vocab_path), "--merges", MERGES, "--dataset", CORPUS]
    if command == "inspect":
        argv += ["--qid", "n01"]
    code, out, err = run(capsys, command, *argv)
    assert code == 0
    assert out
    assert "Traceback" not in err


def _module_loaded_after_each_step(module, steps):
    """Run ``steps`` (name -> CLI argv, or None to call ``load_tokenizer``
    alone) in one fresh interpreter, in order; report whether ``module`` was
    imported once ``tokfix.cli`` was, and after each step."""
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            "from tokfix.cli import load_tokenizer, main",
            f"loaded = {{'import': {module!r} in sys.modules}}",
            f"for name, argv in {steps!r}.items():",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        if argv is None:",
            f"            load_tokenizer({VOCAB!r}, {MERGES!r})",
            "        else:",
            "            assert main(argv) == 0, name",
            f"    loaded[name] = {module!r} in sys.modules",
            "print(json.dumps(loaded))",
        ]
    )
    src = str(Path(tokfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _start_up_steps(tmp_path, eval_files):
    gold, perfect, worse = eval_files
    out = str(tmp_path / "report")
    tokenizer = ["--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS]
    return {
        "load_tokenizer": None,
        "analyze": ["analyze", *tokenizer, "--output", out],
        # fix writes its summary to stdout, which the script silences
        "fix": ["fix", *tokenizer, "--output", str(tmp_path / "fixed.jsonl.gz")],
        "evaluate_one": ["evaluate", "--dataset", gold, "--predictions", perfect, "--output", out],
        "evaluate_two": [
            "evaluate", "--dataset", gold, "--predictions", perfect, "--predictions", worse,
            "--output", out,
        ],
    }


def test_numpy_is_loaded_only_by_the_significance_test(tmp_path, eval_files):
    """Only the two-file ``evaluate`` should load numpy. Importing numpy
    costs ``analyze`` and ``fix`` start-up time and RSS."""
    steps = _start_up_steps(tmp_path, eval_files)
    del steps["load_tokenizer"]
    assert _module_loaded_after_each_step("numpy", steps) == {
        "import": False,
        "analyze": False,
        "fix": False,
        "evaluate_one": False,
        "evaluate_two": True,
    }


def test_only_the_sampled_significance_test_loads_numpy_random(tmp_path, eval_files):
    """The exact test (n <= 13) draws nothing, so it builds no generator and
    leaves ``numpy.random`` unloaded; 14 questions need the sampled test."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    if probe.stdout.strip() != "False":
        pytest.skip("a fresh `import numpy` loads numpy.random here (numpy 1.x does)")
    gold, perfect, worse = eval_files
    big_gold = tmp_path / "gold14.jsonl"
    qas = [{"qid": f"q{i}", "question": "?", "answers": ["1912"]} for i in range(14)]
    records = [{"header": {}}, {"context": "The bridge opened in 1912.", "qas": qas}]
    big_gold.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    right = tmp_path / "right14.json"
    right.write_text(json.dumps({f"q{i}": "1912" for i in range(14)}))
    wrong = tmp_path / "wrong14.json"
    wrong.write_text(json.dumps({f"q{i}": "bridge" for i in range(0, 14, 2)}))
    out = str(tmp_path / "report")
    steps = {
        "exact": [
            "evaluate", "--dataset", gold, "--predictions", perfect, "--predictions", worse,
            "--output", out,
        ],
        "sampled": [
            "evaluate", "--dataset", str(big_gold), "--predictions", str(right),
            "--predictions", str(wrong), "--output", out,
        ],
    }
    assert _module_loaded_after_each_step("numpy.random", steps) == {
        "import": False,
        "exact": False,
        "sampled": True,
    }
    report = json.loads(Path(out).read_text())
    assert report["significance"]["method"] == "monte_carlo"


@pytest.mark.parametrize("tokenizing", ["load_tokenizer", "analyze", "fix"])
def test_regex_is_loaded_only_with_a_tokenizer(tmp_path, eval_files, tokenizing):
    """``evaluate`` tokenizes nothing, so it starts without ``regex``; the
    first tokenizer loads it, whichever command loads that tokenizer."""
    every = _start_up_steps(tmp_path, eval_files)
    steps = {name: every[name] for name in ("evaluate_one", "evaluate_two", tokenizing)}
    assert _module_loaded_after_each_step("regex", steps) == {
        "import": False,
        "evaluate_one": False,
        "evaluate_two": False,
        tokenizing: True,
    }


@pytest.mark.parametrize(
    "user, expected",
    [
        ({}, ["1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "4"}, ["4", None]),
        # OpenBLAS would read a default OPENBLAS_NUM_THREADS before this
        ({"OMP_NUM_THREADS": "4"}, [None, "4"]),
    ],
)
def test_blas_runs_on_one_thread_unless_the_user_sets_it(monkeypatch, eval_files, user, expected):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "")  # so the test's end restores the value from before it
        monkeypatch.delenv(name)
    for name, value in user.items():
        monkeypatch.setenv(name, value)
    gold, perfect, _ = eval_files
    assert main(["evaluate", "--dataset", gold, "--predictions", perfect]) == 0
    assert [os.environ.get(name) for name in names] == expected


@pytest.mark.parametrize("command", ["analyze", "evaluate", "inspect"])
def test_main_leaves_the_root_logger_alone(capsys, tmp_path, command):
    # a host that runs main in process keeps its own logging handlers, and
    # the bundled corpus's one span issue still reaches stderr as one line
    preds = tmp_path / "preds.json"
    preds.write_text("{}")
    flags = {
        "analyze": ["--vocab", VOCAB, "--merges", MERGES],
        "evaluate": ["--predictions", str(preds)],
        "inspect": ["--vocab", VOCAB, "--merges", MERGES, "--qid", "i04"],
    }[command]
    root = logging.getLogger()
    host = logging.NullHandler()
    root.addHandler(host)
    before = list(root.handlers)
    try:
        code, _out, err = run(capsys, command, "--dataset", CORPUS, *flags)
        after = list(root.handlers)
    finally:
        root.removeHandler(host)
    assert code == 0
    assert err == "line 41: qid i04: span [4, 10] points at 'fenwick', not 'Fenwick'\n"
    assert after == before


class TestInspectCommand:
    def test_trace_for_fused_number(self, capsys):
        code, out, _err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--qid", "n01",
        )
        assert code == 0
        assert "'19', '12'" in out
        assert "Ġ1912" in out
        assert "consistent_prefix_space" in out
        assert "expanded_slice" in out

    def test_consistent_example_traces_already_consistent(self, capsys):
        code, out, _err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--qid", "s01",
        )
        assert code == 0
        assert "consistent_raw" in out
        assert "already_consistent" in out

    @pytest.mark.parametrize(
        "qid, standalone, prefixed, verdict, method",
        [
            ("trailing", "['i', 'n', 'Ġ1912']", "['Ġ', 'i', 'n', 'Ġ1912']",
             "consistent_raw at tokens [14, 17)", "already_consistent"),
            ("leading", "['19', '12']", "['Ġ1912']",
             "consistent_prefix_space at tokens [16, 17)", "subsequence_search"),
        ],
    )
    def test_answer_with_edge_whitespace_traces_its_stripped_form(
        self, capsys, tmp_path, qid, standalone, prefixed, verdict, method
    ):
        dataset = write_dataset(tmp_path / "edge.jsonl", EDGE_RECORD)
        code, out, _err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(dataset), "--qid", qid,
        )
        assert code == 0
        lines = dict(line.split(":", 1) for line in out.splitlines())
        assert lines["standalone pieces"].strip().startswith(standalone + " ids")
        assert lines["prefixed pieces"].strip().startswith(prefixed + " ids")
        assert lines["verdict"].strip() == verdict
        assert lines["fix method"].strip() == method
        assert lines["context span"].strip().startswith(verdict.split(" at ")[1])

    def test_unknown_qid_is_data_error(self, capsys):
        code, _out, err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--qid", "nope",
        )
        assert code == 2
        assert "not found" in err

    def test_question_without_usable_answer_is_data_error(self, capsys, tmp_path):
        # a blank answer is no answer
        for answers in ([], ["  "]):
            qa = {"qid": "q", "question": "When?", "answers": answers}
            lines = [{"header": {}}, {"context": "It opened in 1912.", "qas": [qa]}]
            path = tmp_path / "unanswered.jsonl"
            path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
            code, out, err = run(
                capsys,
                "inspect", "--vocab", VOCAB, "--merges", MERGES,
                "--dataset", str(path), "--qid", "q",
            )
            assert code == 2
            assert out == ""
            assert "data error: qid 'q' has no usable answer" in err

    def test_repeated_qid_shows_first_occurrence(self, capsys, tmp_path):
        # inspect stops at the first match, so a repeat is not an error here
        lines = [{"header": {}}] + [
            {
                "context": "It opened in 1912.",
                "qas": [{"qid": "q", "question": question, "answers": ["1912"]}],
            }
            for question in ("First?", "Second?")
        ]
        path = tmp_path / "repeated.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        code, out, _err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", str(path), "--qid", "q",
        )
        assert code == 0
        assert "question:          First?" in out
        assert "Second?" not in out

    def test_stream_is_closed_at_the_first_match(self, capsys, monkeypatch):
        streams = []
        original = cli.read_dataset

        def keep_stream(path, **kwargs):
            header, stream = original(path, **kwargs)
            streams.append(stream)
            return header, stream

        monkeypatch.setattr(cli, "read_dataset", keep_stream)
        code, _out, _err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--qid", "n01",
        )
        assert code == 0
        (stream,) = streams
        assert stream.gi_frame is None  # closed, not left suspended mid-file
