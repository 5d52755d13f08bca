import gzip
import json
from pathlib import Path

import pytest

from tokfix.cli import main
from tokfix.mrqa import read_dataset

from gen_corpus import EXPECTED_METHODS, EXPECTED_TOTALS
from helpers import MULTI_QA_RECORDS

DATA = Path(__file__).parent / "data"
VOCAB = str(DATA / "fixture_vocab.json")
MERGES = str(DATA / "fixture_merges.txt")
CORPUS = str(DATA / "repair_corpus.jsonl")


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

    def test_tsv_report(self, capsys):
        code, out, _err = run(
            capsys,
            "analyze",
            "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS,
            "--format", "tsv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "dataset"
        assert lines[1].split("\t")[0] == "repair-fixture"
        assert len(lines) == 2

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

    def test_malformed_dataset_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"header": {"dataset": "x"}}\n{broken\n')
        code, _out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", str(bad),
        )
        assert code == 2
        assert "data error" in err

    def test_workers_zero_is_usage_error(self, capsys):
        code, _out, err = run(
            capsys,
            "analyze", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--workers", "0",
        )
        assert code == 1
        assert "workers" in err


class TestFixCommand:
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
        assert header.dataset == "repair-fixture"
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

    def test_missing_output_is_usage_error(self, capsys):
        code, _out, err = run(
            capsys, "fix", "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS
        )
        assert code == 1
        assert "usage error" in err


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
        assert sig["metric"] == "f1"
        assert 0.0 < sig["p_value"] <= 1.0
        assert sig["statistic"] > 0  # the first file scores higher

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

    def test_tsv_projection(self, capsys, eval_files):
        gold, perfect, worse = eval_files
        code, out, _err = run(
            capsys,
            "evaluate", "--dataset", gold,
            "--predictions", perfect, "--predictions", worse,
            "--format", "tsv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("predictions\t")
        assert len(lines) == 3


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

    def test_unknown_qid_is_data_error(self, capsys):
        code, _out, err = run(
            capsys,
            "inspect", "--vocab", VOCAB, "--merges", MERGES,
            "--dataset", CORPUS, "--qid", "nope",
        )
        assert code == 2
        assert "not found" in err
