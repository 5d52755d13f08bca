import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tokfix
from tokfix import cli
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


def test_numpy_is_loaded_only_by_the_significance_test(tmp_path, eval_files):
    """Each step runs in one fresh interpreter and reports whether numpy
    was imported by then; only the two-file ``evaluate`` should load it."""
    gold, perfect, worse = eval_files
    out = str(tmp_path / "report")
    steps = {
        "analyze": ["analyze", "--vocab", VOCAB, "--merges", MERGES, "--dataset", CORPUS],
        "evaluate_one": ["evaluate", "--dataset", gold, "--predictions", perfect],
        "evaluate_two": [
            "evaluate", "--dataset", gold, "--predictions", perfect, "--predictions", worse,
        ],
    }
    script = "\n".join(
        [
            "import json, sys",
            "from tokfix.cli import main",
            "loaded = {'import': 'numpy' in sys.modules}",
            f"for name, argv in {steps!r}.items():",
            f"    assert main(argv + ['--output', {out!r}]) == 0, name",
            "    loaded[name] = 'numpy' in sys.modules",
            "print(json.dumps(loaded))",
        ]
    )
    src = str(Path(tokfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False,
        "analyze": False,
        "evaluate_one": False,
        "evaluate_two": True,
    }


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
