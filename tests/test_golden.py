"""Byte-exact reports on the bundled inputs.

Each command runs from ``tests/data`` with relative paths, so a report's
``config`` block does not depend on where the repository sits, and its
stdout must equal the file under ``tests/data/golden`` byte for byte on
every Python and numpy version the project supports; the dataset ``fix``
writes must equal ``fixed.jsonl`` there too. The two evaluate
inputs (written by ``tests/gen_corpus.py``) are tie-heavy: many sign-flip
sums tie the observed one exactly, so a p-value moves if a tie is missed.
The two ``evaluate_one`` reports score one prediction file of those
inputs, in JSON with its ``per_example`` rows and in TSV.
The ``inspect`` reports, the only output that prints token byte ranges,
cover four ladder rungs of the bundled corpus and a record of
``trailing_space.jsonl`` (also written by ``tests/gen_corpus.py``) whose
gold span covers a space after the answer and whose context holds 2-,
3- and 4-byte characters.
After an intended change to a report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from tokfix.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
TOKENIZER = ["--vocab", "fixture_vocab.json", "--merges", "fixture_merges.txt"]


def _evaluate(name: str) -> list[str]:
    return [
        "evaluate", "--dataset", f"golden/{name}.jsonl",
        "--predictions", f"golden/{name}_a.json", "--predictions", f"golden/{name}_b.json",
    ]


#: report file -> command line; ``fix`` also takes an ``--output`` path
REPORTS = {
    "analyze.json": ["analyze", *TOKENIZER, "--dataset", "repair_corpus.jsonl"],
    "analyze_any.tsv": [
        "analyze", *TOKENIZER, "--dataset", "repair_corpus.jsonl",
        "--answer-policy", "any", "--format", "tsv",
    ],
    "analyze_sample.json": [
        "analyze", *TOKENIZER, "--dataset", "repair_corpus.jsonl", "--sample", "20",
    ],
    "fix.json": ["fix", *TOKENIZER, "--dataset", "repair_corpus.jsonl"],
    "evaluate_exact.json": _evaluate("ties_exact"),
    "evaluate_sampled.json": _evaluate("ties_sampled"),
    "evaluate_one.json": [
        "evaluate", "--dataset", "golden/ties_exact.jsonl",
        "--predictions", "golden/ties_exact_b.json",
    ],
    "evaluate_one.tsv": [
        "evaluate", "--dataset", "golden/ties_sampled.jsonl",
        "--predictions", "golden/ties_sampled_a.json", "--format", "tsv",
    ],
    **{
        f"inspect_{qid}.txt": [
            "inspect", *TOKENIZER, "--dataset", "repair_corpus.jsonl", "--qid", qid,
        ]
        for qid in ("s01", "p01", "o04", "i01")
    },
    "inspect_x01.txt": [
        "inspect", *TOKENIZER, "--dataset", "golden/trailing_space.jsonl", "--qid", "x01",
    ],
}


def render(name: str, scratch: Path) -> str:
    """The stdout of report ``name``'s command run from ``tests/data``;
    ``fix`` writes its repaired dataset into ``scratch``."""
    argv = REPORTS[name]
    if argv[0] == "fix":
        argv = [*argv, "--output", str(scratch / "fixed.jsonl")]
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(DATA)
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, (name, code)
    return out.getvalue()


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_golden_bytes(name, tmp_path):
    assert render(name, tmp_path).encode("utf-8") == (GOLDEN / name).read_bytes()
    if REPORTS[name][0] == "fix":
        assert (tmp_path / "fixed.jsonl").read_bytes() == (GOLDEN / "fixed.jsonl").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for report in REPORTS:
            (GOLDEN / report).write_bytes(render(report, Path(scratch)).encode("utf-8"))
            print(f"wrote {GOLDEN / report}", file=sys.stderr)
        (GOLDEN / "fixed.jsonl").write_bytes((Path(scratch) / "fixed.jsonl").read_bytes())
        print(f"wrote {GOLDEN / 'fixed.jsonl'}", file=sys.stderr)
