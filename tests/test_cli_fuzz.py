"""Fuzz the CLI in process with wrong-typed fields, lone surrogates and
corrupt bytes.

Every command must map a hostile dataset to exit 0, 2 or 3 without an
escaping exception or a traceback, and a failed command must leave
neither its ``--output`` file nor a temporary file beside it.
"""

import contextlib
import copy
import gzip
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokfix.cli import main

from helpers import write_file

DATA = Path(__file__).parent / "data"
TOKENIZER = ["--vocab", str(DATA / "fixture_vocab.json"), "--merges", str(DATA / "fixture_merges.txt")]


def _qa(qid, question, answer, span):
    return {
        "qid": qid,
        "question": question,
        "answers": [answer],
        "detected_answers": [{"text": answer, "char_spans": [span]}],
    }


#: The dataset's lines before mutation: a header and two records.
BASE = [
    {"header": {"dataset": "fuzz"}},
    {
        "context": "The bridge opened in 1912.",
        "qas": [_qa("q1", "When?", "1912", [21, 24]), _qa("q2", "What?", "bridge", [4, 9])],
    },
    {
        "context": "A museum preserved the treaty.",
        "qas": [_qa("q3", "Preserved what?", "treaty", [23, 28])],
    },
]


def _paths(node, prefix=()):
    """The path of every line, field and list element below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


PATHS = list(_paths(BASE))
TEXT_PATHS = [
    path
    for path in PATHS
    if path[-1] in ("context", "text", "qid", "question") or path[-2:-1] == ("answers",)
]
WRONG_VALUES = [None, True, 0, -1, 1.5, "x", "", [], [0], [[0, 0]], {}, {"x": 0}]

# (path, kind, payload): "set" replaces the value at the path, "append"
# adds a lone surrogate to the text there (JSON writes it as an escape)
MUTATION = st.one_of(
    st.tuples(st.sampled_from(PATHS), st.just("set"), st.sampled_from(WRONG_VALUES)),
    st.tuples(st.sampled_from(TEXT_PATHS), st.just("append"), st.sampled_from(["\ud800", "\udfff"])),
)


def mutated_dataset(mutations):
    lines = copy.deepcopy(BASE)
    for path, kind, payload in mutations:
        try:
            node = lines
            for key in path[:-1]:
                node = node[key]
            # a copy, so a later path cannot write into WRONG_VALUES or make a cycle
            node[path[-1]] = copy.deepcopy(payload) if kind == "set" else node[path[-1]] + payload
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped this path
    return "\n".join(json.dumps(line) for line in lines) + "\n"


def invocations(dataset, preds_a, preds_b):
    common = ["--dataset", dataset]
    return [
        ["analyze", *TOKENIZER, *common],
        ["fix", *TOKENIZER, *common],
        ["evaluate", "--predictions", preds_a, *common],
        ["evaluate", "--predictions", preds_a, "--predictions", preds_b, *common],
        ["inspect", *TOKENIZER, "--qid", "q1", *common],
    ]


def run_with_output(argv, out_dir):
    """Run ``argv`` with ``--output`` in a new ``out_dir``; check that no
    traceback is printed and that the output exists only on success.
    Return the exit code and stderr."""
    out_dir.mkdir()
    output = out_dir / "result"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--output", str(output)])
    assert "Traceback" not in stderr.getvalue()
    assert list(out_dir.iterdir()) == ([output] if code == 0 else []), argv[0]
    output.unlink(missing_ok=True)
    out_dir.rmdir()
    return code, stderr.getvalue()


def write_predictions(tmp):
    preds_a = tmp / "a.json"
    preds_a.write_text(json.dumps({"q1": "1912", "q2": "bridge", "q3": "the treaty"}))
    preds_b = tmp / "b.json"
    preds_b.write_text(json.dumps({"q1": "1912", "q2": "window", "q3": "treaty"}))
    return str(preds_a), str(preds_b)


def assert_exits_cleanly(dataset_bytes):
    """Run every invocation on the dataset and check the exit contract."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dataset = tmp / "data.jsonl"
        dataset.write_bytes(dataset_bytes)
        for argv in invocations(str(dataset), *write_predictions(tmp)):
            code, stderr = run_with_output(argv, tmp / "out")
            assert code in (0, 2, 3), (argv[0], stderr)


@settings(max_examples=400, deadline=None)
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_hostile_dataset_exits_cleanly(mutations):
    assert_exits_cleanly(mutated_dataset(mutations).encode("utf-8"))


#: Valid datasets whose bytes are corrupted: ``BASE`` and the bundled corpus.
SOURCES = {
    "base": mutated_dataset([]).encode("utf-8"),
    "corpus": (DATA / "repair_corpus.jsonl").read_bytes(),
}

# (op, position, byte): positions wrap around the data's length
BYTE_EDIT = st.tuples(
    st.sampled_from(["flip", "insert", "delete"]),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
)


def edited(data, edits):
    buf = bytearray(data)
    for op, position, value in edits:
        if op == "insert":
            buf.insert(position % (len(buf) + 1), value)
        elif buf:
            i = position % len(buf)
            if op == "flip":
                buf[i] ^= value
            else:
                del buf[i]
    return bytes(buf)


# A truncated gzip fails only at its cut, so ``inspect`` exits 0 when the
# qid it stops at comes before the cut.
@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(SOURCES)),
    st.sampled_from(["mutated", "truncated gzip", "mutated gzip"]),
    st.lists(BYTE_EDIT, max_size=4),
    st.integers(min_value=0),
)
def test_corrupt_bytes_exit_cleanly(source, kind, edits, cut):
    data = SOURCES[source]
    if kind == "mutated":
        data = edited(data, edits)
    elif kind == "truncated gzip":
        packed = gzip.compress(edited(data, edits), mtime=0)
        data = packed[: cut % len(packed)]
    else:
        data = edited(gzip.compress(data, mtime=0), edits)
    assert_exits_cleanly(data)


#: JSON the parser refuses: nesting deeper than the recursion limit, and
#: an integer longer than Python's int-string conversion limit.
REFUSED_JSON = {"deep": "[" * 200_000 + "]" * 200_000, "long integer": "1" * 5_000}


#: The commands that read each place a value is put in.
READERS = {
    "header": {"analyze", "fix", "evaluate", "inspect"},
    "record": {"analyze", "fix", "evaluate", "inspect"},
    "predictions": {"evaluate"},
    "vocab": {"analyze", "fix", "inspect"},
}


@pytest.mark.parametrize("value", sorted(REFUSED_JSON))
@pytest.mark.parametrize("place", sorted(READERS))
def test_json_the_parser_refuses_is_a_data_error(tmp_path, place, value):
    lines = [json.dumps(line) for line in BASE]
    spliced = f', "extra": {REFUSED_JSON[value]}}}'
    if place in ("header", "record"):
        index = 0 if place == "header" else 1
        lines[index] = lines[index][:-1] + spliced
    dataset = write_file(tmp_path, "\n".join(lines) + "\n")
    preds_a, preds_b = write_predictions(tmp_path)
    if place == "predictions":
        Path(preds_b).write_text(f'{{"q1": {REFUSED_JSON[value]}}}')
    vocab_text = json.dumps(json.loads((DATA / "fixture_vocab.json").read_text(encoding="utf-8")))
    if place == "vocab":
        vocab_text = vocab_text[:-1] + spliced
    vocab = write_file(tmp_path, vocab_text, "vocab.json")
    tokenizer = ["--vocab", str(vocab), "--merges", str(DATA / "fixture_merges.txt")]
    common = ["--dataset", str(dataset)]
    for argv in [
        ["analyze", *tokenizer, *common],
        ["fix", *tokenizer, *common],
        ["evaluate", "--predictions", preds_b, *common],
        ["evaluate", "--predictions", preds_a, "--predictions", preds_b, *common],
        ["inspect", *tokenizer, "--qid", "q1", *common],
    ]:
        if argv[0] not in READERS[place]:
            continue
        code, stderr = run_with_output(argv, tmp_path / "out")
        assert code == 2, (argv, stderr)
        assert "data error" in stderr
