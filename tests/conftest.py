import json
from pathlib import Path

import pytest

from tokfix.bpe import load_tokenizer
from tokfix.mrqa import read_dataset

from helpers import MULTI_QA_RECORDS, make_tokenizer

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toy_tok():
    """256 byte units plus merges a+b -> ab, ab+c -> abc."""
    return make_tokenizer([("a", "b"), ("ab", "c")])


@pytest.fixture(scope="session")
def number_tok():
    """Splits bare "1912" into 19/12 but fuses " 1912" into one token."""
    g = "Ġ"
    return make_tokenizer([("1", "9"), ("1", "2"), (g, "19"), (g + "19", "12")])


@pytest.fixture(scope="session")
def corpus_tok():
    return load_tokenizer(
        DATA_DIR / "fixture_vocab.json", DATA_DIR / "fixture_merges.txt"
    )


@pytest.fixture(scope="session")
def corpus_path():
    return DATA_DIR / "repair_corpus.jsonl"


@pytest.fixture()
def corpus_examples(corpus_path):
    _, stream = read_dataset(corpus_path, on_error=lambda _msg: None)
    return list(stream)


@pytest.fixture(scope="session")
def corpus_expectations(corpus_path):
    """qid -> {"verdict", "method"} side-channel written by the generator."""
    expected = {}
    with open(corpus_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            record = json.loads(line)
            for qa in record["qas"]:
                expected[qa["qid"]] = qa["expected"]
    return expected


@pytest.fixture(scope="session")
def multi_qa_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("multi_qa") / "multi_qa.jsonl"
    lines = [{"header": {"dataset": "multi-qa"}}, *MULTI_QA_RECORDS]
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path
