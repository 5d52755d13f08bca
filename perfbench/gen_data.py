"""Seeded MRQA-format datasets and prediction files for the benchmark.

Every output is a pure function of (workload, seed, scale): the same
arguments give byte-identical files (gzip members carry mtime 0). Like
``tests/gen_corpus.py`` this never imports ``tokfix``.

- ``squad``: SQuAD-shaped paragraphs of 120-150 Zipf-distributed words,
  4 or 5 qas per context (4.5 on average), a small share of multibyte
  words. Some answers are slices of a word, so their gold spans start or
  end mid-token.
- ``nq``: NQ-shaped contexts of about 1k words from a broader vocabulary
  with more numbers, one qa per context. One context in a hundred carries
  a single unbroken Latin-letter run; the run lengths are spread evenly
  over 1k-4k characters so every seed carries the same merge-loop load.
- predictions: two files over a squad dataset, mixing exact answers,
  partial overlaps, edge-whitespace variants, case variants, out-of-context
  answers, missing qids and a few qids absent from the dataset.

Both dataset kinds include qas whose char span points at the wrong text
(the reader prunes the span and reports it) and qas without any answer.

    python3 perfbench/gen_data.py --workload squad_fix --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
from pathlib import Path

from words import ZipfSampler, lexicon, make_word, number

ADVERSARIAL_SHARE = 0.01
ADVERSARIAL_CHARS = (1000, 4000)
LETTERS = "abcdefghijklmnopqrstuvwxyz"

# contexts per workload at scale 1.0
CONTEXTS = {"squad_fix": 1000, "nq_analyze": 400, "squad_evaluate": 2340}


def letter_run(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _paragraph(
    rng: random.Random,
    sampler: ZipfSampler,
    n_words: int,
    number_rate: float,
    oov_rate: float = 0.0,
) -> tuple[str, list[tuple[int, int]]]:
    """Sentences of Zipf words; returns the text and each word's char span."""
    parts: list[str] = []
    spans: list[tuple[int, int]] = []
    pos = 0
    left = 0
    for _ in range(n_words):
        start_sentence = left == 0
        if start_sentence:
            left = rng.randint(8, 20)
        r = rng.random()
        if r < number_rate:
            word = number(rng)
        elif r < number_rate + oov_rate:
            word = make_word(rng)
        else:
            word = sampler.draw(rng)
        if start_sentence:
            word = word.capitalize()
        sep = " " if parts else ""
        paren = rng.random() < 0.02
        piece = sep + ("(" if paren else "")
        start = pos + len(piece)
        spans.append((start, start + len(word)))
        piece += word + (")" if paren else "")
        left -= 1
        if left == 0:
            piece += "."
        elif rng.random() < 0.06:
            piece += ","
        parts.append(piece)
        pos += len(piece)
    return "".join(parts), spans


def _qa(
    rng: random.Random, qid: str, context: str, spans: list[tuple[int, int]]
) -> dict:
    """One qa with a gold answer drawn from the context (or none)."""
    topic_start, topic_end = spans[rng.randrange(len(spans))]
    question = f"What is said about {context[topic_start:topic_end]}?"
    kind = rng.random()
    if kind < 0.02:
        return {"qid": qid, "question": question, "answers": [], "detected_answers": []}
    i = rng.randrange(len(spans))
    start, end = spans[i]
    if kind < 0.10:
        # a slice of one word: the gold span starts or ends mid-token
        if end - start >= 5:
            cut = rng.randint(2, end - start - 2)
            if rng.random() < 0.5:
                start += cut
            else:
                end = start + cut
    elif kind < 0.40:
        j = min(len(spans) - 1, i + rng.randint(1, 3))
        end = spans[j][1]
    answer = context[start:end]
    char_span = [start, end - 1]  # MRQA spans are inclusive
    if 0.10 <= kind < 0.13 and start > 0:
        char_span = [start - 1, end - 2]  # points at the wrong text
    golds = [answer]
    if rng.random() < 0.25:
        golds.append(context[spans[i][0] : spans[min(len(spans) - 1, i + 1)][1]])
    return {
        "qid": qid,
        "question": question,
        "answers": golds,
        "detected_answers": [{"text": answer, "char_spans": [char_span]}],
    }


def squad_records(rng: random.Random, n_contexts: int, prefix: str) -> list[dict]:
    sampler = ZipfSampler(lexicon()[:8000], exponent=1.05)
    records = []
    for c in range(n_contexts):
        text, spans = _paragraph(rng, sampler, rng.randint(120, 150), 0.03)
        n_qas = 4 + c % 2
        qas = [_qa(rng, f"{prefix}{c:05d}q{k}", text, spans) for k in range(n_qas)]
        records.append({"context": text, "qas": qas})
    return records


def nq_records(rng: random.Random, n_contexts: int, prefix: str) -> list[dict]:
    sampler = ZipfSampler(lexicon(), exponent=0.9)
    n_adv = max(1, round(n_contexts * ADVERSARIAL_SHARE))
    lo, hi = ADVERSARIAL_CHARS
    lengths = [lo + (hi - lo) * (2 * k + 1) // (2 * n_adv) for k in range(n_adv)]
    adversarial = dict(zip(rng.sample(range(n_contexts), n_adv), lengths))
    records = []
    for c in range(n_contexts):
        text, spans = _paragraph(rng, sampler, rng.randint(900, 1100), 0.05, 0.02)
        if c in adversarial:
            # the run goes in front of a word; later word spans shift past it
            k = rng.randrange(len(spans))
            cut = spans[k][0]
            run = letter_run(rng, adversarial[c]) + " "
            text = text[:cut] + run + text[cut:]
            spans[k:] = [(s + len(run), e + len(run)) for s, e in spans[k:]]
        records.append({"context": text, "qas": [_qa(rng, f"{prefix}{c:05d}", text, spans)]})
    return records


def _partial(rng: random.Random, context: str, start: int, end: int) -> str:
    answer = context[start:end]
    if " " in answer and rng.random() < 0.5:
        return answer.rsplit(" ", 1)[0]
    nxt = context.find(" ", end + 1)
    return context[start : len(context) if nxt < 0 else nxt]


def predictions(rng: random.Random, records: list[dict], exact_share: float) -> dict:
    """qid -> answer text for one system; ``exact_share`` sets its quality."""
    mix = (exact_share, 0.20, 0.08, 0.04, 0.10, 0.05)
    kinds = ("exact", "partial", "space", "case", "outside", "missing")
    preds: dict[str, str] = {}
    for record in records:
        context = record["context"]
        for qa in record["qas"]:
            if not qa["answers"]:
                continue
            answer = qa["answers"][0]
            start, end = qa["detected_answers"][0]["char_spans"][0]
            end += 1
            if context[start:end] != answer:
                start, end = -1, -1
            kind = rng.choices(kinds, weights=mix)[0]
            if kind == "missing":
                continue
            if kind == "partial" and start >= 0:
                answer = _partial(rng, context, start, end)
            elif kind == "space":
                answer = " " + answer if rng.random() < 0.5 else answer + " "
            elif kind == "case":
                answer = answer.upper()
            elif kind == "outside":
                answer = f"{make_word(rng)} {make_word(rng)}"
            preds[qa["qid"]] = answer
    for k in range(20):
        preds[f"unknown{k:03d}"] = make_word(rng)
    return preds


def write_dataset(path: Path, name: str, records: list[dict]) -> None:
    lines = [json.dumps({"header": {"dataset": name, "split": "train"}})]
    lines += [json.dumps(record, ensure_ascii=False) for record in records]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if path.suffix == ".gz":
        with open(path, "wb") as raw, gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0
        ) as out:
            out.write(data)
    else:
        path.write_bytes(data)


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=0) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, scale: float, out: Path) -> dict:
    """Write one workload's inputs under ``out``; return their paths."""
    rng = random.Random(f"{workload}/{seed}")
    n = max(2, round(CONTEXTS[workload] * scale))
    out.mkdir(parents=True, exist_ok=True)
    if workload == "nq_analyze":
        path = out / "NaturalQuestionsShort.jsonl"
        write_dataset(path, "NaturalQuestionsShort", nq_records(rng, n, "nq"))
        return {"dataset": path}
    records = squad_records(rng, n, "sq")
    path = out / "SQuAD.jsonl.gz"
    write_dataset(path, "SQuAD", records)
    if workload == "squad_fix":
        return {"dataset": path}
    paths = {"dataset": path, "predictions": []}
    for name, share in (("original", 0.45), ("consistent", 0.55)):
        pred_path = out / f"{name}.json"
        write_json(pred_path, predictions(rng, records, share))
        paths["predictions"].append(pred_path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CONTEXTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for key, value in generate(args.workload, args.seed, args.scale, args.out).items():
        print(key, value)


if __name__ == "__main__":
    main()
