"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The published-asset reproduction test skips unless real tokenizer
and dataset files are present (see README for the expected layout).
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from tokfix.bpe import (
    decode,
    encode,
    find_subsequence,
    load_tokenizer,
    token_slice_for_span,
)
from tokfix.consist import UNRESOLVED, analyze_dataset, fix_dataset, make_consistent_target
from tokfix.metrics import (
    evaluate,
    hallucination_check,
    paired_significance,
)
from tokfix.mrqa import read_dataset

from gen_corpus import EXPECTED_METHODS, EXPECTED_TOTALS
from helpers import (
    SPACE_UNITS,
    as_id_string,
    as_oracle_result,
    bpe_oracle_ids,
    has_faithful_slice,
    naive_find,
    random_edge_answer,
    random_letter_text,
    random_spaced_text,
    random_toy_tokenizer,
    slice_oracle,
    token_bytes,
)
from test_metrics import HAND_CASES, hand_examples, hand_predictions

ASSETS_DIR = Path(os.environ.get("TOKFIX_ASSETS_DIR", Path(__file__).parent / "assets"))


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _fuzz_strings(count: int) -> list[str]:
    rng = random.Random(20260808)
    pools = [
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
        " \t\n\r\x0b\x0c",
        "".join(chr(c) for c in range(0x00, 0x20)) + "\x7f",  # control bytes
        "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~",
        "àéîöşžĀŋ ¿¡",
        "日本語中文한국어",
        "🎉🚀🙂🏳️‍🌈",
        "αβγδ؟؛טקסט",
    ]
    strings = [""]
    while len(strings) < count:
        text = ""
        for _ in range(rng.randrange(1, 6)):
            pool = rng.choice(pools)
            text += "".join(rng.choice(pool) for _ in range(rng.randrange(0, 10)))
        strings.append(text)
    return strings[:count]


def test_round_trip_losslessness(corpus_tok):
    strings = _fuzz_strings(10_000)
    started = time.perf_counter()
    failures = 0
    for text in strings:
        enc = encode(corpus_tok, text)
        if decode(corpus_tok, enc.ids) != text:
            failures += 1
            continue
        position = 0
        for start, end in zip(enc.bounds, enc.bounds[1:]):
            if start != position or end <= start:
                failures += 1
                break
            position = end
        else:
            if position != len(text.encode("utf-8")):
                failures += 1
    elapsed = time.perf_counter() - started
    report(
        "round-trip losslessness",
        failures == 0 and elapsed < 10.0,
        f"{len(strings)} strings, {failures} failures, {elapsed:.2f}s",
    )


def test_oracle_equivalence_bpe_merge_loop():
    rng = random.Random(1105)
    cases = disagreements = 0
    while cases < 1000:
        tok = random_toy_tokenizer(rng)
        for _ in range(10):
            text = random_letter_text(rng, max_len=12)
            if list(encode(tok, text).ids) != bpe_oracle_ids(tok, text):
                disagreements += 1
            cases += 1
    report(
        "oracle equivalence: bpe merge loop",
        disagreements == 0,
        f"{cases} cases",
    )


def test_oracle_equivalence_find_subsequence():
    rng = random.Random(2203)
    disagreements = 0
    for _ in range(1000):
        haystack = [rng.randrange(10) for _ in range(rng.randrange(0, 65))]
        if rng.random() < 0.5 and len(haystack) >= 2:
            i = rng.randrange(len(haystack))
            needle = haystack[i : i + rng.randrange(1, 9)]
        else:
            needle = [rng.randrange(10) for _ in range(rng.randrange(0, 9))]
        if find_subsequence(as_id_string(haystack), needle) != naive_find(haystack, needle):
            disagreements += 1
    report(
        "oracle equivalence: find_subsequence",
        disagreements == 0,
        "1000 cases",
    )


def test_oracle_equivalence_token_slice():
    rng = random.Random(3301)
    cases = disagreements = 0
    while cases < 500:
        tok = random_toy_tokenizer(rng)
        words = [
            "".join(rng.choice("abc") for _ in range(rng.randrange(1, 6)))
            for _ in range(rng.randrange(1, 5))
        ]
        text = " ".join(words)
        enc = encode(tok, text)
        for _ in range(5):
            start = rng.randrange(0, len(text) + 1)
            end = rng.randrange(start, len(text) + 1)
            result = as_oracle_result(token_slice_for_span(enc, text, start, end))
            if result != slice_oracle(enc, text, start, end):
                disagreements += 1
            cases += 1
    report(
        "oracle equivalence: token_slice_for_span",
        disagreements == 0,
        f"{cases} cases",
    )


def test_repair_guarantee_against_brute_force_oracle():
    """``unresolved`` only when no context slice decodes to the answer once
    both are stripped of edge whitespace, and every other target does."""
    rng = random.Random(4404)
    cases = unresolved = misses = unfaithful = 0
    while cases < 10_000:
        tok = random_toy_tokenizer(rng, SPACE_UNITS)  # merges may fuse spaces and newlines
        context = random_spaced_text(rng)
        enc = encode(tok, context)
        for _ in range(8):
            case = random_edge_answer(rng, context)
            if case is None:
                continue
            answer, span = case
            outcome = make_consistent_target(context, enc, answer, span)
            cases += 1
            if outcome.method == UNRESOLVED:
                unresolved += 1
                misses += has_faithful_slice(tok, enc, answer)
            else:
                decoded = token_bytes(tok, outcome.target_ids).decode("utf-8")
                unfaithful += decoded.strip() != answer.strip()
    report(
        "repair guarantee: brute-force oracle",
        misses == unfaithful == 0 and unresolved > 0,
        f"{misses} misses among {unresolved} unresolved, "
        f"{unfaithful} unfaithful targets of {cases} cases",
    )


def test_repair_guarantee_on_bundled_corpus(corpus_tok, corpus_path, tmp_path):
    header, stream = read_dataset(corpus_path, on_error=lambda _m: None)
    fixed_path = tmp_path / "fixed.jsonl"
    summary = fix_dataset(corpus_tok, stream, fixed_path, header=header)

    problems = []
    resolved = 0
    qid_families = set()
    with open(fixed_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            record = json.loads(line)
            context_string = encode(corpus_tok, record["context"]).id_string
            for qa in record["qas"]:
                qid_families.add(qa["qid"][0])
                if qa["fix_method"] == UNRESOLVED:
                    continue
                resolved += 1
                target = tuple(qa["target_token_ids"])
                if find_subsequence(context_string, target) is None:
                    problems.append(f"{qa['qid']}: target not a context slice")
                    continue
                answer = (
                    qa["detected_answers"][0]["text"]
                    if qa["detected_answers"]
                    else qa["answers"][0]
                )
                decoded = token_bytes(corpus_tok, target).decode("utf-8")
                if decoded.strip() != answer.strip():
                    problems.append(f"{qa['qid']}: decoded {decoded!r} != {answer!r}")

    covers_families = {"p", "n", "u"} <= qid_families  # prefix space, numbers, punctuation
    expected_resolved = EXPECTED_TOTALS["total"] - EXPECTED_METHODS["unresolved"]
    report(
        "repair guarantee",
        not problems
        and covers_families
        and summary["total"] == EXPECTED_TOTALS["total"]
        and resolved == expected_resolved,
        f"{resolved}/{summary['total']} repaired, 0 rechecked inconsistent"
        if not problems
        else "; ".join(problems[:3]),
    )


def _asset(*names: str) -> Path | None:
    for name in names:
        path = ASSETS_DIR / name
        if path.exists():
            return path
    return None


ASSETS_PRESENT = all(
    [
        _asset("vocab.json"),
        _asset("merges.txt"),
        _asset("SQuAD.jsonl.gz", "SQuAD.jsonl"),
        _asset(
            "NaturalQuestionsShort.jsonl.gz",
            "NaturalQuestions.jsonl.gz",
            "NaturalQuestionsShort.jsonl",
        ),
    ]
)


needs_assets = pytest.mark.skipif(
    not ASSETS_PRESENT,
    reason=(
        "published tokenizer/dataset assets not present; place vocab.json, "
        "merges.txt, SQuAD.jsonl.gz and NaturalQuestionsShort.jsonl.gz under "
        f"{ASSETS_DIR} or set TOKFIX_ASSETS_DIR (see README)"
    ),
)


@needs_assets
def test_published_vocab_loads_and_splits_numbers():
    from tokfix.bpe import ids_to_pieces

    tok = load_tokenizer(_asset("vocab.json"), _asset("merges.txt"))
    checks = {
        "vocab size": len(tok.vocab) == 50_265,
        "fused token known": "Ġ1912" in tok.vocab,
        "standalone split": ids_to_pieces(tok, encode(tok, "1912").ids) == ["19", "12"],
        "in-context fused": ids_to_pieces(tok, encode(tok, " 1912").ids)
        == ["Ġ1912"],
    }
    report(
        "published vocab load and number split",
        all(checks.values()),
        ", ".join(k for k, ok in checks.items() if not ok) or "4 checks",
    )


@needs_assets
def test_published_asset_rate_reproduction():
    tok = load_tokenizer(_asset("vocab.json"), _asset("merges.txt"))
    started = time.perf_counter()

    _, stream = read_dataset(
        _asset("SQuAD.jsonl.gz", "SQuAD.jsonl"), on_error=lambda _m: None
    )
    squad = analyze_dataset(tok, stream, sample_size=1000, seed=42)

    _, stream = read_dataset(
        _asset(
            "NaturalQuestionsShort.jsonl.gz",
            "NaturalQuestions.jsonl.gz",
            "NaturalQuestionsShort.jsonl",
        ),
        on_error=lambda _m: None,
    )
    nq = analyze_dataset(tok, stream, sample_size=1000, seed=42)
    elapsed = time.perf_counter() - started

    checks = {
        "squad raw": abs(squad["pct_inconsistent_raw"] - 96.1) <= 3.0,
        "squad after-prefix": abs(squad["pct_inconsistent_after_prefix"] - 3.9) <= 3.0,
        "nq after-prefix": abs(nq["pct_inconsistent_after_prefix"] - 0.1) <= 1.0,
        "runtime": elapsed < 60.0,
    }
    report(
        "published-asset rate reproduction",
        all(checks.values()),
        f"squad raw={squad['pct_inconsistent_raw']:.1f} "
        f"after={squad['pct_inconsistent_after_prefix']:.1f} "
        f"nq after={nq['pct_inconsistent_after_prefix']:.1f} {elapsed:.1f}s",
    )


def test_monotonicity_of_prefix_resolution(corpus_tok, corpus_path):
    rng = random.Random(808)
    holds = True
    # the bundled corpus, sampled subsets, and random toy datasets
    _, stream = read_dataset(corpus_path, on_error=lambda _m: None)
    examples = list(stream)
    datasets = [examples]
    for size in (10, 25, 40):
        datasets.append(random.Random(size).sample(examples, size))
    for batch in datasets:
        stats = analyze_dataset(corpus_tok, batch)
        if stats["pct_inconsistent_after_prefix"] > stats["pct_inconsistent_raw"]:
            holds = False
    for _ in range(20):
        stats = analyze_dataset(
            corpus_tok, rng.sample(examples, rng.randrange(1, len(examples)))
        )
        if stats["pct_inconsistent_after_prefix"] > stats["pct_inconsistent_raw"]:
            holds = False
    report("monotonicity after prefix resolution", holds)


def test_metrics_fidelity_hand_fixture():
    mismatches = []
    result = evaluate([hand_predictions()], hand_examples())
    (row,), (rows,) = result.reports, result.scores
    by_qid = {qid: (em, score) for qid, em, score in rows}
    for qid, _ctx, _golds, _pred, em, frac, _h in HAND_CASES:
        got_em, got_f1 = by_qid[qid]
        if got_em != em or abs(got_f1 - float(frac)) > 1e-12:
            mismatches.append(qid)

    flagged = set(row["hallucinated_qids"])
    if "c02" not in flagged:  # the misspelled answer
        mismatches.append("c02-flag")
    if "c03" not in flagged:  # the paraphrased answer
        mismatches.append("c03-flag")

    rng = random.Random(6401)
    contexts = [case[1] for case in HAND_CASES]
    slice_flags = 0
    for _ in range(1000):
        context = rng.choice(contexts)
        i = rng.randrange(len(context))
        j = rng.randrange(i + 1, len(context) + 1)
        if hallucination_check(context[i:j], context):
            slice_flags += 1

    report(
        "metrics fidelity",
        not mismatches and slice_flags == 0,
        f"20 hand cases, 1000 slices, flags={slice_flags}"
        if not mismatches
        else f"mismatch: {mismatches}",
    )


def test_significance_sanity():
    import itertools

    def enumerate_p(a, b):
        diffs = [x - y for x, y in zip(a, b)]
        observed = abs(sum(diffs))
        hits = 0
        for signs in itertools.product((1, -1), repeat=len(diffs)):
            if abs(sum(s * d for s, d in zip(signs, diffs))) >= observed:
                hits += 1
        return hits / 2 ** len(diffs)

    rng = random.Random(7703)
    mismatched = 0
    for _ in range(40):
        n = rng.randrange(1, 11)
        a = [rng.randrange(0, 9) / 8 for _ in range(n)]
        b = [rng.randrange(0, 9) / 8 for _ in range(n)]
        result = paired_significance(a, b, resamples=10_000, seed=11)
        if result.p_value != enumerate_p(a, b):
            mismatched += 1

    identical = paired_significance([0.25, 0.5, 1.0], [0.25, 0.5, 1.0])
    report(
        "significance sanity",
        mismatched == 0 and identical.p_value == 1.0,
        "40 exhaustive comparisons",
    )
