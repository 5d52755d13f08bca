"""Build the bundled repair-fixture corpus and its toy tokenizer assets.

Pure construction: this script never imports the library, so the expected
verdicts/methods written into each record come from hand reasoning about
the merge table, not from the code under test. Regenerate with:

    python tests/gen_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

# words that merge into a single "Ġword" token when space-prefixed, while
# their bare spellings stay split into single letters
CHAIN_WORDS = [
    "fenwick",
    "bridge",
    "museum",
    "harbor",
    "window",
    "treaty",
    "doritos",
    "theory",
    "anchor",
    "garden",
    "piston",
    "meadow",
    "lantern",
    "compass",
    "fossil",
]

GHOST = "Ġ"  # printable unit for the space byte ("Ġ")


def corpus_merges() -> list[tuple[str, str]]:
    merges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()

    def add(left: str, right: str) -> None:
        if (left, right) not in seen:
            seen.add((left, right))
            merges.append((left, right))

    # numbers: bare pieces and single space-prefixed tokens
    add("1", "9")
    add("1", "2")
    add(GHOST, "19")
    add(GHOST + "19", "12")
    add("1", "8")
    add("5", "4")
    add("18", "54")
    add(GHOST, "1854")
    add("7", "7")
    add(GHOST, "77")
    add("2", "0")
    add("20", "20")
    add(GHOST, "2020")
    # punctuation-adjacent helpers
    add(GHOST, "U")
    add("'", "s")
    # letter chains, anchored at the space unit only
    for word in CHAIN_WORDS:
        prefix = GHOST
        for ch in word:
            add(prefix, ch)
            prefix += ch
    return merges


def _span_for(context: str, needle: str, occurrence: int) -> list[int]:
    pos = -1
    for _ in range(occurrence):
        pos = context.index(needle, pos + 1)
    return [pos, pos + len(needle) - 1]  # inclusive ends, MRQA style


def corpus_records() -> list[dict]:
    records: list[dict] = []

    def rec(
        qid: str,
        context: str,
        answer: str,
        verdict: str,
        method: str,
        *,
        occurrence: int = 1,
        span_text: str | None = None,
        with_span: bool = True,
        with_detected: bool = True,
        gold: list[str] | None = None,
        question: str = "",
    ) -> None:
        detected = []
        if with_detected:
            spans = (
                [_span_for(context, span_text or answer, occurrence)]
                if with_span
                else []
            )
            detected.append({"text": answer, "char_spans": spans})
        records.append(
            {
                "context": context,
                "qas": [
                    {
                        "qid": qid,
                        "question": question or f"What does record {qid} ask about?",
                        "answers": gold if gold is not None else [answer],
                        "detected_answers": detected,
                        "expected": {"verdict": verdict, "method": method},
                    }
                ],
            }
        )

    prefix = "consistent_prefix_space"
    raw = "consistent_raw"
    incons = "inconsistent"

    # prefix-space single words: space-prefixed occurrence is one token,
    # the standalone answer splits into letters
    prefix_cases = [
        ("p01", "It was designed by fenwick in the spring.", "fenwick"),
        ("p02", "They crossed the old bridge at dawn.", "bridge"),
        ("p03", "A quiet museum stood near the square.", "museum"),
        ("p04", "Ships waited in the harbor overnight.", "harbor"),
        ("p05", "Light entered through the window slowly.", "window"),
        ("p06", "Both sides signed the treaty that winter.", "treaty"),
        ("p07", "A bowl of doritos sat on the table.", "doritos"),
        ("p08", "Her theory explained the silence.", "theory"),
        ("p09", "The crew raised the anchor before noon.", "anchor"),
        ("p10", "Rain fell over the garden all night.", "garden"),
        ("p11", "The engine lost a piston on the hill.", "piston"),
        ("p12", "Deer gathered in the meadow at dusk.", "meadow"),
    ]
    for qid, context, answer in prefix_cases:
        rec(qid, context, answer, prefix, "expanded_slice")

    # multi-word answers, prefix space on the first word
    multi_cases = [
        ("m01", "Visitors photographed the fenwick bridge from below.", "fenwick bridge"),
        ("m02", "Scholars debated the garden treaty for years.", "garden treaty"),
        ("m03", "She painted the harbor window twice.", "harbor window"),
        ("m04", "They toured the anchor museum together.", "anchor museum"),
    ]
    for qid, context, answer in multi_cases:
        rec(qid, context, answer, prefix, "expanded_slice")

    # sentence-start occurrences tokenize bare, matching the standalone form
    start_cases = [
        ("s01", "fenwick designed the tower himself.", "fenwick"),
        ("s02", "bridge inspections happen every spring.", "bridge"),
        ("s03", "1912 was remembered for the flood.", "1912"),
        ("s04", "doritos were scattered on the floor.", "doritos"),
        ("s05", "77 sailors returned that evening.", "77"),
        ("s06", 'The sign read "museum" in faded paint.', "museum"),
    ]
    for qid, context, answer in start_cases:
        rec(qid, context, answer, raw, "already_consistent")

    # numbers mid-sentence: split standalone, fused with the space in context
    number_cases = [
        ("n01", "The ship was finished in 1912 after delays.", "1912"),
        ("n02", "Records mention 1912 and little else.", "1912"),
        ("n03", "The estate dated from 1854 according to the deed.", "1854"),
        ("n04", "Surveys from 1854 were incomplete.", "1854"),
        ("n05", "Route 77 closes in the winter.", "77"),
        ("n06", "Gate 77 stayed open late.", "77"),
        ("n07", "The census of 2020 changed the map.", "2020"),
        ("n08", "Planning began in 2020 quietly.", "2020"),
    ]
    for qid, context, answer in number_cases:
        rec(qid, context, answer, prefix, "expanded_slice")

    # punctuation-adjacent answers
    rec("u01", "They reached the harbor, then rested.", "harbor", prefix, "expanded_slice")
    rec("u02", "Snow covered the meadow. Nothing moved.", "meadow", prefix, "expanded_slice")
    rec("u03", "Officials from the U.S. arrived early.", "U.S.", prefix, "expanded_slice")
    rec("u04", "The design was fenwick's alone.", "fenwick's", prefix, "expanded_slice")
    rec("u05", "A label said (doritos) on the box.", "doritos", raw, "already_consistent")
    rec("u06", "The ledger listed 1912, 1854, and more.", "1854", prefix, "expanded_slice")

    # irreducible: answers that exist nowhere verbatim in the context
    rec(
        "i01",
        "The ship was launched in 1912 at the harbor.",
        "nineteen twelve",
        incons,
        "unresolved",
        with_detected=False,
        gold=["nineteen twelve"],
    )
    rec(
        "i02",
        "The garden treaty ended the dispute.",
        "accord of the garden",
        incons,
        "unresolved",
        with_detected=False,
        gold=["accord of the garden"],
    )
    rec(
        "i03",
        "The hull was laid in 1912, they say.",
        "912",
        incons,
        "unresolved",
    )
    rec(
        "i04",
        "the fenwick estate fell quiet.",
        "Fenwick",
        incons,
        "unresolved",
        span_text="fenwick",
    )
    rec(
        "i05",
        "The ancient harbor lay in ruins.",
        "old harbor",
        incons,
        "unresolved",
        with_detected=False,
        gold=["old harbor"],
    )

    # the gold span picks the annotated occurrence, not the leftmost match
    rec("o01", "The bridge was old, but the bridge held.", "bridge", prefix, "expanded_slice", occurrence=2)
    rec("o02", "One anchor fell while the other anchor held fast.", "anchor", prefix, "expanded_slice", occurrence=2)
    rec("o03", "A window faced the sea, and a window faced town.", "window", prefix, "expanded_slice", occurrence=2)
    # no span at all: the repair falls back to searching the context ids
    rec("o04", "The museum wing of the museum closed.", "museum", prefix, "subsequence_search", with_span=False)

    # edges
    rec("e01", "1912", "1912", raw, "already_consistent")
    rec("e02", "The tower was built by fenwick", "fenwick", prefix, "expanded_slice")
    rec("e03", "doritos.", "doritos", raw, "already_consistent")
    rec("e04", "1854, the year of the survey, mattered.", "1854", raw, "already_consistent")
    rec("e05", "fenwick praised fenwick.", "fenwick", raw, "expanded_slice", occurrence=2)

    return records


# hand-tallied from the construction above; tests assert these
EXPECTED_TOTALS = {
    "total": 50,
    "consistent_raw": 11,
    "consistent_prefix_only": 34,
    "inconsistent": 5,
}
EXPECTED_METHODS = {
    "already_consistent": 10,
    "exact_slice": 0,
    "expanded_slice": 34,
    "subsequence_search": 1,
    "unresolved": 5,
}


#: A prediction for the gold "red green blue" per F1 it scores against it.
F1_PREDICTIONS = {
    "1": "red green blue",
    "4/5": "red green",
    "2/3": "red green yellow",
    "1/2": "red",
    "1/3": "red pink yellow",
    "0": "yellow",
}

#: Per question, the F1 of systems a and b ("a:b") on the two tie-heavy
#: evaluate inputs: 13 questions for the exact significance test, 40 for
#: the sampled one. Many signed sums of the differences tie the observed
#: one exactly; the first three questions alone are the smallest such case.
TIE_SCORES = {
    "ties_exact": (
        "0:2/3 0:1/3 2/3:0 1/3:1 0:2/3 4/5:1/3 1/3:1 1/3:1 0:1 1/3:2/3 "
        "1:1 1/2:1 1/3:4/5"
    ),
    "ties_sampled": (
        "4/5:1/3 1/2:1/3 1:0 1/3:1 4/5:0 1/2:1/2 1/2:1/3 0:2/3 0:1 2/3:4/5 "
        "2/3:0 0:1/2 1/2:1 0:2/3 4/5:1 1:0 1/3:1 1/3:1/3 2/3:1 2/3:4/5 "
        "0:4/5 1/2:1/3 2/3:1/3 0:2/3 0:1/3 1/2:1/2 1:1 1/3:1/2 4/5:2/3 0:4/5 "
        "0:4/5 1/3:4/5 0:1/3 1/2:0 0:4/5 2/3:1 1/3:2/3 1/3:1/3 2/3:1 1/2:4/5"
    ),
}


def tie_records(scores: str) -> tuple[list[dict], dict, dict]:
    """Evaluate inputs whose per-question F1 pairs are ``scores``: records
    of up to four questions each, and the two systems' predictions."""
    context = "The red green blue flag flew over the harbor."
    start = context.index("red green blue")
    records: list[dict] = []
    preds_a: dict[str, str] = {}
    preds_b: dict[str, str] = {}
    for number, pair in enumerate(scores.split(), 1):
        f1_a, f1_b = pair.split(":")
        qid = f"t{number:02d}"
        if number % 4 == 1:
            records.append({"context": context, "qas": []})
        records[-1]["qas"].append(
            {
                "qid": qid,
                "question": "Which colours?",
                "answers": ["red green blue"],
                "detected_answers": [
                    {"text": "red green blue", "char_spans": [[start, start + 13]]}
                ],
            }
        )
        preds_a[qid] = F1_PREDICTIONS[f1_a]
        preds_b[qid] = F1_PREDICTIONS[f1_b]
    return records, preds_a, preds_b


def trailing_space_record() -> dict:
    """One record whose gold span also covers the space after its answer,
    in a context holding 2-, 3- and 4-byte characters ahead of it.

    "年" is a letter and "1912" digits, so "年1912" segments as "年" then
    "1912", which merges to 19/12 as it does standalone. The MRQA span's
    end is inclusive, so it covers "1912 " (the reader ignores trailing
    whitespace). The ladder narrows it to the stripped answer and finds
    the standalone 19/12 there, not the run 19/12/Ġ, since no merge
    starts Ġi.
    """
    context = "The café’s 🎉 menu lists 年1912 in ink."
    start = context.index("1912")
    return {
        "context": context,
        "qas": [
            {
                "qid": "x01",
                "question": "Which year does the menu list?",
                "answers": ["1912"],
                "detected_answers": [{"text": "1912", "char_spans": [[start, start + 4]]}],
            }
        ],
    }


def byte_unit_alphabet() -> list[str]:
    """The 256 printable unit characters, in byte order (no library import)."""
    self_mapped = (
        list(range(33, 127)) + list(range(161, 173)) + list(range(174, 256))
    )
    mapping = {b: chr(b) for b in self_mapped}
    fill = 256
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(fill)
            fill += 1
    return [mapping[b] for b in range(256)]


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    merges = corpus_merges()

    vocab: dict[str, int] = {u: i for i, u in enumerate(byte_unit_alphabet())}
    for left, right in merges:
        vocab.setdefault(left + right, len(vocab))
    (DATA_DIR / "fixture_vocab.json").write_text(
        json.dumps(vocab, ensure_ascii=False, indent=0), encoding="utf-8"
    )
    (DATA_DIR / "fixture_merges.txt").write_text(
        "#version: fixture\n" + "\n".join(f"{l} {r}" for l, r in merges) + "\n",
        encoding="utf-8",
    )

    records = corpus_records()
    assert len(records) == EXPECTED_TOTALS["total"]
    with open(DATA_DIR / "repair_corpus.jsonl", "w", encoding="utf-8") as out:
        out.write(json.dumps({"header": {"dataset": "repair-fixture", "split": "train"}}))
        out.write("\n")
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False))
            out.write("\n")
    golden = DATA_DIR / "golden"
    golden.mkdir(exist_ok=True)
    for name, scores in TIE_SCORES.items():
        tie_set, preds_a, preds_b = tie_records(scores)
        with open(golden / f"{name}.jsonl", "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": {"dataset": name}}) + "\n")
            for record in tie_set:
                out.write(json.dumps(record) + "\n")
        for suffix, preds in (("a", preds_a), ("b", preds_b)):
            (golden / f"{name}_{suffix}.json").write_text(
                json.dumps(preds, indent=0) + "\n", encoding="utf-8"
            )
    with open(golden / "trailing_space.jsonl", "w", encoding="utf-8") as out:
        out.write(json.dumps({"header": {"dataset": "trailing_space"}}) + "\n")
        out.write(json.dumps(trailing_space_record(), ensure_ascii=False) + "\n")
    print(
        f"wrote {len(records)} records, the tie-heavy evaluate inputs and the "
        f"trailing-space record to {DATA_DIR}"
    )


if __name__ == "__main__":
    main()
