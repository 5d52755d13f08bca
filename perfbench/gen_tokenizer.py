"""Train the benchmark's byte-level BPE asset from a seeded synthetic corpus.

The corpus is drawn from the shared lexicon (``words.py``), never from
files that ship with Python, so the asset cannot drift between Python
versions. Pre-tokenized segments follow the GPT-2 convention: a word
usually carries its leading space, so years such as " 1912" become single
tokens while the bare "1912" stays split, which is the effect ``tokfix``
repairs. Training is incremental (a pair index plus a lazy max-heap), and
ties break on the pair itself, so the same seed gives byte-identical files.
This script never imports ``tokfix``.

    python3 perfbench/gen_tokenizer.py [--seed 0] [--out perfbench/assets]
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
from collections import Counter, defaultdict
from pathlib import Path

from words import ZipfSampler, lexicon, number, year

NUM_MERGES = 4000
CORPUS_WORDS = 1_500_000
TRAIN_TYPES = 8000
PUNCTUATION = {".": 60, ",": 50, " (": 6, ")": 6, ' "': 3, '"': 3, "'s": 4, " -": 2, ";": 1}


def byte_to_unit() -> dict[int, str]:
    """GPT-2 byte -> printable unit map (bytes outside the printable
    ranges map, in byte order, to codepoints 256, 257, ...)."""
    self_mapped = list(range(33, 127)) + list(range(161, 173)) + list(range(174, 256))
    mapping = {b: chr(b) for b in self_mapped}
    fill = 256
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(fill)
            fill += 1
    return mapping


def corpus_segments(seed: int) -> Counter[str]:
    """Segment frequencies of a seeded corpus of CORPUS_WORDS words."""
    rng = random.Random(seed)
    sampler = ZipfSampler(lexicon()[:TRAIN_TYPES], exponent=1.05)
    counts: Counter[str] = Counter()
    for _ in range(CORPUS_WORDS):
        r = rng.random()
        if r < 0.03:
            # numbers nearly always follow a space; bare ones follow "(" etc.
            token = year(rng) if r < 0.02 else number(rng)
            counts[(" " if rng.random() < 0.93 else "") + token] += 1
            continue
        word = sampler.draw(rng)
        if r < 0.09:
            word = word.capitalize()
        counts[(" " if rng.random() < 0.95 else "") + word] += 1
    scale = CORPUS_WORDS // 100
    for punct, weight in PUNCTUATION.items():
        counts[punct] += weight * scale
    return counts


def train(segments: Counter[str], num_merges: int) -> list[tuple[str, str]]:
    """Byte-level BPE training with a pair index and a lazy heap."""
    byte_map = byte_to_unit()
    words = [[byte_map[b] for b in seg.encode("utf-8")] for seg in sorted(segments)]
    freqs = [segments[seg] for seg in sorted(segments)]

    pair_counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, units in enumerate(words):
        for pair in zip(units, units[1:]):
            pair_counts[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        neg, pair = heapq.heappop(heap)
        if pair_counts.get(pair, 0) != -neg:
            continue  # stale entry: the count changed after it was pushed
        if -neg < 2:
            break
        merges.append(pair)
        left, right = pair
        touched: set[tuple[str, str]] = set()
        for i in sorted(where.pop(pair)):
            units, freq = words[i], freqs[i]
            merged: list[str] = []
            j = 0
            while j < len(units):
                if j + 1 < len(units) and units[j] == left and units[j + 1] == right:
                    merged.append(left + right)
                    j += 2
                else:
                    merged.append(units[j])
                    j += 1
            if len(merged) == len(units):
                continue
            for p in zip(units, units[1:]):
                pair_counts[p] -= freq
                touched.add(p)
            for p in zip(merged, merged[1:]):
                pair_counts[p] += freq
                where[p].add(i)
                touched.add(p)
            words[i] = merged
        pair_counts.pop(pair, None)
        for p in touched:
            if pair_counts.get(p, 0) > 0:
                heapq.heappush(heap, (-pair_counts[p], p))
    return merges


def write_asset(merges: list[tuple[str, str]], out: Path) -> None:
    vocab: dict[str, int] = {}
    for unit in byte_to_unit().values():
        vocab.setdefault(unit, len(vocab))
    for left, right in merges:
        vocab.setdefault(left + right, len(vocab))
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.json").write_text(
        json.dumps(vocab, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    lines = ["#version: 0.2"] + [f"{left} {right}" for left, right in merges]
    (out / "merges.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "assets")
    args = parser.parse_args()
    write_asset(train(corpus_segments(args.seed), NUM_MERGES), args.out)


if __name__ == "__main__":
    main()
