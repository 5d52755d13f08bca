"""Self-check of the benchmark itself; run from the repository root.

    python3 perfbench/selfcheck.py            # about a minute on 2 cores
    python3 perfbench/selfcheck.py --repin    # rewrite pins.json first

Checks, each printed as PASS or FAIL:

- the tokenizer asset regenerates byte-identically from its generator;
- the asset shows the paper's effect (a year splits when encoded alone and
  is one token after a space), and the canary data exercises
  ``consistent_prefix_space`` and ``subsequence_search``;
- each dataset generator gives identical files twice for one seed and
  different files for another seed;
- each workload's canary output matches its pinned digest;
- a tiny-scale run of every workload, traced and untraced, is correct and
  emits exactly the metric names and units listed in BENCHMARK.json;
- a corrupted ``fix`` output counts as a failed invocation;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.

``--repin`` records the current asset and canary digests in pins.json;
only do that when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from check import read_jsonl
from gen_tokenizer import NUM_MERGES, corpus_segments, train, write_asset

SCRATCH = run.WORK / "selfcheck"
TINY = 0.05


def digest_dir(path: Path) -> str:
    sha = hashlib.sha256()
    for item in sorted(path.iterdir()):
        sha.update(item.name.encode() + item.read_bytes())
    return sha.hexdigest()


def check_asset() -> None:
    out = SCRATCH / "asset"
    write_asset(train(corpus_segments(0), NUM_MERGES), out)
    for name in ("vocab.json", "merges.txt"):
        if (out / name).read_bytes() != (run.ASSETS / name).read_bytes():
            raise AssertionError(f"regenerated {name} differs from the committed asset")


def check_paper_effect() -> None:
    from tokfix.bpe import encode, load_tokenizer

    tok = load_tokenizer(run.ASSETS / "vocab.json", run.ASSETS / "merges.txt")
    years = [str(y) for y in range(1800, 2021)]
    split = [y for y in years if len(encode(tok, y).ids) > 1 and len(encode(tok, " " + y).ids) == 1]
    if "1912" not in split:
        raise AssertionError("'1912' does not split alone and fuse after a space")
    print(f"      {len(split)} of {len(years)} years split alone and fuse after a space")


def check_generators() -> None:
    for workload in run.WORKLOADS:
        first = run.generate(workload, 7, TINY, SCRATCH / f"gen-{workload}-a")
        again = run.generate(workload, 7, TINY, SCRATCH / f"gen-{workload}-b")
        other = run.generate(workload, 8, TINY, SCRATCH / f"gen-{workload}-c")
        a, b, c = (digest_dir(p["dataset"].parent) for p in (first, again, other))
        if a != b:
            raise AssertionError(f"{workload}: one seed gave two different inputs")
        if a == c:
            raise AssertionError(f"{workload}: two seeds gave the same inputs")


def canary_digests(decoder: run.Decoder) -> dict[str, str]:
    digests = {}
    for workload in run.WORKLOADS:
        inputs = run.make_inputs(workload, run.CANARY_SEED, run.CANARY_SCALE, SCRATCH / workload)
        outcome = run.invoke(inputs, decoder)
        if outcome.failure:
            raise AssertionError(f"{workload} canary failed: {outcome.failure}")
        digests[workload] = outcome.digest
        report = (inputs.dir / "stdout.txt").read_text(encoding="utf-8")
        if workload == "squad_fix":
            counts = json.loads(report)["summary"]["counts"]
            if not counts["subsequence_search"]:
                raise AssertionError("canary fix has no subsequence_search repair")
        if workload == "nq_analyze":
            (stats,) = json.loads(report)["stats"]
            if not stats["consistent_prefix_only"]:
                raise AssertionError("canary analyze has no consistent_prefix_space verdict")
    return digests


def check_pins(decoder: run.Decoder) -> None:
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    problem = run.asset_problem(pins)
    if problem:
        raise AssertionError(problem)
    for workload, digest in canary_digests(decoder).items():
        if pins["canary"][workload] != digest:
            raise AssertionError(f"{workload}: canary digest {digest} is not the pinned one")


def repin(decoder: run.Decoder) -> None:
    pins = {
        "asset": {
            name: hashlib.sha256((run.ASSETS / name).read_bytes()).hexdigest()
            for name in ("vocab.json", "merges.txt")
        },
        "canary": canary_digests(decoder),
    }
    run.PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


def bench_run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv, "--scale", str(TINY)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = bench_run(run.ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload} trace {trace}: not correct\n{proc.stderr}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                raise AssertionError(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")


def check_corruption_counts(decoder: run.Decoder) -> None:
    inputs = run.make_inputs("squad_fix", 5, TINY, SCRATCH / "corrupt")
    outcome = run.invoke(inputs, decoder)
    if outcome.failure:
        raise AssertionError(f"clean fix run failed: {outcome.failure}")
    stdout = (inputs.dir / "stdout.txt").read_text(encoding="utf-8")
    output = inputs.dir / "fixed.jsonl.gz"
    lines = [json.dumps(r, ensure_ascii=False) + "\n" for r in read_jsonl(output)]

    def fails(corrupted: list[str]) -> bool:
        output.write_bytes(gzip.compress("".join(corrupted).encode("utf-8")))
        failure, _ = run.judge(inputs, 0, stdout, "", decoder)
        return failure is not None

    resolved = next(
        i for i, line in enumerate(lines) if '"fix_method": "unresolved"' not in line and i
    )
    record = json.loads(lines[resolved])
    record["qas"][0]["target_token_ids"][-1] += 1  # no longer spells the answer
    wrong_target = lines[:resolved] + [json.dumps(record) + "\n"] + lines[resolved + 1 :]
    if not fails(wrong_target):
        raise AssertionError("a corrupted target passed the output check")
    if not fails(lines[:-1]):
        raise AssertionError("an output missing a question passed the output check")
    if fails(lines):
        raise AssertionError("the clean output fails the check once rewritten")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, "squad_fix", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("the benchmark ran without the program's sources")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repin", action="store_true", help="rewrite pins.json first")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    decoder = run.Decoder(run.ASSETS / "vocab.json")
    if args.repin:
        repin(decoder)
    checks = [
        ("asset regenerates byte-identically", check_asset),
        ("asset shows the prefix-space effect", check_paper_effect),
        ("generators are seeded and deterministic", check_generators),
        ("canary outputs match pins.json", lambda: check_pins(decoder)),
        ("tiny runs emit every BENCHMARK.json metric", check_tiny_runs),
        ("corrupted fix output counts as failed", lambda: check_corruption_counts(decoder)),
        ("no result without the program's sources", check_bare_directory),
    ]
    failed = 0
    try:
        for name, check in checks:
            try:
                check()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
            else:
                print(f"PASS  {name}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
