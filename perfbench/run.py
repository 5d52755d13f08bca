"""tokfix benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload squad_fix --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it that holds ``src/``). The
run generates its inputs from ``--seed`` before any timing, checks a
fixed-seed canary run of the same command against a pinned digest, then:

- ``--trace 0`` starts the real CLI (``python3 -m tokfix.cli``) as a child
  process, one at a time, and reports end-to-end metrics: the median
  ``questions_per_s`` and ``peak_rss_mb`` over the invocations that fit in
  ``--seconds``, the median ``setup_s`` of the same command on a header-only
  dataset, and ``ok_frac``, the share of invocations that pass.
- ``--trace 1`` calls ``tokfix.cli.main`` in process, once plain and once
  with every layer wrapped (``tracing.py``), writes the spans under
  ``.perfbench-work/spans/``, times the merge-cost curve, and reports
  per-layer metrics.

An invocation fails when it exits nonzero, prints a traceback, or its
output fails the checks in ``check.py``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--scale`` shrinks the inputs and the merge curve for a quick self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ASSETS = BENCH / "assets"
WORK = ROOT / ".perfbench-work"
PINS = BENCH / "pins.json"

sys.path.insert(0, str(BENCH))

from check import (  # noqa: E402
    CheckError,
    Decoder,
    Expected,
    check_analyze,
    check_evaluate,
    check_fix,
    read_jsonl,
)
from gen_data import CONTEXTS, generate, letter_run  # noqa: E402

WORKLOADS = tuple(CONTEXTS)
CANARY_SEED = 0
CANARY_SCALE = 0.05
SETUP_REPEATS = 9
MIN_INVOCATIONS = 3
CURVE_CHARS = (1000, 4000, 16000)


@dataclass
class Inputs:
    workload: str
    dir: Path
    dataset: Path
    predictions: list[Path]
    expected: Expected

    def argv(self) -> list[str]:
        """CLI arguments of this workload's command on these inputs."""
        tokenizer = ["--vocab", str(ASSETS / "vocab.json"), "--merges", str(ASSETS / "merges.txt")]
        if self.workload == "squad_fix":
            output = str(self.dir / "fixed.jsonl.gz")
            return ["fix", *tokenizer, "--dataset", str(self.dataset), "--output", output]
        if self.workload == "nq_analyze":
            return ["analyze", *tokenizer, "--dataset", str(self.dataset)]
        preds = [arg for path in self.predictions for arg in ("--predictions", str(path))]
        return ["evaluate", "--dataset", str(self.dataset), *preds]

    def check(self, stdout: str, decoder: Decoder) -> str:
        """Check one invocation's output; return its location-free digest."""
        if self.workload == "squad_fix":
            return check_fix(self.dir / "fixed.jsonl.gz", stdout, self.expected, decoder)
        if self.workload == "nq_analyze":
            return check_analyze(stdout, self.expected)
        return check_evaluate(stdout, self.expected, self.predictions)


def make_inputs(workload: str, seed: int, scale: float, where: Path) -> Inputs:
    paths = generate(workload, seed, scale, where)
    return Inputs(
        workload,
        where,
        paths["dataset"],
        paths.get("predictions", []),
        Expected.from_dataset(paths["dataset"]),
    )


def setup_inputs(full: Inputs, where: Path) -> Inputs:
    """The same command on a header-only copy of the dataset.

    ``evaluate`` keeps the first record and the predictions for its qids:
    with zero questions its paired significance test raises.
    """
    where.mkdir(parents=True, exist_ok=True)
    keep = 1 if full.predictions else 0
    lines = read_jsonl(full.dataset)[: 1 + keep]
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    dataset = where / full.dataset.name
    if dataset.suffix == ".gz":
        dataset.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    else:
        dataset.write_text(text, encoding="utf-8")
    qids = {qa["qid"] for record in lines[1:] for qa in record["qas"]}
    predictions = []
    for path in full.predictions:
        preds = json.loads(path.read_text(encoding="utf-8"))
        predictions.append(where / path.name)
        predictions[-1].write_text(
            json.dumps({q: a for q, a in preds.items() if q in qids}), encoding="utf-8"
        )
    return Inputs(full.workload, where, dataset, predictions, Expected.from_dataset(dataset))


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    failure: str | None
    digest: str | None


def judge(inputs: Inputs, code: int, stdout: str, stderr: str, decoder: Decoder) -> tuple[str | None, str | None]:
    """(failure reason or None, output digest or None) for one invocation."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}", None
    if "Traceback" in stderr:
        return "traceback on stderr", None
    try:
        return None, inputs.check(stdout, decoder)
    except (CheckError, KeyError, ValueError, TypeError, OSError) as exc:
        return f"output check failed: {exc!r}", None


def invoke(inputs: Inputs, decoder: Decoder) -> Outcome:
    """Run the CLI as a child process through ``launch.py``.

    Wall time covers interpreter start to reap; peak RSS is the CLI's own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = inputs.dir / "stdout.txt", inputs.dir / "stderr.txt"
    result_path = inputs.dir / "launch.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, "-m", "tokfix.cli", *inputs.argv()]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), str(result_path), *command],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=inputs.dir,
            env=env,
            check=True,
        )
    launched = json.loads(result_path.read_text(encoding="utf-8"))
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    failure, digest = judge(inputs, launched["exit_code"], stdout, stderr, decoder)
    return Outcome(launched["wall_s"], launched["rss_mb"], failure, digest)


def invoke_in_process(inputs: Inputs, decoder: Decoder) -> Outcome:
    from tokfix.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(inputs.argv())
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    failure, digest = judge(inputs, code, out.getvalue(), err.getvalue(), decoder)
    return Outcome(wall, 0.0, failure, digest)


class Run:
    """Invocation bookkeeping shared by both run kinds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None

    def record(self, what: str, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.failure:
            self.failures.append(f"{what}: {outcome.failure}")
            print(f"FAILED {what}: {outcome.failure}", file=sys.stderr)
        return outcome

    def canary(self, workload: str, scale: float, work: Path, decoder: Decoder, pins: dict) -> None:
        inputs = make_inputs(workload, CANARY_SEED, CANARY_SCALE * scale, work / "canary")
        outcome = self.record("canary", invoke(inputs, decoder))
        # the pins hold for full-size runs only; --scale shrinks the canary too
        pinned = pins["canary"][workload] if scale == 1.0 else None
        if outcome.digest and pinned and outcome.digest != pinned:
            self.failures.append(f"canary digest {outcome.digest} != pinned {pinned}")
            print(f"FAILED canary: digest {outcome.digest} != pinned {pinned}", file=sys.stderr)

    def same_output(self, what: str, outcome: Outcome) -> None:
        """Every full-size invocation in a run must give the same output."""
        if self.first_digest is None:
            self.first_digest = outcome.digest
        elif outcome.digest and outcome.digest != self.first_digest:
            self.failures.append(f"{what}: output differs from the run's first invocation")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def end_to_end(run: Run, inputs: Inputs, work: Path, seconds: float, decoder: Decoder) -> dict:
    setup = setup_inputs(inputs, work / "setup")
    setup_walls = [run.record("setup", invoke(setup, decoder)).wall_s for _ in range(SETUP_REPEATS)]

    rates, rss = [], []
    busy = 0.0
    while busy < seconds or len(rates) < MIN_INVOCATIONS:
        outcome = run.record("timed", invoke(inputs, decoder))
        run.same_output("timed", outcome)
        busy += outcome.wall_s
        rates.append(inputs.expected.questions / outcome.wall_s)
        rss.append(outcome.rss_mb)
        print(f"  {inputs.workload}: {outcome.wall_s:.3f} s, {rss[-1]:.1f} MB", file=sys.stderr)
    ok = (run.attempted - len(run.failures)) / run.attempted
    return {
        "questions_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (ok, "ratio"),
    }


def merge_curve(seed: int, scale: float) -> dict[str, tuple[float, str]]:
    """Cold-memo encode time of one unbroken letter run per length."""
    from tokfix.bpe import encode, load_tokenizer

    rng = random.Random(f"curve/{seed}")
    curve = {}
    for chars in CURVE_CHARS:
        text = letter_run(rng, max(16, int(chars * scale)))
        tok = load_tokenizer(ASSETS / "vocab.json", ASSETS / "merges.txt")
        start = time.perf_counter()
        encode(tok, text)
        curve[f"bpe.merge_curve.s_{chars // 1000}k"] = (time.perf_counter() - start, "s")
    return curve


def per_layer(run: Run, inputs: Inputs, seed: int, scale: float, decoder: Decoder) -> dict:
    from tracing import Tracer, layer_metrics

    plain = [run.record("untraced", invoke_in_process(inputs, decoder))]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.record("traced", invoke_in_process(inputs, decoder))
    finally:
        tracer.restore()
    # untraced runs on both sides of the traced one, so warm-up and drift
    # do not land in the overhead
    plain.append(run.record("untraced", invoke_in_process(inputs, decoder)))
    for outcome in [*plain, traced]:
        run.same_output("in-process", outcome)
    tracer.write(WORK / "spans" / f"{inputs.workload}-seed{seed}.jsonl.gz")

    output = inputs.dir / "fixed.jsonl.gz"
    written = len(gzip.decompress(output.read_bytes())) if output.exists() else 0
    metrics = layer_metrics(
        tracer,
        input_bytes=inputs.expected.uncompressed_bytes,
        input_records=inputs.expected.records,
        written_bytes=written,
    )
    metrics.update(merge_curve(seed, scale))
    untraced_s = statistics.mean(outcome.wall_s for outcome in plain)
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced_s - 1, "ratio")
    return metrics


def asset_problem(pins: dict) -> str | None:
    for name, pinned in pins["asset"].items():
        path = ASSETS / name
        if not path.is_file():
            return f"missing tokenizer asset {path}"
        if hashlib.sha256(path.read_bytes()).hexdigest() != pinned:
            return f"tokenizer asset {name} differs from its pinned digest"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-check)")
    args = parser.parse_args()

    if not (SRC / "tokfix" / "cli.py").is_file():
        print(f"error: no tokfix sources under {SRC}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    problem = asset_problem(pins)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        decoder = Decoder(ASSETS / "vocab.json")
        inputs = make_inputs(args.workload, args.seed, args.scale, work / "inputs")
        run = Run()
        run.canary(args.workload, args.scale, work, decoder, pins)
        if args.trace:
            metrics = per_layer(run, inputs, args.seed, args.scale, decoder)
        else:
            metrics = end_to_end(run, inputs, work, args.seconds, decoder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
