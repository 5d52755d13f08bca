"""Command-line entry point: analyze, fix, evaluate, inspect.

Data goes to stdout (or ``--output``); diagnostics go to stderr. Exit
codes: 0 success, 1 usage error, 2 data error, 3 I/O error. Reports are
byte-identical across reruns with the same inputs, seed, and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .bpe import TokenizerError, decode, encode, ids_to_pieces, load_tokenizer
from .consist import (
    FIX_METHODS,
    analyze_dataset,
    answer_variants,
    check_consistency,
    fix_dataset,
    make_consistent_target,
    repair_answer_choice,
)
from .metrics import evaluate, paired_significance
from .mrqa import DatasetError, read_dataset, read_predictions, replace_on_success

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tokfix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tokenizer_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--vocab", required=True, help="vocab.json path")
        p.add_argument("--merges", required=True, help="merges.txt path")

    def add_io_flags(p: argparse.ArgumentParser, output_help: str) -> None:
        p.add_argument(
            "--dataset",
            action="append",
            required=True,
            help="MRQA-format dataset path, plain or gzipped (repeatable)",
        )
        p.add_argument("--output", help=output_help)

    p_analyze = sub.add_parser("analyze", help="report consistency rates")
    add_tokenizer_flags(p_analyze)
    add_io_flags(p_analyze, "write the stats report here instead of stdout")
    p_analyze.add_argument("--format", choices=("json", "tsv"), default="json")
    p_analyze.add_argument("--seed", type=int, help="sampling seed (default 42)")
    p_analyze.add_argument("--sample", type=int, default=None, metavar="N")
    p_analyze.add_argument("--answer-policy", choices=("first", "any"), default="first")
    p_analyze.set_defaults(func=cmd_analyze)

    p_fix = sub.add_parser("fix", help="write a repaired dataset")
    add_tokenizer_flags(p_fix)
    add_io_flags(p_fix, "path for the repaired dataset (.gz for gzip); required")
    p_fix.add_argument("--format", choices=("json", "tsv"), default="json")
    p_fix.set_defaults(func=cmd_fix)

    p_eval = sub.add_parser("evaluate", help="score prediction files")
    p_eval.add_argument(
        "--predictions",
        action="append",
        required=True,
        help="predictions JSON path (repeatable, at most 2)",
    )
    add_io_flags(p_eval, "write the metrics report here instead of stdout")
    p_eval.add_argument("--format", choices=("json", "tsv"), default="json")
    p_eval.add_argument("--seed", type=int, help="significance test seed (default 42)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="trace one example end to end")
    add_tokenizer_flags(p_inspect)
    add_io_flags(p_inspect, "write the trace here instead of stdout")
    p_inspect.add_argument("--qid", required=True)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    config = {"command": args.command, "datasets": args.dataset}
    for key in ("format", "seed", "vocab", "merges", "sample", "answer_policy", "predictions"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    return config


@contextlib.contextmanager
def _report_writer(args: argparse.Namespace) -> Iterator[Callable[[str], object]]:
    """Yield the report writer: stdout, or ``--output`` opened right away
    through ``replace_on_success``, so a bad path fails before any work."""
    if not args.output:
        yield sys.stdout.write
        return
    with replace_on_success(args.output) as out:
        yield lambda payload: out.write(payload.encode("utf-8", "surrogateescape"))


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _render_report(
    args: argparse.Namespace, body: dict, columns: Sequence[str], rows: list[dict]
) -> str:
    """The JSON report, or with ``--format tsv`` one line per row holding
    its values for ``columns`` (blank where a row lacks one), each cell
    escaped as in linear TSV so a tab or line break stays inside it."""
    if args.format == "tsv":
        table = [columns, *([row.get(column, "") for column in columns] for row in rows)]
        return "".join(
            "\t".join(str(cell).translate(_TSV_ESCAPES) for cell in line) + "\n"
            for line in table
        )
    report = {"tool_version": __version__, "config": _config_dict(args), **body}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _warn(message: str) -> None:
    """Write one diagnostic line to stderr."""
    print(message, file=sys.stderr)


class _IssueCounter:
    """``read_dataset``'s ``on_error``: warns of each data issue and counts it."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, message: str) -> None:
        self.count += 1
        _warn(message)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Report a row per dataset: its name and path, ``analyze_dataset``'s row, span issues."""
    if args.sample is not None and args.sample < 1:
        raise UsageError(f"--sample must be at least 1, not {args.sample}")
    if args.seed is not None and args.sample is None:
        raise UsageError("--seed needs --sample")
    args.seed = 42 if args.seed is None else args.seed
    with _report_writer(args) as write:
        tok = load_tokenizer(args.vocab, args.merges)
        stats_out = []
        for path in args.dataset:
            issues = _IssueCounter()
            header, stream = read_dataset(path, on_error=issues)
            name = header.get("dataset", "")
            if not isinstance(name, str):
                _warn(f"line 1: non-string dataset name {name!r}; using the file name")
                name = ""
            row = analyze_dataset(
                tok,
                stream,
                sample_size=args.sample,
                seed=args.seed,
                answer_policy=args.answer_policy,
            )
            entry = {"dataset": name or Path(path).name, "path": path, **row}
            entry["span_issues"] = issues.count
            stats_out.append(entry)

        columns = [
            "dataset",
            "total",
            "consistent_raw",
            "consistent_prefix_only",
            "inconsistent",
            "pct_inconsistent_raw",
            "pct_inconsistent_after_prefix",
        ]
        write(_render_report(args, {"stats": stats_out}, columns, stats_out))
    return EXIT_OK


def cmd_fix(args: argparse.Namespace) -> int:
    """Write the repaired dataset to ``--output`` and ``fix_dataset``'s summary to stdout."""
    if len(args.dataset) != 1:
        raise UsageError("fix takes exactly one --dataset")
    if not args.output:
        raise UsageError("fix requires --output for the repaired dataset")
    tok = load_tokenizer(args.vocab, args.merges)
    issues = _IssueCounter()
    header, stream = read_dataset(args.dataset[0], on_error=issues)
    summary = fix_dataset(tok, stream, args.output, header=header)
    summary["span_issues"] = issues.count

    columns = ["total", "written", *FIX_METHODS]
    columns += ["skipped_no_answer", "skipped_span_mismatch", "span_issues"]
    row = {**summary, **summary["counts"]}
    # the summary always goes to stdout; --output holds the repaired data
    sys.stdout.write(_render_report(args, {"summary": summary}, columns, [row]))
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Report EM/F1 per predictions file, plus the paired F1 test when there are two."""
    if not 1 <= len(args.predictions) <= 2:
        raise UsageError("evaluate takes one or two --predictions files")
    if len(args.dataset) != 1:
        raise UsageError("evaluate takes exactly one --dataset")
    if args.seed is not None and len(args.predictions) == 1:
        raise UsageError("--seed needs two --predictions files")
    seed_given = args.seed is not None
    args.seed = 42 if args.seed is None else args.seed
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, not {args.seed}")

    with _report_writer(args) as write:
        _, stream = read_dataset(args.dataset[0], on_error=_warn)
        with contextlib.closing(stream):
            result = evaluate([read_predictions(path) for path in args.predictions], stream)
        if len(result.reports) == 2 and not result.n:
            raise DatasetError("dataset has no questions to compare two prediction files on")
        reports = [
            {"predictions": path, **report}
            for path, report in zip(args.predictions, result.reports)
        ]
        for entry in reports:
            for qid in entry["unknown_qids"]:
                _warn(f"prediction for unknown qid {qid!r} ignored")
        body: dict = {"metrics": reports}
        if len(result.reports) == 2:
            f1_a, f1_b = ([score for _, _, score in rows] for rows in result.scores)
            del result  # the test reads the two F1 columns only
            test = paired_significance(f1_a, f1_b, seed=args.seed)
            if test.seed is None and seed_given:
                raise UsageError("--seed is not read: the exact significance test draws nothing")
            body["significance"] = {"metric": "f1", **dataclasses.asdict(test)}
        else:
            body["per_example"] = [
                {"qid": qid, "em": em, "f1": round(score, 6)}
                for qid, em, score in result.scores[0]
            ]

        columns = [
            "predictions",
            "n",
            "n_predicted",
            "em",
            "f1",
            "hallucination_rate",
            "hallucination_rate_normalized",
            "p_value",
            "statistic",
        ]
        rows = [{**entry, **body.get("significance", {})} for entry in reports]
        write(_render_report(args, body, columns, rows))
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    """Trace one qid: its answer, both standalone tokenizations, verdict and repair."""
    with _report_writer(args) as write:
        tok = load_tokenizer(args.vocab, args.merges)
        found = None
        for path in args.dataset:
            _, stream = read_dataset(path, on_error=_warn)
            with contextlib.closing(stream):
                for example in stream:
                    if example.qid == args.qid:
                        found = example
                        break
            if found is not None:
                break
        if found is None:
            raise DatasetError(f"qid {args.qid!r} not found in the given dataset(s)")

        choice = repair_answer_choice(found)
        if choice is None:
            raise DatasetError(f"qid {args.qid!r} has no usable answer")
        answer, span = choice

        context_enc = encode(tok, found.context)
        raw, prefixed = answer_variants(tok, answer)
        verdict = check_consistency(context_enc, answer)
        outcome = make_consistent_target(found.context, context_enc, answer, span)

        out = []
        out.append(f"qid:               {found.qid}")
        out.append(f"question:          {found.question}")
        out.append(f"answer:            {answer!r}")
        if span is not None:
            out.append(f"gold char span:    [{span.start}, {span.end})")
        out.append(f"context tokens:    {len(context_enc.ids)}")
        out.append(f"standalone pieces: {ids_to_pieces(tok, raw)} ids {list(raw)}")
        out.append(f"prefixed pieces:   {ids_to_pieces(tok, prefixed)} ids {list(prefixed)}")
        where = (
            f" at tokens [{verdict.location.start}, {verdict.location.end})"
            if verdict.location is not None
            else ""
        )
        out.append(f"verdict:           {verdict.status}{where}")
        out.append(f"fix method:        {outcome.method}")
        out.append(
            f"target pieces:     {ids_to_pieces(tok, outcome.target_ids)} "
            f"ids {list(outcome.target_ids)}"
        )
        if outcome.context_span is not None:
            cs = outcome.context_span
            bounds = context_enc.bounds
            offsets = list(zip(bounds[cs.start : cs.end], bounds[cs.start + 1 : cs.end + 1]))
            decoded = decode(tok, outcome.target_ids)
            out.append(f"context span:      tokens [{cs.start}, {cs.end}) offsets {offsets}")
            out.append(f"decoded target:    {decoded!r}")
        out.append(f"note:              {outcome.note}")
        write("\n".join(out) + "\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    # the significance test's products gain nothing from a second BLAS thread; OpenBLAS
    # reads its own variable before OMP_NUM_THREADS, so one the user set leaves both alone
    blas_threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    if not any(name in os.environ for name in blas_threads):
        os.environ.update(dict.fromkeys(blas_threads, "1"))
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _warn(f"usage error: {exc}")
        return EXIT_USAGE
    except (DatasetError, TokenizerError) as exc:
        _warn(f"data error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        _warn(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
