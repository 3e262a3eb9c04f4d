"""Command line front end: run scripts and generate them."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import harness
from .terms import SignatureError

# a script that cannot be read as UTF-8, does not parse, cannot be run,
# or declares a bad signature
_INVALID_SCRIPT = (OSError, UnicodeDecodeError, harness.ScriptError,
                   SignatureError)


def _cmd_run(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
        report = harness.run(harness.parse_script(text), mode=args.mode,
                             want=args.want, order_override=args.order_override,
                             script_name=Path(args.file).stem)
    except _INVALID_SCRIPT as err:
        print(f"{args.file}: {err}", file=sys.stderr)
        return 2
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for qid, ids in report.query_results.items():
        print(f"{qid}: {{{','.join(ids)}}}")
    for fail in report.expect_failures:
        print(f"expect failed: {fail}")
    for div in report.divergences:
        print(f"mode divergence: {div}")
    if args.stats:
        Path(args.stats).write_text(harness.emit_stats_csv([report]),
                                    encoding="utf-8")
    print("ok" if report.ok else "FAILED")
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    try:
        params = harness.GenParams(**{f.name: getattr(args, f.name)
                                      for f in fields(harness.GenParams)})
    except ValueError as err:
        print(f"todx gen: {err}", file=sys.stderr)
        return 2
    text = harness.format_script(harness.gen_random_script(args.seed, params))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todx",
        description="Index equalities and retrieve the ones a query "
                    "substitution orders.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a script file")
    p_run.add_argument("file")
    p_run.add_argument("--mode", default="shared",
                       choices=["off", "on", "shared", "crosscheck"])
    p_run.add_argument("--want", default="all", choices=["all", "first"])
    p_run.add_argument("--order-override", default=None,
                       choices=["kbo", "lpo"])
    p_run.add_argument("--stats", default=None, metavar="CSV_PATH")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a random script")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default=None)
    # one option per GenParams field, which gives its default and range
    for f in fields(harness.GenParams):
        flag = "depth" if f.name == "max_depth" else f.name.replace("_", "-")
        p_gen.add_argument(f"--{flag}", dest=f.name, type=type(f.default),
                           default=f.default)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:      # output that cannot be written
        print(f"todx {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
