"""Command-line entry point.

    craql -P <projectlist> -Q <querylist> [--dirs ROOT]
    craql collate  [--dirs ROOT]
    craql genprops [--dirs ROOT]
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from craql.results import RunConfig, RunnerError, collate_csv, generate_props


def run_batch(config: RunConfig):
    """`craql.runner.run_batch`, imported only when a batch runs: `collate`
    and `genprops` need none of the engine, the parsers or the binder. The
    runner's log records go to stderr as `LEVEL message`."""
    from craql import runner

    runner.log_format = "%(levelname)s %(message)s"
    return runner.run_batch(config)


def _add_dirs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dirs",
        type=Path,
        default=Path("."),
        metavar="ROOT",
        help="root holding the projects/, queries/, properties/, results/ directories",
    )


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="craql", description="Run query files over project trees.")
    parser.add_argument("-P", "--projects", type=Path, required=True, metavar="LIST",
                        help="file listing project names, one per line")
    parser.add_argument("-Q", "--queries", type=Path, required=True, metavar="LIST",
                        help="file listing query file names, one per line")
    _add_dirs(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in ("collate", "genprops"):
            sub = argparse.ArgumentParser(prog=f"craql {argv[0]}")
            _add_dirs(sub)
            config = RunConfig(sub.parse_args(argv[1:]).dirs, None, None)
            if argv[0] == "collate":
                print(f"wrote {collate_csv(config.results_dir)}")
            else:
                written = generate_props(config.properties_dir)
                print(f"wrote {len(written)} properties files")
            return 0
        args = build_run_parser().parse_args(argv)
        config = RunConfig(args.dirs, args.projects, args.queries)
        status, records = run_batch(config)
    except (RunnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = sum(1 for r in records if not r.aborted)
    print(f"{ok}/{len(records)} projects completed; results in {config.results_dir}",
          file=sys.stderr)
    return status


def launch() -> None:
    """The `craql` console script and `python -m craql.cli`: run `main`
    on the command line, then exit with its status.

    The collector is frozen first, so the interpreter's shutdown
    collections skip every object still alive rather than walk them just
    before the process ends. Python runs no finalizer of such an object
    anyway, `main` has closed every file it wrote, and the interpreter
    still flushes stdout and stderr and runs the `atexit` handlers.
    `main` itself does not freeze, since tests call it in their own
    process."""
    status = main()
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    launch()
