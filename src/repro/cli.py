"""Command-line entry point: ``repro-cli`` (alias ``repro-experiments``).

Subcommands::

    repro-cli list                          # show experiment ids
    repro-cli engines                       # show registered engines
    repro-cli run E5 [--scale full] [--engine flat] [--protocol full] [--trace out.jsonl]
    repro-cli all [--scale full] [--write-md EXPERIMENTS.md] [--trace out.jsonl]
    repro-cli trace summarize out.jsonl     # paper measures from a trace
    repro-cli trace validate out.jsonl      # schema-check a trace file
    repro-cli analyze [--json]              # interprocedural contract analyzer
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import repro.obs as obs_mod
from repro.exceptions import TraceError
from repro.experiments.registry import list_experiments
from repro.experiments.runner import run_all, run_experiment, write_experiments_md
from repro.obs.trace import summarize_trace, summary_tables, validate_trace
from repro.routing.engines import engine_names, get_engine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description=(
            "Reproduction harness for 'A BGP-based mechanism for "
            "lowest-cost routing' (PODC 2002)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiment ids and titles")

    subparsers.add_parser(
        "engines", help="list registered route/price engines"
    )

    engine_help = (
        "route/price engine for engine-aware experiments "
        f"({' | '.join(engine_names())}; default: reference)"
    )
    protocol_help = (
        "BGP transport for protocol-aware experiments: delta (incremental "
        "row exchanges; default), full (literal Sect. 5 full tables; "
        "bit-identical to delta), or timed (discrete-event simulator with "
        "link jitter; same converged model, virtual time replaces stages)"
    )
    trace_help = (
        "record an observability trace of the run as JSONL "
        "(read it back with `trace summarize`)"
    )

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", help="e.g. E5")
    run_parser.add_argument("--scale", choices=("small", "full"), default="small")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--engine", choices=engine_names(), default=None, help=engine_help
    )
    run_parser.add_argument(
        "--protocol",
        choices=("delta", "full", "timed"),
        default=None,
        help=protocol_help,
    )
    run_parser.add_argument("--trace", metavar="PATH", default=None, help=trace_help)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", choices=("small", "full"), default="small")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument(
        "--engine", choices=engine_names(), default=None, help=engine_help
    )
    all_parser.add_argument(
        "--protocol",
        choices=("delta", "full", "timed"),
        default=None,
        help=protocol_help,
    )
    all_parser.add_argument(
        "--write-md",
        metavar="PATH",
        default=None,
        help="also write the results as markdown (EXPERIMENTS.md format)",
    )
    all_parser.add_argument("--trace", metavar="PATH", default=None, help=trace_help)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a recorded observability trace"
    )
    trace_parser.add_argument(
        "action",
        choices=("summarize", "validate"),
        help="summarize: paper complexity measures; validate: schema check",
    )
    trace_parser.add_argument("path", metavar="TRACE.jsonl", help="trace file to read")

    subparsers.add_parser(
        "analyze",
        help="run the interprocedural determinism/contract analyzer "
        "(repro.devtools.flow, codes RPR007-RPR010); all further "
        "arguments are forwarded (e.g. --json, --check-suppressions)",
        add_help=False,
    )
    return parser


@contextmanager
def _tracing(trace_path: Optional[str]) -> Iterator[None]:
    """Record the enclosed run to ``trace_path`` (no-op when ``None``).

    Swaps in a fresh default observer so the trace holds exactly one
    run, attaches a :class:`~repro.obs.sinks.JSONLSink`, and enables
    global observability for the duration.
    """
    if trace_path is None:
        yield
        return
    observer = obs_mod.reset_default()
    sink = obs_mod.JSONLSink(trace_path)
    observer.add_sink(sink)
    try:
        with obs_mod.observed():
            yield
    finally:
        observer.remove_sink(sink)
        sink.close()
    print(f"wrote trace {trace_path}")


def _trace_command(action: str, path: str) -> int:
    try:
        if action == "validate":
            count = validate_trace(path)
            print(f"{path}: valid trace, {count} events")
            return 0
        for table in summary_tables(summarize_trace(path), title=f"trace: {path}"):
            print(table.render())
            print()
        return 0
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `analyze` forwards everything verbatim to the flow analyzer's own
    # parser; argparse.REMAINDER cannot capture a leading option (e.g.
    # `analyze --json`), so it is dispatched before parsing.  The
    # subparser above remains registered for `--help` and discovery.
    if argv and argv[0] == "analyze":
        from repro.devtools.flow import main as flow_main

        return flow_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, title in list_experiments():
            print(f"{experiment_id:5s} {title}")
        return 0
    if args.command == "engines":
        for name in engine_names():
            engine = get_engine(name)
            paths = "paths" if engine.carries_paths else "cost-only"
            print(f"{name:10s} {paths}")
        return 0
    if args.command == "trace":
        return _trace_command(args.action, args.path)
    engine_kwargs: Dict[str, Any] = {}
    if getattr(args, "engine", None) is not None:
        engine_kwargs["engine"] = args.engine
    if getattr(args, "protocol", None) is not None:
        engine_kwargs["protocol"] = args.protocol
    if args.command == "run":
        with _tracing(args.trace):
            result = run_experiment(
                args.experiment_id, scale=args.scale, seed=args.seed, **engine_kwargs
            )
        print(result.render())
        return 0 if result.passed else 1
    if args.command == "all":
        with _tracing(args.trace):
            results = run_all(scale=args.scale, seed=args.seed, **engine_kwargs)
        for result in results:
            print(result.render())
            print()
        passed = sum(1 for result in results if result.passed)
        print(f"summary: {passed}/{len(results)} experiments PASS")
        if args.write_md:
            write_experiments_md(Path(args.write_md), results, scale=args.scale)
            print(f"wrote {args.write_md}")
        return 0 if passed == len(results) else 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
