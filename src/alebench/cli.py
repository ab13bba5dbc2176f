"""Command-line entry point: one command per experiment kind, plus run-all.

Examples
--------
Run the SNR comparison with defaults and write CSV under ./results::

    alebench ber_awgn --out results

Override config-file keys from the command line::

    alebench ber_awgn --config bench.cfg --set run.n_seeds=20 --set run.base_seed=99

``run-all`` executes every experiment into one output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bench import KINDS, emit_csv, parse_config, run_experiment
from .errors import ConfigError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alebench",
        description="Deterministic noise-cancellation benchmarks (LMS vs PSO).",
    )
    parser.add_argument("--version", action="version", version=f"alebench {__version__}")
    parser.add_argument(
        "command",
        choices=KINDS + ("run-all",),
        metavar="COMMAND",
        help=f"experiment to run: {', '.join(KINDS)}, or run-all for every one",
    )
    parser.add_argument("--config", type=Path, default=None, help="config file (flat key = value lines)")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory (default: results)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default: 1)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override any config key; repeatable",
    )
    return parser


def _assemble(args) -> tuple[str, dict[str, str]]:
    """Config text and --set overrides; a key set twice is rejected."""
    text = "" if args.config is None else Path(args.config).read_text(encoding="utf-8-sig")
    overrides: dict[str, str] = {}
    for item in args.overrides:
        key, equals, value = (part.strip() for part in item.partition("="))
        if not (equals and key):
            raise ConfigError(item, "expected KEY=VALUE")
        if key in overrides:
            raise ConfigError(key, "duplicate key")
        overrides[key] = value
    return text, overrides


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kinds = list(KINDS) if args.command == "run-all" else [args.command]
    try:
        text, overrides = _assemble(args)
        # every kind's config, --jobs and --out are checked before any kind runs
        specs = [parse_config(text, kind=kind, overrides=overrides) for kind in kinds]
        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        args.out.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            table = run_experiment(spec, jobs=args.jobs)
            paths = emit_csv(table, args.out)
            print(f"{spec.kind}: wrote {', '.join(str(p) for p in paths)}")
    except (ConfigError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
