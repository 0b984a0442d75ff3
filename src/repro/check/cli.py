"""The ``repro check`` subcommand (also ``python -m repro.check``)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversary import AdversaryBudget
from .findings import CheckUsageError, Severity
from .model import ModelConfig, scenario_names
from .pipeline import PASSES, run_check
from .races import RACE_SCAN_SUBDIRS
from .report import exit_code, render_json, render_text

__all__ = ["add_check_arguments", "run_check_command", "main"]


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the check options to an (sub)parser."""
    parser.add_argument(
        "--root", default=None,
        help="package directory to audit (default: the installed repro "
             "package)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report (for CI)")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to report (default: all); each "
             "must belong to a selected pass (see --list-rules)")
    parser.add_argument(
        "--no-protocol", action="store_true",
        help="skip the protocol state-machine checker")
    parser.add_argument(
        "--races", action="store_true",
        help="run the interleaving race lints (yield-rmw, lock-order); "
             "audits the DES-facing subpackages ("
             + ", ".join(RACE_SCAN_SUBDIRS) + ") unless paths or --root "
             "are given.  Pass flags compose into one report; with none, "
             "the determinism pass runs")
    parser.add_argument(
        "--units", action="store_true",
        help="run the dimensional-analysis lints (unit-mismatch, "
             "unit-bitbyte, unit-magic) over the given paths (or --root, "
             "or the installed package)")
    parser.add_argument(
        "--aliasing", action="store_true",
        help="run the zero-copy safety lints (view-escape, hidden-copy, "
             "pool-leak) over the given paths (or --root, or the installed "
             "package)")
    parser.add_argument(
        "--effects", action="store_true",
        help="run the call-graph effect/purity analysis (effect-ambient-"
             "read, effect-global-write, effect-unkeyed-input, effect-"
             "unseeded-random): cache-soundness, worker-hermeticity and "
             "bench-determinism contracts over the given paths (or "
             "--root, or the installed package)")
    parser.add_argument(
        "--all", action="store_true", dest="all_passes",
        help="run every pass (determinism+protocol, races, units, "
             "aliasing, model, effects) and emit one merged report with "
             "per-pass wall time and a single exit code")
    parser.add_argument(
        "--model", action="store_true",
        help="run the protocol model checker: exhaustively explore the "
             "spec machines composed with an adversarial network (drop, "
             "duplicate, reorder, crash, stale replies) up to the "
             "configured bounds")
    parser.add_argument(
        "--depth", type=int, default=60,
        help="model: maximum schedule length to explore (default 60; "
             "the run reports whether the space was exhausted)")
    parser.add_argument(
        "--retransmits", type=int, default=2,
        help="model: client retransmit budget K — every transfer must "
             "complete or cleanly abort within K retransmits (default 2)")
    parser.add_argument(
        "--scenarios", default=None,
        help="model: comma-separated scenario names to run "
             f"(default: all of {', '.join(scenario_names())})")
    parser.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="severity threshold for a nonzero exit: 'error' (default) "
             "fails only on errors, 'warning' fails on any finding")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to audit (e.g. `repro check --units "
             "src/`); overrides --root")


def _roots(args) -> list[Path] | None:
    """Positional paths, else --root, else None (the installed package)."""
    roots = [Path(piece) for piece in args.paths or ()]
    if not roots and args.root is not None:
        roots = [Path(args.root)]
    for root in roots:
        if not root.exists():
            raise SystemExit(f"no such path: {root}")
    return roots or None


def _pieces(spec: str | None) -> list[str]:
    return [piece.strip() for piece in (spec or "").split(",")
            if piece.strip()]


def run_check_command(args) -> int:
    """Execute ``repro check`` with parsed ``args``; returns exit code."""
    if args.list_rules:
        for spec in PASSES:
            flag = "" if spec.name == "determinism" else f" [--{spec.name}]"
            for rule_id, summary in spec.rules.items():
                print(f"{rule_id:<22} {summary}{flag}")
        return 0

    # Every pass but determinism has a flag of its name; with no pass
    # flag the determinism pass runs.
    passes = [spec.name for spec in PASSES
              if args.all_passes or getattr(args, spec.name, False)]
    model = ModelConfig(max_depth=args.depth,
                        retransmit_bound=args.retransmits,
                        budget=AdversaryBudget(),
                        scenarios=tuple(_pieces(args.scenarios)))
    try:
        report = run_check(_roots(args), passes or ["determinism"],
                           rules=_pieces(args.rules) or None,
                           protocol=not args.no_protocol, model=model)
    except CheckUsageError as error:
        raise SystemExit(str(error))
    render = render_json if args.json else render_text
    print(render(report.findings, checked_paths=report.files_checked,
                 model_stats=report.stats.get("model"),
                 effects_stats=report.stats.get("effects"),
                 passes=report.passes if len(report.passes) > 1 else None))
    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    return exit_code(report.findings, fail_on=fail_on)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point for ``python -m repro.check``."""
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Determinism & protocol-invariant checks for the "
                    "Swift reproduction.")
    add_check_arguments(parser)
    return run_check_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
