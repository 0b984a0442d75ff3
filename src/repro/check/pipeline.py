"""One pipeline for ``repro check``: parse once, run passes, merge.

:data:`PASSES` is the rule catalogue: every pass in reporting order with
the rule ids it emits.  :func:`run_check` parses the audited files once
(:func:`repro.check.lint.parse_files`), hands them to each selected
pass, applies the ``rules`` selection to every pass's findings (and
the ``# repro: allow[...]`` suppressions to those of passes that read
the sources), and returns one merged :class:`CheckReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import aliasing, effects, races, units
from . import model as model_checker
from . import protocol as protocol_checker
from . import rules as lint_rules
from .findings import CheckUsageError, Finding
from .lint import SourceFile, parse_files, rule_table

__all__ = ["Pass", "PASSES", "CATALOGUE", "CheckReport", "run_check",
           "PACKAGE"]

#: The installed ``repro`` package: what ``run_check`` audits by default.
PACKAGE = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class _Options:
    """What the passes read besides the parsed files."""

    roots: Sequence[Path]
    protocol: bool
    model: model_checker.ModelConfig


def _determinism(files, options):
    found = lint_rules.lint_pass(files)
    if options.protocol:
        for root in options.roots:
            found.extend(protocol_checker.check_protocol(root, files))
    return found, None


@dataclass(frozen=True)
class Pass:
    """One pass: its rule ids (id -> summary) and how to run it.

    ``run(files, options)`` returns ``(findings, stats or None)``.
    ``default_scope`` narrows the default package audit to these
    subdirectories; ``reads_files`` is False for a pass that checks the
    spec rather than the sources.
    """

    name: str
    rules: Mapping[str, str]
    run: Callable[[Sequence[SourceFile], _Options], tuple]
    default_scope: tuple[str, ...] = ()
    reads_files: bool = True


PASSES = (
    Pass("determinism", rule_table([*lint_rules.RULES.items(),
                                    *protocol_checker.RULES.items()]),
         _determinism),
    Pass("races", races.RULES,
         lambda files, options: (races.race_pass(files), None),
         default_scope=races.RACE_SCAN_SUBDIRS),
    Pass("units", units.RULES,
         lambda files, options: (units.units_pass(files), None)),
    Pass("aliasing", aliasing.RULES,
         lambda files, options: (aliasing.aliasing_pass(files), None)),
    Pass("model", model_checker.RULES,
         lambda files, options: model_checker.check_model(options.model),
         reads_files=False),
    Pass("effects", effects.RULES,
         lambda files, options: effects.analyze_effects(files)),
)

#: Rule id -> the name of the pass that emits it (an id two passes
#: share is an import-time error).
CATALOGUE = rule_table((rule_id, spec.name)
                       for spec in PASSES for rule_id in spec.rules)


@dataclass
class CheckReport:
    """The merged result of one ``run_check``."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: pass name -> the stats it returned (``model``, ``effects``).
    stats: dict[str, object] = field(default_factory=dict)
    #: per pass: {"name", "seconds", "findings"}, in run order.
    passes: list[dict] = field(default_factory=list)


def _select(names: Iterable[str],
            selected_rules: Optional[set[str]]) -> list[Pass]:
    """The passes to run, in catalogue order, narrowed by ``rules``."""
    names = set(names)
    unknown = names - {spec.name for spec in PASSES}
    if unknown:
        raise CheckUsageError(f"unknown pass(es): {', '.join(sorted(unknown))}")
    if selected_rules is not None:
        for rule_id in sorted(selected_rules):
            if rule_id not in CATALOGUE:
                raise CheckUsageError(
                    f"unknown rule {rule_id!r}; known rules: "
                    f"{', '.join(sorted(CATALOGUE))}")
            if CATALOGUE[rule_id] not in names:
                raise CheckUsageError(
                    f"rule {rule_id!r} belongs to the {CATALOGUE[rule_id]} "
                    "pass, which is not selected")
        names = {CATALOGUE[rule_id] for rule_id in selected_rules}
    return [spec for spec in PASSES if spec.name in names]


def _in_scope(file: SourceFile, subdirs: tuple[str, ...]) -> bool:
    return file.path.relative_to(PACKAGE).parts[0] in subdirs


def run_check(paths: Optional[Sequence[Path]] = None,
              passes: Iterable[str] = ("determinism",), *,
              rules: Optional[Iterable[str]] = None,
              protocol: bool = True,
              model: Optional[model_checker.ModelConfig] = None,
              ) -> CheckReport:
    """Run the selected ``passes`` over ``paths`` and merge the results.

    ``paths`` defaults to the installed package (where the races pass
    audits only its DES-facing subpackages).  ``rules`` keeps only the
    named rule ids (and runs only the passes that emit them); unknown
    ids raise :class:`~repro.check.findings.CheckUsageError` (a
    ``ValueError``).  ``protocol=False`` skips the protocol
    checker inside the determinism pass; ``model`` bounds the model
    pass (default :class:`~repro.check.model.ModelConfig`).
    """
    selected_rules = None if rules is None else set(rules)
    selected = _select(passes, selected_rules)
    roots = [Path(path) for path in paths] if paths else [PACKAGE]
    options = _Options(roots=roots, protocol=protocol,
                       model=model or model_checker.ModelConfig())
    files = (parse_files(roots)
             if any(spec.reads_files for spec in selected) else [])
    by_path = {file.path.resolve(): file for file in files}

    report = CheckReport()
    checked: dict[Path, SourceFile] = {}
    for spec in selected:
        scope = files
        if spec.default_scope and not paths:
            scope = [file for file in files
                     if _in_scope(file, spec.default_scope)]
        if spec.reads_files:
            checked.update((file.path, file) for file in scope)
        start = time.perf_counter()  # repro: allow[wall-clock]
        found, stats = spec.run(
            [file for file in scope if file.tree is not None], options)
        seconds = time.perf_counter() - start  # repro: allow[wall-clock]
        kept = []
        for finding in found:
            # Allow comments cover findings in the audited sources only:
            # a pass that reads none (model) anchors at the spec and is
            # never suppressed, whichever other passes run.
            anchor = (by_path.get(finding.path.resolve())
                      if spec.reads_files else None)
            if anchor is not None and anchor.allows(finding):
                continue
            if selected_rules is None or finding.rule_id in selected_rules:
                kept.append(finding)
        report.findings.extend(kept)
        report.passes.append({"name": spec.name, "seconds": round(seconds, 3),
                              "findings": len(kept)})
        if stats is not None:
            report.stats[spec.name] = stats

    report.findings.extend(file.syntax_error for file in checked.values()
                           if file.syntax_error is not None)
    report.findings.sort(key=lambda f: (str(f.path), f.line, f.rule_id))
    report.files_checked = len(checked)
    return report
