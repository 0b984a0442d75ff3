"""The shared parse layer every static pass reads.

:func:`parse_files` walks the audited roots and parses each file exactly
once into a :class:`SourceFile`: its path, source, AST, the
``# repro: allow[rule-id]`` suppression map and the import map.  The
passes (:mod:`repro.check.pipeline`) take those files as input and never
read or parse a file themselves.  Per-file rules subclass :class:`Rule`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .findings import Finding, Severity

__all__ = ["Rule", "SourceFile", "ImportMap", "dotted_name", "parse_file",
           "parse_files", "iter_python_files", "run_rules", "rule_table",
           "RULE_GROUPS", "SUPPRESS_PATTERN"]

#: ``# repro: allow[rule-id]`` (several ids comma-separated, ``*`` for all).
SUPPRESS_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_\-*,\s]+)\]")

#: Group aliases for suppression comments: ``allow[group]`` covers every
#: rule id starting with one of the listed prefixes.
RULE_GROUPS: dict[str, tuple[str, ...]] = {
    "units": ("unit-",),
    "aliasing": ("view-escape", "hidden-copy", "pool-leak"),
    "effects": ("effect-",),
}

#: Directories never descended into (caches, checker test fixtures).
#: The ``fixtures`` entry keeps broad walks (e.g. the nightly sweep over
#: ``tests/``) out of the intentionally-buggy mutation fixtures; it only
#: applies *below* the requested root, so pointing a pass directly at a
#: fixture directory (as the fixture tests do) still audits it.
_SKIP_DIR_NAMES = {"__pycache__", ".git", ".pytest_cache", "fixtures"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted text of a Name/Attribute chain (``a.b.c``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Resolves a module's local names back to the modules they came from."""

    def __init__(self, nodes: Iterable[ast.AST]):
        #: local alias -> dotted module name (``import time as t`` -> t: time)
        self.modules: dict[str, str] = {}
        #: local name -> fully dotted origin (``from time import time``)
        self.names: dict[str, str] = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def qualify(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or None."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        head = self.modules.get(head) or self.names.get(head, head)
        return head + dot + rest


def _suppressed_rules(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids allowed on that line.

    A trailing ``allow`` comment covers only its own line; a standalone
    comment line (nothing but the comment) covers the line below it, so
    a suppression can sit above the statement without silencing an
    unrelated neighbour.
    """
    allowed: dict[int, set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_PATTERN.search(text)
        if not match:
            continue
        ids = {piece.strip() for piece in match.group(1).split(",")}
        ids.discard("")
        standalone = text.lstrip().startswith("#")
        covered = (number, number + 1) if standalone else (number,)
        for line in covered:
            allowed.setdefault(line, set()).update(ids)
    return allowed


@dataclass(frozen=True)
class SourceFile:
    """One audited file, parsed once and shared by every pass.

    ``nodes`` is ``ast.walk(tree)`` materialised once, so per-file rules
    do not each re-walk the tree.  ``tree`` is None (and ``nodes`` empty)
    when the file does not parse; ``syntax_error`` then carries the
    finding that reports it.
    """

    path: Path
    tree: Optional[ast.Module]
    nodes: tuple[ast.AST, ...]
    allowed: dict[int, set[str]]
    imports: ImportMap
    syntax_error: Optional[Finding] = None

    def allows(self, finding: Finding) -> bool:
        """True when an allow comment covers ``finding``'s line."""
        granted = self.allowed.get(finding.line, ())
        if finding.rule_id in granted or "*" in granted:
            return True
        return any(group in granted and finding.rule_id.startswith(prefixes)
                   for group, prefixes in RULE_GROUPS.items())


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root`` (a file path is yielded as-is)."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        below_root = path.relative_to(root).parts[:-1]
        if not any(part in _SKIP_DIR_NAMES for part in below_root):
            yield path


def parse_file(path: Path) -> SourceFile:
    """Read and parse one file (an unparseable file is not an error here:
    its :attr:`SourceFile.syntax_error` is reported by the driver)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    allowed = _suppressed_rules(source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        error = Finding(rule_id="syntax-error", path=path,
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}")
        return SourceFile(path, None, (), allowed, ImportMap(()), error)
    nodes = tuple(ast.walk(tree))
    return SourceFile(path, tree, nodes, allowed, ImportMap(nodes))


def parse_files(roots: Iterable[Path]) -> list[SourceFile]:
    """Every file under ``roots``, each parsed once (overlapping roots
    do not parse a file twice)."""
    files: list[SourceFile] = []
    seen: set[Path] = set()
    for root in roots:
        for path in iter_python_files(Path(root)):
            key = path.resolve()
            if key not in seen:
                seen.add(key)
                files.append(parse_file(path))
    return files


class Rule:
    """Base class for per-file lint rules.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check`, yielding findings.  ``exempt_suffixes`` names path
    suffixes (POSIX style) where the rule never applies — e.g. the RNG
    containment rule exempts ``des/random_streams.py`` itself.
    """

    rule_id: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR
    exempt_suffixes: tuple[str, ...] = ()

    def applies_to(self, path: Path) -> bool:
        """False when ``path`` is exempt from this rule."""
        posix = path.as_posix()
        return not any(posix.endswith(suffix)
                       for suffix in self.exempt_suffixes)

    def check(self, file: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def finding(self, path: Path, node: ast.AST, message: str) -> Finding:
        """Convenience constructor anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            message=message,
            severity=self.severity,
        )


def rule_table(entries: Iterable[tuple[str, str]]) -> dict[str, str]:
    """``rule_id -> value`` from ``entries``; a repeated id raises
    ``ValueError`` instead of silently shadowing the first."""
    table: dict[str, str] = {}
    for rule_id, value in entries:
        if rule_id in table:
            raise ValueError(f"rule id {rule_id!r} is defined twice")
        table[rule_id] = value
    return table


def run_rules(rules: Sequence[type[Rule]],
              files: Sequence[SourceFile]) -> list[Finding]:
    """Every finding of every rule class over the parsed ``files``."""
    checks = [rule() for rule in rules]
    return [finding
            for file in files
            for check in checks if check.applies_to(file.path)
            for finding in check.check(file)]
