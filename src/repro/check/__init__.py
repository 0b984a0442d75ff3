"""Determinism & protocol-invariant checking for the reproduction.

The results in Tables 1-4 and Figures 3-6 are only trustworthy if every
simulation run is bit-for-bit deterministic and the transfer protocol never
violates its ACK/NAK state machine.  This package provides three layers of
defence.  The static passes share one pipeline
(:mod:`repro.check.pipeline`): :func:`run_check` parses every audited
file once (:mod:`repro.check.lint`), runs the selected passes over the
parsed files, applies ``# repro: allow[...]`` suppressions to the
findings of every pass that reads the sources and merges them into one
report.  :data:`PASSES` is the
rule catalogue: each pass with the rule ids it emits.

* :mod:`repro.check.rules` — the determinism lint rules: unseeded RNG,
  wall-clock reads, mutable default arguments, set-iteration order
  dependence, salted ``hash()`` use.
* :mod:`repro.check.protocol` — a static checker that extracts the
  agent/client message flows from the protocol sources and verifies them
  against the declarative spec in :mod:`repro.check.spec` (the
  docs/PROTOCOL.md ACK/NAK/retransmit machine).
* :mod:`repro.check.sanitize` — opt-in runtime sanitizer hooks for the DES:
  event-time monotonicity, resource-leak detection, cross-stream RNG
  sharing.
* :mod:`repro.check.races` — static interleaving lints that model
  ``yield`` as a preemption point (lost-update RMW spans, lock-order
  cycles); run with ``python -m repro check --races``.
* :mod:`repro.check.hb` — dynamic happens-before race detection over a
  live DES run, attached to the engine as an observer.
* :mod:`repro.check.perturb` — the schedule-perturbation harness: rerun
  a scenario under K seeded same-(time, priority) shuffles and assert
  the metrics are bit-identical.
* :mod:`repro.check.units` — a dimensional-analysis lint: infer units
  (bytes, seconds, bytes/s, ...) from names and the ``repro.units``
  seed table, propagate them through arithmetic, and flag mixed-unit
  expressions, inline ``*8``/``/8`` bit-byte factors and magic scale
  constants; run with ``python -m repro check --units``.
* :mod:`repro.check.conserve` — a runtime byte-conservation ledger over
  the striped data path, fed by the engine's ``on_transfer`` hook.
* :mod:`repro.check.aliasing` — zero-copy safety lints: an AST dataflow
  analysis over view-producing expressions flagging borrowed views that
  escape their backing buffer's lifetime (``view-escape``), silent
  flattening copies on hot paths (``hidden-copy``) and pooled event
  references held across the free-list re-arm boundary (``pool-leak``);
  run with ``python -m repro check --aliasing``.  Its runtime half
  (poisoned free lists, generation-stamped buffers) lives in
  :mod:`repro.check.sanitize` as :func:`alias_sanitize`.
* :mod:`repro.check.model` — an explicit-state bounded model checker:
  composes each client machine of :mod:`repro.check.spec` with its
  agent-side peer and an adversarial network
  (:mod:`repro.check.adversary` — drop, duplicate, reorder, crash,
  stale replies) and exhaustively explores every interleaving up to the
  configured bounds; run with ``python -m repro check --model``.
* :mod:`repro.check.effects` — a call-graph effect/purity analysis:
  per-function effect signatures (ambient time/randomness/environment/
  filesystem/process reads, module-global writes) propagated bottom-up
  through SCC summaries, then checked against the cache-soundness,
  worker-hermeticity and bench-determinism contracts; run with
  ``python -m repro check --effects``.  Its runtime half (ambient-read
  traps + module-global snapshot/diff around cached runs) lives in
  :mod:`repro.check.sanitize` as :func:`hermetic_sanitize`.

Run everything from the command line::

    python -m repro check [--json]
    python -m repro check --races [--json]
    python -m repro check --units [paths ...] [--json]
    python -m repro check --aliasing [paths ...] [--json]
    python -m repro check --model [--depth N] [--retransmits K]
    python -m repro check --effects [paths ...] [--json]
    python -m repro check --units --aliasing [paths ...]   # flags compose
    python -m repro check --all [--json]

which exits non-zero when any violation is found.  Individual lint findings
can be suppressed with a ``# repro: allow[rule-id]`` comment on the
offending line (or the line above); see docs/CHECKING.md.
"""

from .adversary import AdversaryBudget
from .aliasing import analyze_aliasing
from .effects import ALLOWED_GLOBAL_WRITES, EffectStats, analyze_effects
from .findings import CheckUsageError, Finding, Severity
from .hb import RaceDetector, RaceError, RaceReport, detect_races
from .model import (
    ModelConfig,
    ModelStats,
    PairModel,
    ReadModel,
    SemanticFlags,
    WriteModel,
    check_model,
    explore,
)
from .lint import Rule, SourceFile, iter_python_files, parse_files
from .perturb import (
    PerturbationReport,
    ScheduleRaceError,
    ScheduleTrace,
    assert_schedule_invariant,
    run_perturbed,
)
from .pipeline import CATALOGUE, PASSES, CheckReport, run_check
from .protocol import check_protocol
from .report import render_json, render_text
from .conserve import ConservationError, ConservationLedger, conserve
from .sanitize import (
    AliasSanitizer,
    AmbientReadError,
    GuardedView,
    HermeticityError,
    HermeticitySanitizer,
    MonotonicityError,
    ResourceLeakError,
    SanitizerError,
    SharedStreamError,
    StaleViewError,
    UseAfterRecycleError,
    alias_sanitize,
    hermetic_sanitize,
    sanitize,
)

__all__ = [
    "Finding",
    "CheckUsageError",
    "Severity",
    "Rule",
    "SourceFile",
    "iter_python_files",
    "parse_files",
    "PASSES",
    "CATALOGUE",
    "CheckReport",
    "analyze_aliasing",
    "ALLOWED_GLOBAL_WRITES",
    "EffectStats",
    "analyze_effects",
    "ConservationError",
    "ConservationLedger",
    "conserve",
    "check_protocol",
    "AdversaryBudget",
    "ModelConfig",
    "ModelStats",
    "PairModel",
    "ReadModel",
    "SemanticFlags",
    "WriteModel",
    "check_model",
    "explore",
    "render_text",
    "render_json",
    "run_check",
    "sanitize",
    "alias_sanitize",
    "AliasSanitizer",
    "hermetic_sanitize",
    "HermeticitySanitizer",
    "AmbientReadError",
    "HermeticityError",
    "GuardedView",
    "SanitizerError",
    "MonotonicityError",
    "ResourceLeakError",
    "SharedStreamError",
    "StaleViewError",
    "UseAfterRecycleError",
    "RaceDetector",
    "RaceReport",
    "RaceError",
    "detect_races",
    "ScheduleTrace",
    "PerturbationReport",
    "ScheduleRaceError",
    "run_perturbed",
    "assert_schedule_invariant",
]

