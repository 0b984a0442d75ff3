"""`python -m repro check` behaviour: exit codes and report formats."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = str(Path(__file__).parent / "fixtures")


def test_check_exits_zero_on_the_repository(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_check_exits_nonzero_on_violation_fixtures(capsys):
    assert main(["check", "--root", FIXTURES]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "error(s)" in out


def test_json_report_is_machine_readable(capsys):
    code = main(["check", "--root", FIXTURES, "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "repro-check"
    assert report["format_version"] == 2
    assert report["summary"]["errors"] >= 1
    assert report["summary"]["by_rule"]["wall-clock"] == 1
    by_line = {(f["rule"], Path(f["path"]).name) for f in report["findings"]}
    assert ("salted-hash", "fixture_salted_hash.py") in by_line


def test_json_report_on_clean_repo(capsys):
    assert main(["check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert report["files_checked"] > 0


def test_rule_selection(capsys):
    # Only the selected rule runs: other fixtures' hazards are invisible.
    code = main(["check", "--root", FIXTURES, "--rules", "salted-hash"])
    assert code == 1
    out = capsys.readouterr().out
    assert "salted-hash" in out
    assert "wall-clock" not in out


def test_unknown_rule_is_an_error():
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["check", "--rules", "no-such-rule"])


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("raw-random", "wall-clock", "implicit-seed"):
        assert rule_id in out


def test_module_entry_point(capsys):
    from repro.check.cli import main as check_main
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "mutable-default" in out
    assert "model-deadlock" in out
    assert "protocol-conformance" in out


def test_findings_have_stable_ids(capsys):
    main(["check", "--root", FIXTURES, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["check", "--root", FIXTURES, "--json"])
    second = json.loads(capsys.readouterr().out)
    ids = [f["id"] for f in first["findings"]]
    assert all(len(i) == 10 for i in ids)
    assert ids == [f["id"] for f in second["findings"]]  # run-to-run stable


def test_text_report_carries_the_id(capsys):
    main(["check", "--root", FIXTURES])
    out = capsys.readouterr().out
    assert "(id " in out


def test_fail_on_threshold_semantics():
    from repro.check.findings import Finding, Severity
    from repro.check.report import exit_code

    warning = Finding(rule_id="x", path=Path("a.py"), line=1, message="m",
                      severity=Severity.WARNING)
    assert exit_code([warning]) == 0
    assert exit_code([warning], fail_on=Severity.WARNING) == 1
    assert exit_code([], fail_on=Severity.WARNING) == 0


def test_fail_on_flag_is_accepted(capsys):
    assert main(["check", "--fail-on", "warning"]) == 0  # clean repo
    capsys.readouterr()
    assert main(["check", "--root", FIXTURES, "--fail-on", "warning"]) == 1
    capsys.readouterr()


def test_model_smoke_run(capsys):
    # One small scenario: exhausts in well under a second, exits clean.
    assert main(["check", "--model", "--scenarios", "pair:close"]) == 0
    out = capsys.readouterr().out
    assert "exhausted" in out
    assert "retransmits<=2" in out  # bounds are reported
    assert "0 error(s)" in out


def test_model_json_report(capsys):
    code = main(["check", "--model", "--json",
                 "--scenarios", "pair:close,pair:read",
                 "--retransmits", "1", "--depth", "40"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"]["exhausted"] is True
    assert "retransmits<=1" in report["model"]["bounds"]
    names = {s["name"] for s in report["model"]["scenarios"]}
    assert names == {"pair:close", "pair:read"}
    assert report["findings"] == []


def test_model_unknown_scenario_is_an_error():
    with pytest.raises(SystemExit, match="unknown model scenario"):
        main(["check", "--model", "--scenarios", "pair:bogus"])


# -- one pipeline: composed flags, --all options, one parse -------------------


def _report(capsys, *args):
    main(["check", "--json", *args])
    return json.loads(capsys.readouterr().out)


def test_pass_flags_compose_into_one_report(capsys):
    report = _report(capsys, "--units", "--aliasing", FIXTURES)
    rules = set(report["summary"]["by_rule"])
    assert {"unit-mismatch", "view-escape", "pool-leak"} <= rules
    assert [entry["name"] for entry in report["passes"]] == [
        "units", "aliasing"]


def test_aliasing_defects_fail_a_units_clean_path(capsys):
    aliasing = str(Path(FIXTURES) / "aliasing")
    assert main(["check", "--units", aliasing]) == 0
    capsys.readouterr()
    assert main(["check", "--units", "--aliasing", aliasing]) == 1
    assert "view-escape" in capsys.readouterr().out


def test_all_honours_scenarios(capsys):
    report = _report(capsys, "--all", "--retransmits", "1",
                     "--scenarios", "pair:close", FIXTURES)
    assert [s["name"] for s in report["model"]["scenarios"]] == [
        "pair:close"]


def test_all_honours_rules(capsys):
    report = _report(capsys, "--all", "--retransmits", "1",
                     "--scenarios", "pair:close", "--rules", "wall-clock",
                     FIXTURES)
    assert report["summary"]["by_rule"] == {"wall-clock": 1}


def test_all_honours_root_for_the_races_pass(capsys):
    report = _report(capsys, "--all", "--retransmits", "1",
                     "--scenarios", "pair:close", "--root", FIXTURES)
    assert {"yield-rmw", "lock-order"} <= set(report["summary"]["by_rule"])


def test_rule_outside_the_selected_passes_is_an_error():
    with pytest.raises(SystemExit, match="not selected"):
        main(["check", "--races", "--rules", "wall-clock"])


def test_list_rules_prints_each_catalogue_id_once(capsys):
    from repro.check import CATALOGUE, PASSES

    assert main(["check", "--list-rules"]) == 0
    printed = [line.split()[0]
               for line in capsys.readouterr().out.splitlines()]
    assert sorted(printed) == sorted(CATALOGUE)
    # No id is claimed by two passes.
    assert sum(len(spec.rules) for spec in PASSES) == len(CATALOGUE)


def test_rule_ids_are_never_shadowed():
    from repro.check import PASSES
    from repro.check import protocol, rules
    from repro.check.lint import rule_table

    determinism = PASSES[0]
    assert determinism.name == "determinism"
    assert len(rules.RULES) + len(protocol.RULES) == len(determinism.rules)
    with pytest.raises(ValueError, match="defined twice"):
        rule_table([("wall-clock", "a"), ("wall-clock", "b")])


def test_unparseable_file_is_one_finding_across_passes(capsys, tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n    pass\n")
    code = main(["check", "--json", "--units", "--aliasing", "--effects",
                 str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["rule"] for f in report["findings"]] == ["syntax-error"]


def test_model_findings_ignore_allow_comments(tmp_path, monkeypatch):
    # Allow comments cover the audited sources; a model finding stays
    # whether or not its anchor file is among them.
    from repro.check import Finding, model, run_check

    anchor = tmp_path / "spec_like.py"
    anchor.write_text("# repro: allow[model-conformance]\nx = 1\n")
    finding = Finding(rule_id="model-conformance", path=anchor, line=2,
                      message="spec and model disagree")
    monkeypatch.setattr(model, "check_model",
                        lambda config: ([finding], None))
    for passes in (["model"], ["determinism", "model"]):
        report = run_check([anchor], passes)
        assert report.findings == [finding], passes


def test_internal_errors_are_not_reported_as_usage_errors(monkeypatch):
    # Only bad input becomes a one-line SystemExit; a fault inside a
    # pass keeps its traceback.
    from repro.check import units

    def broken(files):
        raise ValueError("analysis fault")

    monkeypatch.setattr(units, "units_pass", broken)
    with pytest.raises(ValueError, match="analysis fault"):
        main(["check", "--units", FIXTURES])


def test_all_parses_each_file_exactly_once(capsys, monkeypatch):
    import ast
    from collections import Counter

    from repro.check import iter_python_files

    parses = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        if str(filename).endswith(".py"):
            parses[Path(filename).resolve()] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    main(["check", "--all", "--scenarios", "pair:close", FIXTURES])
    capsys.readouterr()
    expected = {path.resolve() for path in iter_python_files(Path(FIXTURES))}
    assert set(parses) == expected
    assert set(parses.values()) == {1}, parses.most_common(3)
