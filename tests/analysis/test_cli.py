"""The command-line interface."""

import pytest

from repro.cli import main


def test_demo_roundtrips(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_table_command(capsys, tmp_path):
    csv_path = tmp_path / "t2.csv"
    code = main(["table2", "--samples", "2", "--sizes", "3",
                 "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "vs paper" in out
    assert csv_path.exists()
    assert "operation,mean" in csv_path.read_text()


def test_figure_command(capsys):
    code = main(["fig4", "--requests", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "disks" in out


@pytest.mark.parametrize("figure", ["fig3", "fig4", "fig5", "fig6"])
def test_figure_workers_and_cache_reach_the_series(figure, monkeypatch,
                                                   tmp_path, capsys):
    import repro.sim
    from repro.sim import FigurePoint, ResultCache

    seen = {}

    def series(**kwargs):
        seen.update(kwargs)
        return [FigurePoint(series="s", x=1.0, y=2.0, result=None)]

    monkeypatch.setattr(repro.sim, f"figure{figure[-1]}_series", series)
    assert main([figure, "--requests", "40", "--workers", "3",
                 "--cache", str(tmp_path / "cache")]) == 0
    assert seen["num_requests"] == 40 and seen["workers"] == 3
    assert isinstance(seen["cache"], ResultCache)
    assert seen["cache"].root == tmp_path / "cache"

    seen.clear()
    assert main([figure]) == 0
    assert seen["workers"] == 1 and seen["cache"] is None
    capsys.readouterr()


def test_bad_workers_rejected():
    with pytest.raises(SystemExit):
        main(["fig5", "--workers", "0"])
    with pytest.raises(SystemExit):
        main(["fig5", "--workers", "two"])


def test_bad_sizes_rejected():
    with pytest.raises(SystemExit):
        main(["table1", "--sizes", "zero"])
    with pytest.raises(SystemExit):
        main(["table1", "--sizes", "0"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_sensitivity_command(capsys):
    assert main(["sensitivity", "--scale", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "network" in out
    assert "baseline" in out
