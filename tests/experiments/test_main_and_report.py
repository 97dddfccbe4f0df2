"""The CLI entry point and text-report utilities."""

import pytest

from repro.experiments.__main__ import TARGETS, main
from repro.experiments.report import format_bars, format_table


class TestMainCLI:
    def test_all_targets_registered(self):
        assert set(TARGETS) == {
            "table1",
            "motivation",
            "fig2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "headline",
            "json",
        }

    def test_unknown_target_exit_code(self, no_targets, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "fig99"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unknown targets: ['fig99']" in captured.err
        assert "usage:" in captured.err
        assert captured.out == ""
        assert no_targets == []

    def test_single_target_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "done in" in out

    @pytest.fixture
    def no_targets(self, monkeypatch):
        """Replace every target with a recorder: nothing is simulated."""
        ran = []
        for name in TARGETS:
            monkeypatch.setitem(
                TARGETS, name, lambda name=name: ran.append(name) or name
            )
        return ran

    def test_help_exits_zero_without_running_targets(self, no_targets, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--jobs" in capsys.readouterr().out
        assert no_targets == []

    @pytest.mark.parametrize(
        "argv",
        [["--jobs"], ["--jobs", "0"], ["--jobs=-2"], ["--jobs", "x", "fig2"]],
    )
    def test_bad_jobs_is_a_usage_error(self, argv, no_targets, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert no_targets == []

    @pytest.mark.parametrize(
        "argv", [["--timeout", "0"], ["--retries", "-1"], ["--bogus"]]
    )
    def test_other_bad_flags_are_usage_errors(self, argv, no_targets):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert no_targets == []

    def test_flags_and_targets_intermix(self, no_targets):
        assert main(["table1", "--jobs", "2", "--no-cache", "fig2"]) == 0
        assert no_targets == ["table1", "fig2"]


class TestFormatBars:
    def test_basic_render(self):
        text = format_bars([("a", 1.0), ("b", 2.0)], width=10, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a | #####")
        assert lines[2].startswith("b | ##########")

    def test_zero_values(self):
        text = format_bars([("a", 0.0), ("b", 0.0)])
        assert "a" in text and "b" in text

    def test_empty_series(self):
        assert "(no data)" in format_bars([])

    def test_labels_aligned(self):
        text = format_bars([("short", 1), ("a-long-label", 2)])
        bars = [line.index("|") for line in text.splitlines()]
        assert len(set(bars)) == 1


class TestFormatTableEdges:
    def test_non_numeric_cells(self):
        text = format_table(["k", "v"], [("x", None), ("y", "flag")])
        assert "None" in text and "flag" in text

    def test_single_column(self):
        text = format_table(["only"], [(1,), (2,)])
        assert "only" in text
