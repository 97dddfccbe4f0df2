"""The python -m repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "histogram", "--scheme", "magic"])

    @pytest.mark.parametrize("size", ["0", "-5", "abc"])
    def test_run_rejects_non_positive_size(self, size, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "histogram", "--size", size])
        assert exc.value.code == 2
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_experiments_rejects_non_positive_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "--jobs", jobs, "table1"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--jobs", "-2"),
            ("--max-rounds", "0"),
            ("--max-rounds", "x"),
            ("--spec-window", "-1"),
            ("--spec-window", "1.5"),
        ],
    )
    def test_ctcheck_rejects_out_of_range_counts(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ctcheck", "--no-workloads", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_ctcheck_unknown_program_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ctcheck", "--program", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown program(s) ['nosuch']" in err
        assert "usage:" in err

    def test_ctcheck_unusable_cache_path_is_a_usage_error(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            main(["ctcheck", "--program", "lookup", "--no-workloads",
                  "--vcache", str(blocker / "x")])
        assert exc.value.code == 2
        assert "--vcache" in capsys.readouterr().err

    def test_ctcheck_creates_the_cache_directory(self, tmp_path):
        path = tmp_path / "new" / "verdicts"
        assert main(["ctcheck", "--program", "lookup", "--no-workloads",
                     "--vcache", str(path)]) == 0
        assert len(list(path.glob("*.pkl"))) == 1

    @pytest.mark.parametrize("repair", [True, False])
    def test_ctcheck_repair_out_misuse_fails_before_checking(
        self, repair, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.api as api

        def no_check(**kwargs):
            raise AssertionError("the check ran")

        monkeypatch.setattr(api, "run_ctcheck", no_check)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        # With --repair the path is unwritable; without it the flag
        # has nothing to write.
        out = blocker / "r.txt" if repair else tmp_path / "r.txt"
        argv = ["ctcheck", "--program", "lookup", "--no-workloads",
                "--repair-out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--repair"] if repair else argv)
        assert exc.value.code == 2
        assert "--repair-out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["0", "-1", "x"])
    def test_bench_rejects_non_positive_repeats(self, repeats, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--repeats", repeats])
        assert exc.value.code == 2
        assert "--repeats" in capsys.readouterr().err

    def test_ctcheck_accepts_boundary_counts(self):
        args = build_parser().parse_args(
            ["ctcheck", "--jobs", "1", "--max-rounds", "1",
             "--spec-window", "0"]
        )
        assert (args.jobs, args.max_rounds, args.spec_window) == (1, 1, 0)


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "histogram", "--size", "500"]) == 0
        out = capsys.readouterr().out
        assert "hist_500" in out
        assert "bia-l1d" in out

    def test_run_with_bars_and_scheme_subset(self, capsys):
        code = main(
            [
                "run",
                "histogram",
                "--size",
                "500",
                "--scheme",
                "insecure",
                "--scheme",
                "bia-l1d",
                "--bars",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ct " not in out  # only requested schemes
        assert "#" in out  # bars drawn

    def test_crypto(self, capsys):
        assert main(["crypto", "XOR"]) == 0
        assert "XOR" in capsys.readouterr().out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "bia-l1d" in out and "insecure" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "dijkstra" in out and "crypto:AES" in out

    def test_experiments_delegation(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
