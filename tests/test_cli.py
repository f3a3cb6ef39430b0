"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.app == "redis"
        assert args.strategy == "DarwinGame"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--app", "postgres"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--name", "fig99"])


class TestScaleArgument:
    """``--scale`` takes a preset name or a numeric level cap everywhere."""

    COMMANDS = (
        ["tune"], ["sweep"], ["cache", "warm"], ["experiment", "--name", "fig10"],
    )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_numbers_become_level_caps(self, command):
        assert build_parser().parse_args(command + ["--scale", "2"]).scale == 2
        assert build_parser().parse_args(command + ["--scale", "test"]).scale == "test"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("bad", ["0", "-3", "huge"])
    def test_bad_scale_exits_2_with_one_line_fix(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + [f"--scale={bad}"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert errors[0].endswith("(fix --scale)")
        assert "Traceback" not in errors[0]

    def test_tune_with_numeric_scale(self, capsys):
        code = main(["tune", "--app", "lammps", "--scale", "2", "--seed", "1"])
        assert code == 0
        assert "DarwinGame on lammps" in capsys.readouterr().out


class TestRemovedExecutionKnobs:
    """Sweeps have one execution path; the old knobs are plain usage errors."""

    @pytest.mark.parametrize("command", [["sweep", "--apps", "redis"],
                                         ["resume", "s.jsonl"]])
    @pytest.mark.parametrize("flag", [["--exec-mode", "stacked"],
                                      ["--array-backend", "numpy"]])
    def test_flag_is_unrecognized(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) \
            in capsys.readouterr().err


class TestCommands:
    def test_tune_runs(self, capsys):
        code = main(["tune", "--app", "redis", "--scale", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DarwinGame on redis" in out
        assert "Chosen configuration" in out

    def test_compare_runs(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "Optimal,DarwinGame",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Optimal" in out and "DarwinGame" in out

    def test_compare_rejects_unknown_strategy(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "Optimal,SkyNet",
        ])
        assert code == 2

    def test_experiment_stability(self, capsys):
        code = main([
            "experiment", "--name", "stability", "--scale", "test",
            "--repeats", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pick stability" in out

    def test_table1(self, capsys):
        code = main(["table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "redis" in out and "lammps" in out

    def test_compare_with_statistical_baselines(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "QuantileRegression,ThompsonSampling",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "QuantileRegression" in out and "ThompsonSampling" in out

    def test_experiment_formats(self, capsys):
        code = main(["experiment", "--name", "formats", "--scale", "test"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Swiss" in out and "RoundRobin" in out

    def test_experiment_shift(self, capsys):
        code = main(["experiment", "--name", "shift", "--scale", "test"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distribution shift" in out
        assert "DarwinGame" in out

    def test_experiment_statistical(self, capsys):
        code = main([
            "experiment", "--name", "statistical", "--scale", "test",
            "--repeats", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistical baselines" in out

    def test_tune_with_heuristic_strategy(self, capsys):
        code = main([
            "tune", "--app", "redis", "--scale", "test",
            "--strategy", "GeneticAlgorithm",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "GeneticAlgorithm on redis" in out

    def test_tune_save_and_report(self, capsys, tmp_path):
        archive = str(tmp_path / "campaign.json")
        code = main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "2",
            "--save", archive,
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["report", archive])
        out = capsys.readouterr().out
        assert code == 0
        assert "DarwinGame" in out
        assert "mean cloud exec time" in out
