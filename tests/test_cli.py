"""CLI tests: exit codes, output formats, determinism of invocations."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from gridepi import assets, harness
from gridepi.cli import DEFAULT_SEED, EXIT_IO, EXIT_OK, EXIT_USAGE, cli_main
from gridepi.dynamics import TRAJECTORY_HEADER
from gridepi.harness import BENCHMARK_CSV_HEADER, EXPERIMENT_CSV_HEADER

MICRO_SCN = """\
[grid]
SI

[params]
p_mv = 0.0

[planner]
horizon = 4
rounds = 1
"""

TINY_SCN = """\
[grid]
S.I
.S.

[planner]
horizon = 6
rounds = 2
uct_iterations = 8
"""

# no one is exposed or infectious, so every planner root is quiescent
QUIET_SCN = """\
[grid]
S.S

[planner]
horizon = 3
rounds = 2
uct_iterations = 16
"""


@pytest.fixture
def micro(tmp_path):
    path = tmp_path / "micro.scn"
    path.write_text(MICRO_SCN, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY_SCN, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Parser-level behavior
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == EXIT_OK
    assert "gridepi" in capsys.readouterr().out


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["validate", "--frobnicate"]) == EXIT_USAGE


def test_missing_subcommand_exits_one(capsys):
    assert cli_main([]) == EXIT_USAGE


def test_default_seed_value():
    assert DEFAULT_SEED == 1729


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_bundled_scenario(capsys):
    assert cli_main(["validate", str(assets.asset_path("small_space.scn"))]) == EXIT_OK
    out = capsys.readouterr().out
    assert "OK small_space: N=4, walkable=12, density=0.33" in out


def test_validate_reports_all_errors(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[grid]\nSS\n\n[planner]\npen_i=-5.0\npen_d=-1.0\n", encoding="utf-8")
    assert cli_main(["validate", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err


def test_validate_warns_without_failing(tmp_path, capsys):
    quiet = tmp_path / "quiet.scn"
    quiet.write_text("[grid]\nSS\n", encoding="utf-8")
    assert cli_main(["validate", str(quiet)]) == EXIT_OK
    assert "warning:" in capsys.readouterr().out


def test_validate_missing_file_exits_two(capsys):
    assert cli_main(["validate", "/nonexistent/nowhere.scn"]) == EXIT_IO


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_summary_and_trajectory(tmp_path, micro, capsys):
    out = tmp_path / "traj.csv"
    code = cli_main(
        ["simulate", micro, "--policy", "noop", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "round 0:" in text
    assert "mean positivity over 1 rounds:" in text
    content = out.read_text(encoding="utf-8")
    assert content.startswith(TRAJECTORY_HEADER + "\n")
    assert len(content.splitlines()) == 6


def test_simulate_identical_invocations_are_byte_identical(tmp_path, tiny, capsys):
    def invoke(path):
        code = cli_main(
            ["simulate", tiny, "--seed", "9", "--out", str(path)]
        )
        assert code == EXIT_OK
        return capsys.readouterr().out

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    stdout_a = invoke(out_a)
    stdout_b = invoke(out_b)
    assert stdout_a == stdout_b
    for index in range(2):
        a = (tmp_path / f"a_r{index}.csv").read_bytes()
        b = (tmp_path / f"b_r{index}.csv").read_bytes()
        assert a == b


def test_simulate_round_file_naming(tmp_path, tiny, capsys):
    out = tmp_path / "run.csv"
    assert cli_main(["simulate", tiny, "--policy", "noop", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert not out.exists()
    assert (tmp_path / "run_r0.csv").exists()
    assert (tmp_path / "run_r1.csv").exists()
    single = tmp_path / "single.csv"
    assert (
        cli_main(
            ["simulate", tiny, "--policy", "noop", "--rounds", "1", "--out", str(single)]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    assert single.exists()


def test_simulate_json_trajectory(tmp_path, micro, capsys):
    out = tmp_path / "traj.json"
    code = cli_main(
        ["simulate", micro, "--policy", "noop", "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["trajectory"]) == 5
    assert payload["trajectory"][0]["S"] == 1


def test_simulate_event_and_decision_logs(tmp_path, tiny, capsys):
    events = tmp_path / "ev.jsonl"
    decisions = tmp_path / "dec.jsonl"
    code = cli_main(
        [
            "simulate", tiny, "--rounds", "1", "--seed", "4",
            "--events", str(events), "--decisions", str(decisions),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    for line in events.read_text(encoding="utf-8").splitlines():
        assert set(json.loads(line)) == {"step", "kind", "person_id", "detail"}
    decision_lines = decisions.read_text(encoding="utf-8").splitlines()
    assert len(decision_lines) == 6
    first = json.loads(decision_lines[0])
    assert first["step"] == 0
    assert "chosen_action" in first and "per_action" in first


def test_simulate_horizon_override(tmp_path, micro, capsys):
    out = tmp_path / "short.csv"
    code = cli_main(
        ["simulate", micro, "--policy", "noop", "--horizon", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4


def test_simulate_rejects_bad_rounds(micro, capsys):
    assert cli_main(["simulate", micro, "--rounds", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: planner.rounds must be >= 1\n"


def test_simulate_rejects_negative_horizon(micro, capsys):
    assert cli_main(["simulate", micro, "--horizon", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: planner.horizon must be >= 0\n"


def test_simulate_room_without_persons_exits_one(tmp_path, capsys):
    # validate accepts the room, but its summary has no population to divide by
    path = tmp_path / "empty.scn"
    path.write_text("[grid]\n...\n", encoding="utf-8")
    out = tmp_path / "traj.csv"
    code = cli_main(["simulate", str(path), "--rounds", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: scenario has no persons\n"
    assert not out.exists()


def test_simulate_warns_about_a_room_without_infection(tmp_path, capsys):
    path = tmp_path / "quiet.scn"
    path.write_text(QUIET_SCN, encoding="utf-8")
    decisions = tmp_path / "decisions.jsonl"
    assert cli_main(["simulate", str(path), "--decisions", str(decisions)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "warning: no initially infectious person; nothing will spread"
    assert err == ""
    for r in range(2):
        lines = (tmp_path / f"decisions_r{r}.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line in lines:
            decision = json.loads(line)
            assert decision["root_visits"] == 16
            assert all(row["mean_return"] == 0.0 for row in decision["per_action"])


def test_simulate_missing_scenario_exits_two(capsys):
    assert cli_main(["simulate", "/nonexistent/nowhere.scn"]) == EXIT_IO


# ---------------------------------------------------------------------------
# experiment / benchmark
# ---------------------------------------------------------------------------


@pytest.fixture
def sweep(tmp_path, tiny):
    path = tmp_path / "sweep.exp"
    path.write_text(
        "[experiment]\nscenario = tiny.scn\nvariations = none, masks\n"
        "runs = 2\nlabel = tiny\n",
        encoding="utf-8",
    )
    return str(path)


def test_experiment_stdout_and_file_match(tmp_path, sweep, capsys):
    out = tmp_path / "results.csv"
    assert cli_main(["experiment", sweep, "--seed", "2", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout == out.read_text(encoding="utf-8")
    lines = stdout.splitlines()
    assert lines[0] == EXPERIMENT_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("tiny,")
    assert lines[2].startswith("tiny+masks,")


def test_experiment_deterministic(sweep, capsys):
    assert cli_main(["experiment", sweep, "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli_main(["experiment", sweep, "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert cli_main(["experiment", sweep, "--seed", "6"]) == EXIT_OK
    assert capsys.readouterr().out != first


def test_experiment_json_format(sweep, capsys):
    assert cli_main(["experiment", sweep, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [row["simulation"] for row in payload["results"]] == ["tiny", "tiny+masks"]


def test_experiment_runs_override(sweep, capsys):
    assert cli_main(["experiment", sweep, "--runs", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert cli_main(["experiment", sweep, "--runs", "1"]) == EXIT_OK
    assert EXPERIMENT_CSV_HEADER in capsys.readouterr().out


def test_experiment_runs_zero_prints_the_spec_rule(sweep, capsys):
    assert cli_main(["experiment", sweep, "--runs", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: runs must be >= 1\n"


def test_experiment_label_with_comma_stays_one_cell(tmp_path, tiny, capsys):
    path = tmp_path / "comma.exp"
    path.write_text(
        "[experiment]\nscenario = tiny.scn\nruns = 1\nlabel = room,A\n", encoding="utf-8"
    )
    assert cli_main(["experiment", str(path)]) == EXIT_OK
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(header) == len(row) == 9
    assert row[0] == "room,A"


def test_experiment_bad_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.exp"
    bad.write_text("[experiment]\nruns = 3\n", encoding="utf-8")
    assert cli_main(["experiment", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["experiment", "{sweep}", "--runs", "0"], EXIT_USAGE),
        (["validate", "{bad}"], EXIT_USAGE),
        (["experiment", "/nonexistent/nowhere.exp"], EXIT_IO),
    ],
)
def test_errors_go_to_stderr_alone(argv, code, sweep, tmp_path, capsys):
    """An error never lands in results piped from standard output, from a
    spec rule, a list of validation errors or an I/O failure."""
    bad = tmp_path / "bad.scn"
    bad.write_text("[grid]\nSS\n\n[planner]\npen_i=-5.0\npen_d=-1.0\n", encoding="utf-8")
    argv = [arg.format(sweep=sweep, bad=bad) for arg in argv]
    assert cli_main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err and all(line.startswith("error: ") for line in err.splitlines())


def test_experiment_empty_scenario_path_exits_one(tmp_path, capsys):
    path = tmp_path / "empty.exp"
    path.write_text("[experiment]\nscenario=\nruns=1\n", encoding="utf-8")
    assert cli_main(["experiment", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: line 2: bad value for 'scenario': path is empty\n"
    )


@pytest.fixture
def bench(tmp_path):
    path = tmp_path / "tiny.bench"
    path.write_text(
        "[school]\nname = Tiny\nenrollment = 6\nper_room = 3\n"
        "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = 50.0\n"
        "variations = none, masks+vaccines\nhorizon = 5\nuct_iterations = 4\n",
        encoding="utf-8",
    )
    return str(path)


def test_benchmark_output(bench, capsys):
    assert cli_main(["benchmark", bench, "--seed", "8"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == BENCHMARK_CSV_HEADER
    assert lines[1].startswith("Tiny-MDP-1,2,no,no,6,6,")
    assert lines[2].startswith("Tiny-MDP-2,2,yes,yes,6,6,")


def test_benchmark_name_with_comma_stays_one_cell(tmp_path, capsys):
    path = tmp_path / "comma.bench"
    path.write_text(
        "[school]\nname = A,B\nenrollment = 2\nper_room = 1\n"
        "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = 50.0\nhorizon = 2\n",
        encoding="utf-8",
    )
    assert cli_main(["benchmark", str(path)]) == EXIT_OK
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(header) == len(row) == 9
    assert row[0] == "A,B-MDP-1"


def test_benchmark_zero_classrooms_exits_one(tmp_path, capsys):
    path = tmp_path / "zero.bench"
    path.write_text(
        "[school]\nname = Z\nenrollment = 1\nper_room = 3\n"
        "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = 0\n",
        encoding="utf-8",
    )
    assert cli_main(["benchmark", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: line 1: enrollment / per_room rounds to 0 classrooms\n"
    )


def test_benchmark_non_finite_positivity_exits_one(tmp_path, capsys):
    path = tmp_path / "nan.bench"
    path.write_text(
        "[school]\nname = X\nenrollment = 2\nper_room = 1\n"
        "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = nan\n",
        encoding="utf-8",
    )
    assert cli_main(["benchmark", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: line 7: ")


def test_benchmark_bad_second_school_simulates_nothing(tmp_path, capsys, monkeypatch):
    school = (
        "[school]\nname = {}\nenrollment = 6\nper_room = 3\n"
        "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = 50.0\nhorizon = 2\n"
    )
    path = tmp_path / "two.bench"
    path.write_text(school.format("A") + school.format("B") + "rounds = 0\n", encoding="utf-8")
    simulated = []
    monkeypatch.setattr(harness, "simulate_school", lambda *args: simulated.append(args))
    assert cli_main(["benchmark", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: line 17: rounds must be >= 1\n"
    assert simulated == []


def test_benchmark_deterministic(bench, capsys):
    assert cli_main(["benchmark", bench, "--seed", "8"]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli_main(["benchmark", bench, "--seed", "8"]) == EXIT_OK
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_ode_default_first_line(capsys):
    assert cli_main(["oracle", "ode", "--steps", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,S,E,I,R,D"
    assert lines[1] == "0.0,99.0,0.0,1.0,0.0,0.0"


def test_oracle_ode_conserving_step(capsys):
    code = cli_main(["oracle", "ode", "--dt", "1.0", "--steps", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    t, s, e, i, r, d = lines[2].split(",")
    assert float(t) == 1.0
    assert float(s) == pytest.approx(99.0 - 0.7722, abs=1e-12)
    assert float(e) == pytest.approx(0.7722, abs=1e-12)


def test_oracle_ode_writes_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert cli_main(["oracle", "ode", "--steps", "3", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5


def test_oracle_ode_validates_arguments(capsys):
    assert cli_main(["oracle", "ode", "--dt", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert cli_main(["oracle", "ode", "--steps", "-1"]) == EXIT_USAGE
    capsys.readouterr()
    assert (
        cli_main(
            ["oracle", "ode", "--s0", "0", "--e0", "0", "--i0", "0", "--r0", "0", "--d0", "0"]
        )
        == EXIT_USAGE
    )
    capsys.readouterr()
    assert cli_main(["oracle", "ode", "--mode", "midpoint"]) == EXIT_USAGE


def test_oracle_ode_checks_dt_without_steps(capsys):
    assert cli_main(["oracle", "ode", "--steps", "0", "--dt", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: dt must be positive\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dt", "nan", "dt must be finite"),
        ("--dt", "inf", "dt must be finite"),
        ("--beta", "nan", "beta must be finite"),
        ("--sigma", "nan", "sigma must be finite"),
        ("--gamma", "inf", "gamma must be finite"),
        ("--mu", "inf", "mu must be finite"),
    ],
)
def test_oracle_ode_rejects_non_finite_inputs(flag, value, message, capsys):
    assert cli_main(["oracle", "ode", flag, value, "--steps", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_enumerate_distribution(micro, capsys):
    assert cli_main(["oracle", "enumerate", micro, "--horizon", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["horizon"] == 1
    total = sum(payload["distribution"].values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_oracle_enumerate_defaults_to_scenario_horizon(micro, capsys):
    assert cli_main(["oracle", "enumerate", micro]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["horizon"] == 4


def test_oracle_enumerate_guard_violation(tiny, capsys):
    assert cli_main(["oracle", "enumerate", tiny]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gridepi.cli", "validate",
         str(assets.asset_path("small_space.scn"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "OK small_space" in result.stdout
