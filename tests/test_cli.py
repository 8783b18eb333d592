"""Command line flows: files written, exit codes, cross-worker determinism."""

import json
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from feedopt import cli, config, problem, scenario
from tests_common import from_dict

ROOT = Path(__file__).resolve().parents[1]

TINY_SCENARIO = """
[costs]
switch_steps = 20, 40

[algorithm]
p_values = 0.5, 1.0

[gp]
eval_period = 5

[suite]
horizon = 60
n_experiments = 2
"""

TINY_VALIDATION = """
[validation]
n_steps = 50
n_trials_mean = 100
n_trials_hp = 1000
deltas = 0.3, 0.1
check_times = 10, 50
moment_zetas = 0.5
moment_ps = 1.0
moment_ts = 5
moment_ks = 1, 2
moment_samples = 100000
sampler_samples = 100000
closure_dim = 3
"""


def ini(tmp_path, text, name="study.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_outputs(out_dir):
    return {
        f.name: f.read_bytes()
        for f in sorted(out_dir.iterdir())
        if f.suffix in (".csv", ".json")
    }


def src_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_print_config(capsys):
    assert cli.main(["print-config"]) == 0
    out = capsys.readouterr().out
    assert out == config.default_ini()
    # the bundled config is documented as exactly this output
    assert (ROOT / "configs" / "default.ini").read_text(encoding="utf-8") == out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "feedopt.cli", "print-config"],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == config.default_ini()


_RUN_EXPERIMENTS = scenario.run_experiments


def _recording_run_experiments(log_dir, prob, cfg, runs):
    """``run_experiments`` that first leaves its chunk of runs in ``log_dir``."""
    (log_dir / ("_".join(map(str, runs[0])) + ".json")).write_text(json.dumps(runs))
    return _RUN_EXPERIMENTS(prob, cfg, runs)


def test_run_scenario_outputs_and_determinism(tmp_path, capsys, monkeypatch):
    cfg = ini(tmp_path, TINY_SCENARIO)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    log_dir = tmp_path / "chunks"
    log_dir.mkdir()
    monkeypatch.setattr(scenario, "run_experiments", partial(_recording_run_experiments, log_dir))
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out3), "--jobs", "3"]) == 0
    chunks = [[tuple(run) for run in json.loads(f.read_text())] for f in log_dir.iterdir()]
    assert len(chunks) == 3 and sum(len(c) for c in chunks) == 8
    # a chunk boundary falls between the exact and the gp runs of an
    # experiment, and one chunk mixes both modes
    chunk_of = {run: i for i, chunk in enumerate(chunks) for run in chunk}
    assert chunk_of[("exact", 0.5, 0)] != chunk_of[("gp", 0.5, 0)]
    assert any({m for m, _, _ in chunk} == {"exact", "gp"} for chunk in chunks)
    stdout = capsys.readouterr().out
    assert "final-500-step mean error" in stdout
    files1 = read_outputs(out1)
    # byte identical at any parallelism
    assert files1 == read_outputs(out2) == read_outputs(out3)
    expected = {"suite_summary.csv", "scenario_instance.json"}
    expected |= {
        f"traj_p{p}_{m}_e{e}.csv"
        for p in ("0.5", "1")
        for m in ("exact", "gp")
        for e in (0, 1)
    }
    assert set(files1) == expected
    payload = json.loads(files1["scenario_instance.json"])
    assert payload["horizon"] == 60
    assert (out1 / "config_echo.ini").exists()


def test_instance_dump_round_trip(tmp_path):
    # the dumped instance rebuilds the run's problem exactly
    cfg = ini(tmp_path, TINY_SCENARIO)
    out = tmp_path / "out"
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "scenario_instance.json").read_text())
    assert {"G", "H", "lower", "upper", "beta", "y_ref", "a", "b", "c", "w"} == set(
        payload["problem"]
    )
    clone = from_dict(payload["problem"])
    scen, _ = config.load_config(cfg)
    prob = scenario.build_scenario(scen)
    np.testing.assert_array_equal(clone.optimal_points(), prob.optimal_points())
    # the bytes are those of one json.dumps of the whole payload
    expected = json.dumps({"seed": scen.seed, "horizon": scen.horizon, "problem": dict(prob.iter_dict())})
    assert (out / "scenario_instance.json").read_bytes() == (expected + "\n").encode()


def test_run_scenario_refuses_to_clobber(tmp_path, capsys):
    cfg = ini(tmp_path, TINY_SCENARIO)
    out = tmp_path / "out"
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert cli.main(
        ["run-scenario", "--config", cfg, "--out", str(out), "--overwrite"]
    ) == 0


def test_seed_override_changes_results(tmp_path):
    cfg = ini(tmp_path, TINY_SCENARIO)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(
        ["run-scenario", "--config", cfg, "--out", str(out2), "--seed", "8"]
    ) == 0
    a = (out1 / "suite_summary.csv").read_bytes()
    b = (out2 / "suite_summary.csv").read_bytes()
    assert a != b


def test_validate_bounds_small_run(tmp_path, capsys):
    cfg = ini(tmp_path, TINY_VALIDATION)
    out = tmp_path / "val"
    code = cli.main(
        ["validate-bounds", "--config", cfg, "--out", str(out), "--jobs", "2"]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in stdout
    report = (out / "validation_report.csv").read_text().splitlines()
    assert report[0].startswith("name,passed")
    assert all(line.split(",")[1] == "1" for line in report[1:])


def test_validate_bounds_report_is_the_same_at_any_jobs(tmp_path):
    cfg = ini(tmp_path, TINY_VALIDATION)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"val{jobs}"
        assert cli.main(
            ["validate-bounds", "--config", cfg, "--out", str(out), "--jobs", jobs]
        ) == 0
        reports.append((out / "validation_report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_bound_curve_exports(tmp_path):
    cfg = ini(tmp_path, "[validation]\nn_steps = 40\ncheck_times = 10, 40\n")
    out = tmp_path / "curves"
    assert cli.main(["bound-curve", "--config", cfg, "--out", str(out)]) == 0
    names = {f.name for f in out.iterdir()}
    assert names == {
        "config_echo.ini",
        "bound_expectation_p0.7.csv",
        "bound_asymptotic_p0.7.csv",
        "bound_hp_p0.7_delta0.3.csv",
        "bound_hp_p0.7_delta0.1.csv",
    }
    header = (out / "bound_expectation_p0.7.csv").read_text().splitlines()[0]
    assert header == "t,bound,transient_term,path_term,error_term"


def test_bound_curve_on_one_step_keeps_the_default_check_times(tmp_path):
    # the shape of the benchmark's set-up call: the default check times reach past
    # n_steps = 1, and bound-curve never reads them
    for name, text in (
        ("synthetic", "[validation]\nn_steps = 1\n"),
        ("scenario", TINY_SCENARIO + "\n[validation]\ninstance = scenario\nn_steps = 1\n"),
    ):
        cfg = ini(tmp_path, text, name=f"{name}.ini")
        out = tmp_path / name
        assert cli.main(["bound-curve", "--config", cfg, "--out", str(out)]) == 0
        p = "0.7" if name == "synthetic" else "0.5"
        rows = (out / f"bound_hp_p{p}_delta0.1.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["t", "0", "1"]


def test_bad_validation_values_exit_one_before_any_work(tmp_path, capsys):
    # each fails where the config is loaded or, for what needs the step count,
    # before validate-bounds simulates; no file is written and nothing warns
    cases = (
        ("bound-curve", "deltas = 0.3, 1.5", "error: delta must lie in (0, 1), got 1.5"),
        ("bound-curve", "n_steps = 0", "error: validation n_steps must be at least 1, got 0"),
        ("validate-bounds", "n_steps = 0", "error: validation n_steps must be at least 1, got 0"),
        (
            "validate-bounds", "n_steps = 50\ncheck_times = 10, 80",
            "error: check times must lie in [1, 50], got [10, 80]",
        ),
        ("validate-bounds", "n_trials_mean = 50", "error: expectation check needs at least 100 trials"),
        ("validate-bounds", "n_trials_hp = 10", "error: high-probability check needs at least 1000 trials"),
        ("validate-bounds", "moment_zetas = 0.5, 1.5", "error: contraction factors must lie in (0, 1), got 1.5"),
        ("validate-bounds", "moment_samples = 10", "error: moment-identity check needs at least 1e5 samples"),
        ("validate-bounds", "sampler_samples = 10", "error: sampler check needs at least 1e5 samples"),
    )
    for command, lines, message in cases:
        cfg = ini(tmp_path, f"[validation]\n{lines}\n", name="bad.ini")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert message in err, (lines, err)
        assert not caught and "Warning" not in err
        assert not (tmp_path / "b").exists()


def test_gp_demo(tmp_path, capsys):
    cfg = ini(tmp_path, TINY_SCENARIO)
    out = tmp_path / "demo"
    assert cli.main(["gp-demo", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "analytic gradient vs central difference" in stdout
    lines = (out / "gp_demo.csv").read_text().splitlines()
    assert lines[0] == "coord,x,true_u,true_du,gp_mean,gp_var,gp_grad"
    assert len(lines) == 1 + 6 * 101


def test_gp_demo_runs_on_builtin_defaults(tmp_path, capsys):
    out = tmp_path / "demo"
    assert cli.main(["gp-demo", "--out", str(out)]) == 0
    assert "analytic gradient vs central difference" in capsys.readouterr().out
    assert (out / "gp_demo.csv").exists()


def test_empty_lists_exit_one(tmp_path, capsys):
    for key in ("[algorithm]\np_values =\n", "[suite]\nmodes =\n"):
        cfg = ini(tmp_path, key, name="empty.ini")
        assert cli.main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert "at least one availability probability" in err and "at least one mode" in err


def test_repeated_entries_exit_one(tmp_path, capsys):
    for old, new in (
        ("p_values = 0.5, 1.0", "p_values = 0.5, 0.5"),
        ("n_experiments = 2", "n_experiments = 2\nmodes = gp, exact, gp"),
    ):
        cfg = ini(tmp_path, TINY_SCENARIO.replace(old, new), name="repeated.ini")
        assert cli.main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "p_values repeats an entry" in err and "modes repeats an entry" in err
    assert not (tmp_path / "r").exists()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import, and the package needs none of it
    proc = subprocess.run(
        [sys.executable, "-c", "import feedopt.cli, sys; assert 'scipy.stats' not in sys.modules"],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_bad_tail_exponent_exits_one(tmp_path, capsys):
    # the sampler's own rule rejects it when the config is loaded, before any output
    # the two keys end the [algorithm] section
    cfg = ini(tmp_path, TINY_SCENARIO.replace("[gp]", "xi_kind = weibull-tail\nxi_theta = -1\n\n[gp]"))
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "u")]) == 1
    assert "error: xi noise: tail exponent must be positive" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()


def test_bad_gp_values_exit_one(tmp_path, capsys):
    # explicit GP hyperparameters meet the learner's own rules when the config is loaded
    for key, value, message in (
        ("sigma_f2", "-1", "signal variance must be positive"),
        ("ell", "0", "length scale must be positive"),
        ("noise_var", "-1", "observation noise variance must be nonnegative"),
    ):
        cfg = ini(tmp_path, TINY_SCENARIO.replace("eval_period = 5", f"eval_period = 5\n{key} = {value}"))
        assert cli.main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "u")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "u").exists()


def test_config_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.ini")
    assert cli.main(["run-scenario", "--config", missing, "--out", str(tmp_path / "x")]) == 1
    bad = ini(tmp_path, "[costs]\nbeta = -1\n", name="bad.ini")
    assert cli.main(["run-scenario", "--config", bad, "--out", str(tmp_path / "y")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_bad_flags_exit_one_not_two(tmp_path, capsys):
    # argparse normally exits 2 on usage problems, which is reserved here
    # for failed validation checks
    assert cli.main(["run-scenario", "--out", str(tmp_path / "x")]) == 1
    assert cli.main(["bound-curve", "--config", "x.ini"]) == 1
    assert cli.main(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "usage" in err


def test_uncontractive_step_size_is_a_config_error_for_curves(tmp_path, capsys):
    cfg = ini(tmp_path, "[validation]\nalpha = 50\n")
    assert cli.main(["bound-curve", "--config", cfg, "--out", str(tmp_path / "c")]) == 1
    assert "contraction condition" in capsys.readouterr().err


def test_runtime_failures_exit_three(tmp_path, capsys):
    # run-scenario defers the step-size check to the simulation itself
    cfg = ini(
        tmp_path,
        TINY_SCENARIO.replace("p_values = 0.5, 1.0", "p_values = 0.5, 1.0\nalpha = 50"),
    )
    assert cli.main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "z")]) == 3
    assert "runtime failure" in capsys.readouterr().err


def test_oracle_non_convergence_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(problem, "_ORACLE_MAX_SWEEPS", 1)
    cfg = ini(tmp_path, "[validation]\nn_steps = 40\ncheck_times = 10, 40\n")
    assert cli.main(["bound-curve", "--config", cfg, "--out", str(tmp_path / "c")]) == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "optimizer oracle did not reach residual" in err
