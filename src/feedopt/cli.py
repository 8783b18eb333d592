"""Command line entry points.

Four subcommands, all driven by one INI config file:

* ``run-scenario``    -- full demand-response suite; writes per-run
  trajectory CSVs, ``suite_summary.csv`` and an instance dump.
* ``validate-bounds`` -- Monte Carlo dominance checks of the envelopes,
  the moment identity and the noise certificates; exit code 2 when any
  check fails.
* ``bound-curve``     -- exports the expectation, asymptotic and
  high-probability envelopes as CSV curves.
* ``gp-demo``         -- fits the batched cost learner (one GP per
  coordinate) on the scenario's initial costs and reports gradient accuracy
  on a grid (``--config`` optional, built-in defaults apply).

Exit codes: 0 success, 1 usage or configuration problem, 2 a validation
check failed, 3 unexpected runtime or numerical failure.  All outputs are
deterministic in (config, seed) and independent of ``--jobs``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import bounds, scenario, validation
from ._table import write_csv
from .config import (
    ConfigError,
    ValidationSettings,
    default_ini,
    dump_config,
    load_config,
    with_seed,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for failed validation checks; surface usage problems as exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="feedopt",
        description="online feedback optimization: simulate, validate, export envelopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, do_help in (
        ("run-scenario", "run the full demand-response suite"),
        ("validate-bounds", "Monte Carlo checks of envelopes and certificates"),
        ("bound-curve", "export envelope curves as CSV"),
        ("gp-demo", "fit the cost learners once and report gradient accuracy"),
        ("print-config", "print the built-in default configuration"),
    ):
        cmd = sub.add_parser(name, help=do_help)
        if name == "print-config":
            continue
        cmd.add_argument(
            "--config",
            required=name != "gp-demo",
            default=None,
            help="INI configuration file" + (" (defaults apply)" if name == "gp-demo" else ""),
        )
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seeds")
        cmd.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
        cmd.add_argument(
            "--overwrite", action="store_true",
            help="allow replacing files that already exist in the output directory",
        )
    return parser


def _prepare_out(out_dir: str, filenames, overwrite: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if overwrite:
        return
    clashes = [f for f in filenames if os.path.exists(os.path.join(out_dir, f))]
    if clashes:
        raise UsageError(
            "refusing to overwrite existing files (pass --overwrite): "
            + ", ".join(sorted(clashes))
        )


def _echo_config(out_dir: str, scen, val) -> None:
    with open(os.path.join(out_dir, "config_echo.ini"), "w", encoding="utf-8") as fh:
        fh.write(dump_config(scen, val))


def _traj_name(p: float, mode: str, exp_index: int) -> str:
    return f"traj_p{format(p, 'g')}_{mode}_e{exp_index}.csv"


@contextlib.contextmanager
def _as_config_error():
    """Report a ``ValueError`` raised inside as a configuration problem (exit 1)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_seed(args, seed, key):
    """Raise ``ConfigError`` unless ``seed``, read from the config key ``key``
    or from ``--seed`` when that is given, is a nonnegative integer."""
    if seed < 0:
        raise ConfigError(f"{key if args.seed is None else '--seed'} must be a nonnegative integer, got {seed}")


def _validation_setup(args):
    """Configs, instance, algorithm config and step count for validate-bounds /
    bound-curve.  A negative seed they read, or a ``ValueError`` from the
    instance build or from ``0 < alpha < 2/L``, is a config error."""
    scen, val = load_config(args.config)
    scen, val = with_seed(scen, val, args.seed)
    _check_seed(args, val.seed, "[validation] seed")
    if val.instance == "scenario":
        _check_seed(args, scen.seed, "[suite] seed")
    with _as_config_error():
        if val.instance == "synthetic":
            prob, acfg = validation.synthetic_instance(
                n_inputs=val.n_inputs,
                n_steps=val.n_steps,
                drift_amplitude=val.drift,
                error_scale=val.error_scale,
                p=val.p,
                seed=val.seed,
            )
        else:
            prob, acfg = scenario.build_scenario(scen), scenario.algo_config(scen, val.p)
        n_steps = min(val.n_steps, prob.n_steps)  # a scenario's horizon caps the step count
        alpha = acfg.alpha if val.alpha is None else val.alpha
        prob.contraction_rates(alpha, n_steps)  # before the algorithm config takes alpha
    return scen, val, prob, replace(acfg, alpha=alpha), n_steps


def _json_value(value) -> str:
    """``json.dumps`` of ``value``, an array as its nested list.  A 2-D float64
    array is split into runs of bitwise-equal rows (compared as ``uint64``, so
    ``-0.0`` and ``0.0`` never merge): each repeated row is formatted once and
    its text repeated, each stretch of distinct rows with one ``json.dumps``."""
    if not isinstance(value, np.ndarray):
        return json.dumps(value)
    if value.ndim != 2 or value.dtype != np.float64:
        return json.dumps(value.tolist())
    bits = value.view(np.uint64)
    edges = [0, *(np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1).tolist(), len(value)]
    parts, lo = [], 0  # rows lo .. of the current stretch of distinct rows await their text
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start > 1:
            if lo < start:
                parts.append(json.dumps(value[lo:start].tolist())[1:-1])
            parts.append(", ".join([json.dumps(value[start].tolist())] * (stop - start)))
            lo = stop
    if lo < len(value):
        parts.append(json.dumps(value[lo:].tolist())[1:-1])
    return "[" + ", ".join(parts) + "]"


def _dump_instance(path: str, scen, prob) -> None:
    """The bytes of ``json.dump`` of ``{"seed", "horizon", "problem"}`` and a newline,
    the problem being the items of ``prob.iter_fields()`` with arrays as nested
    lists, written one field at a time.  ``json.dump`` always takes the
    pure-Python encoder; :func:`_json_value` takes the C one, and formats each
    run of repeated rows (the piecewise-constant cost schedules) once."""
    head = json.dumps({"seed": scen.seed, "horizon": scen.horizon})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "problem": {')
        for i, (name, value) in enumerate(prob.iter_fields()):
            fh.write((", " if i else "") + json.dumps(name) + ": " + _json_value(value))
        fh.write("}}\n")


# -- subcommands ----------------------------------------------------------------


def _cmd_run_scenario(args) -> int:
    scen_file, val = load_config(args.config)
    scen, _ = with_seed(scen_file, val, args.seed)
    _check_seed(args, scen.seed, "[suite] seed")
    names = ["config_echo.ini", "scenario_instance.json", "suite_summary.csv"]
    names += [
        _traj_name(p, mode, e)
        for p in scen.p_values
        for mode in scen.modes
        for e in range(scen.n_experiments)
    ]
    with _as_config_error():  # the instance and 0 < alpha < 2/L, before any output
        prob = scenario.build_scenario(scen)
        prob.contraction_rates(scen.alpha, scen.horizon)
    _prepare_out(args.out, names, args.overwrite)
    # the echo reflects the file as parsed; a --seed override is runtime state
    _echo_config(args.out, scen_file, val)

    def sink(p, mode, e, traj):
        traj.to_csv(os.path.join(args.out, _traj_name(p, mode, e)))

    result = scenario.run_suite(scen, prob=prob, n_jobs=max(1, args.jobs), trajectory_sink=sink)
    result.to_csv(os.path.join(args.out, "suite_summary.csv"))
    _dump_instance(os.path.join(args.out, "scenario_instance.json"), scen, prob)
    for p in scen.p_values:
        for mode in scen.modes:
            print(
                f"p={format(p, 'g')} mode={mode}: "
                f"final-500-step mean error {result.plateau(p, mode):.6g}"
            )
    print(f"wrote {len(names)} files to {args.out}")
    return 0


def _cmd_validate_bounds(args) -> int:
    scen, val, prob, acfg, n_steps = _validation_setup(args)
    with _as_config_error():  # every count, check time and moment grid value, before the ensemble
        validation.check_settings(val, n_steps)
    _prepare_out(args.out, ["config_echo.ini", "validation_report.csv"], args.overwrite)
    _echo_config(args.out, scen, val)
    # one Monte Carlo E||e|| estimate: the HP envelope reads only nu_e
    inputs = bounds.bound_inputs_from_problem(prob, acfg, n_steps, seed=val.seed)
    # one ensemble: trial i is the same row in both checks, whichever reads more rows
    d = validation.run_trials(
        prob, acfg, n_steps, max(val.n_trials_mean, val.n_trials_hp), val.seed, n_jobs=max(1, args.jobs)
    )
    report = validation.validate_expectation_bound(d[: val.n_trials_mean], inputs)
    report.extend(validation.validate_hp_bound(d[: val.n_trials_hp], inputs, val.deltas, val.check_times))
    del d  # the certificate checks below hold the peak memory
    report.extend(
        validation.validate_moment_identity(
            val.moment_zetas, val.moment_ps, val.moment_ts, val.moment_ks,
            n_samples=val.moment_samples, seed=val.seed + 2,
        )
    )
    report.extend(
        validation.validate_sampler_declarations(
            n_samples=val.sampler_samples, seed=val.seed + 3
        )
    )
    report.extend(
        validation.validate_closure_ops(
            dim=val.closure_dim, n_samples=val.sampler_samples, seed=val.seed + 4
        )
    )
    report.to_csv(os.path.join(args.out, "validation_report.csv"))
    print(report.summary())
    return 0 if report.passed else 2


def _cmd_bound_curve(args) -> int:
    scen, val, prob, acfg, n_steps = _validation_setup(args)
    ps = scen.p_values if val.instance == "scenario" else (val.p,)
    names = ["config_echo.ini"]
    for p in ps:
        ptag = format(p, "g")
        names += [f"bound_expectation_p{ptag}.csv", f"bound_asymptotic_p{ptag}.csv"]
        names += [
            f"bound_hp_p{ptag}_delta{format(d, 'g')}.csv" for d in val.deltas
        ]
    _prepare_out(args.out, names, args.overwrite)
    _echo_config(args.out, scen, val)
    # p enters only the inputs' own p field, so the Monte Carlo error estimate runs once
    base = bounds.bound_inputs_from_problem(prob, acfg, n_steps, seed=val.seed)
    for p in ps:
        ptag = format(p, "g")
        inputs = replace(base, p=p)
        bounds.expectation_bound(inputs).to_csv(
            os.path.join(args.out, f"bound_expectation_p{ptag}.csv")
        )
        bounds.expectation_bound_asymptotic(inputs).to_csv(
            os.path.join(args.out, f"bound_asymptotic_p{ptag}.csv")
        )
        for d in val.deltas:
            bounds.hp_bound_trajectory(inputs, d).to_csv(
                os.path.join(args.out, f"bound_hp_p{ptag}_delta{format(d, 'g')}.csv")
            )
    print(f"wrote {len(names)} files to {args.out}")
    return 0


def _cmd_gp_demo(args) -> int:
    if args.config is None:
        scen, val = scenario.ScenarioConfig(), ValidationSettings()
    else:
        scen, val = load_config(args.config)
    scen, val = with_seed(scen, val, args.seed)
    _check_seed(args, scen.seed, "[suite] seed")
    with _as_config_error():  # the instance, before any output
        prob = scenario.build_scenario(scen)
    _prepare_out(args.out, ["config_echo.ini", "gp_demo.csv"], args.overwrite)
    _echo_config(args.out, scen, val)
    rng = np.random.default_rng(np.random.SeedSequence(scen.seed, spawn_key=(2,)))
    learner = scenario.seed_cost_learners(prob, scen, [rng])[0]  # the step-0 profile
    n_grid = 101
    lo, up = prob.boxes.lower[0], prob.boxes.upper[0]
    grid = np.linspace(lo, up, n_grid, axis=-1)  # one row of queries per coordinate
    h = ((up - lo) * 1e-6)[:, None]
    queries = grid[None]  # the learner's batch is (1, m)
    mean = learner.posterior_mean(queries)[0]
    var = learner.posterior_var(queries)[0]
    grad = learner.mean_gradient(queries)[0]
    fd = (learner.posterior_mean(queries + h) - learner.posterior_mean(queries - h))[0] / (2.0 * h)
    coords = np.arange(prob.n_inputs)[:, None]
    true_u = scenario.coordinate_cost(prob, coords, grid, 0)
    true_du = prob.u_gradient(grid.T, 0).T
    write_csv(
        os.path.join(args.out, "gp_demo.csv"),
        ["coord", "x", "true_u", "true_du", "gp_mean", "gp_var", "gp_grad"],
        [np.repeat(coords[:, 0], n_grid)]
        + [v.ravel() for v in (grid, true_u, true_du, mean, var, grad)],
    )
    for m in range(prob.n_inputs):
        err = float(np.max(np.abs(grad[m] - true_du[m])))
        print(
            f"coordinate {m}: {learner.n_obs} observations, "
            f"max |gp grad - true grad| over the box = {err:.4g}"
        )
    worst_fd = float(np.max(np.abs(grad - fd)))
    print(f"analytic gradient vs central difference: max deviation {worst_fd:.3g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "print-config":
            print(default_ini(), end="")
            return 0
        if args.command == "run-scenario":
            return _cmd_run_scenario(args)
        if args.command == "validate-bounds":
            return _cmd_validate_bounds(args)
        if args.command == "bound-curve":
            return _cmd_bound_curve(args)
        if args.command == "gp-demo":
            return _cmd_gp_demo(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
