"""The three benchmark workloads: their generated configs, CLI calls and units of work.

Shared by ``run.py`` and the fresh worker processes
(``worker.py``).  Importing this module imports nothing from ``feedopt``.
"""

from __future__ import annotations

import hashlib
import random

# Environment variables that cap the BLAS and OpenMP thread pools.  They only
# take effect if set before NumPy is first imported in a process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Seeds per run: block b of a run uses block_seeds(...)[b % N_BLOCK_SEEDS].
N_BLOCK_SEEDS = 8

HORIZON = 8640

STUDY_P = (0.4, 0.6, 0.8, 1.0)
STUDY_MODES = ("exact", "gp")
STUDY_SWITCH_STEPS = (2880, 5760)

AUDIT_STEPS = 100
AUDIT_TRIALS_MEAN = 100    # smallest count validate_expectation_bound accepts
AUDIT_TRIALS_HP = 1000     # smallest count validate_hp_bound accepts
AUDIT_CHECK_TIMES = (10, 50, 100)
AUDIT_DELTAS = (0.3, 0.1)
AUDIT_MOMENT_GRID = ((0.5, 0.9), (0.3, 0.7, 1.0), (5, 50), (1, 2, 4))  # zetas, ps, ts, ks
# The certificate audits draw from streams seeded by the validation seed alone,
# and one of them (a tight Weibull certificate tested with a 3-standard-error
# allowance) fails on roughly 0.1% of seeds.  The validation seed therefore
# stays at the program's default, and the workload seed varies the instance.
AUDIT_VALIDATION_SEED = 99

ENVELOPE_P = (0.8, 1.0)
ENVELOPE_DELTAS = (0.1, 0.01)
# The paper's study instance.  Fixed, so the envelope curves that fail the
# eta* check (see README) are computed on inputs that do not depend on the
# workload seed; the seed varies the Monte Carlo error-norm estimate.
ENVELOPE_INSTANCE_SEED = 7
ENVELOPE_ALPHA = 0.5


def _fmt(values) -> str:
    return ", ".join(format(v, "g") for v in values)


def block_seeds(workload: str, seed: int) -> list[int]:
    """The fixed list of block seeds a run with workload seed ``seed`` uses."""
    out = []
    for i in range(N_BLOCK_SEEDS):
        digest = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "little"))
    return out


def study_ini(seed: int) -> str:
    return (
        "[costs]\n"
        f"switch_steps = {_fmt(STUDY_SWITCH_STEPS)}\n"
        "[algorithm]\n"
        f"p_values = {_fmt(STUDY_P)}\n"
        "[suite]\n"
        f"horizon = {HORIZON}\n"
        "n_experiments = 1\n"
        f"modes = {', '.join(STUDY_MODES)}\n"
        f"seed = {seed}\n"
    )


def audit_ini(seed: int) -> str:
    rng = random.Random(seed)
    drift = round(rng.uniform(0.3, 0.9), 4)
    error_scale = round(rng.uniform(0.05, 0.15), 4)
    zetas, ps, ts, ks = AUDIT_MOMENT_GRID
    return (
        "[validation]\n"
        "instance = synthetic\n"
        "n_inputs = 6\n"
        f"n_steps = {AUDIT_STEPS}\n"
        "p = 0.7\n"
        "alpha = auto\n"
        f"error_scale = {error_scale}\n"
        f"drift = {drift}\n"
        f"n_trials_mean = {AUDIT_TRIALS_MEAN}\n"
        f"n_trials_hp = {AUDIT_TRIALS_HP}\n"
        f"deltas = {_fmt(AUDIT_DELTAS)}\n"
        f"check_times = {_fmt(AUDIT_CHECK_TIMES)}\n"
        f"moment_zetas = {_fmt(zetas)}\n"
        f"moment_ps = {_fmt(ps)}\n"
        f"moment_ts = {_fmt(ts)}\n"
        f"moment_ks = {_fmt(ks)}\n"
        "moment_samples = 100000\n"
        "sampler_samples = 1000000\n"
        "closure_dim = 4\n"
        f"seed = {AUDIT_VALIDATION_SEED}\n"
    )


def envelopes_ini(seed: int, n_steps: int = HORIZON) -> str:
    return (
        "[algorithm]\n"
        f"alpha = {ENVELOPE_ALPHA}\n"
        f"p_values = {_fmt(ENVELOPE_P)}\n"
        "[suite]\n"
        f"horizon = {HORIZON}\n"
        f"seed = {ENVELOPE_INSTANCE_SEED}\n"
        "[validation]\n"
        "instance = scenario\n"
        f"n_steps = {n_steps}\n"
        "alpha = auto\n"
        f"deltas = {_fmt(ENVELOPE_DELTAS)}\n"
        f"seed = {seed}\n"
    )


def envelope_instance_ini() -> str:
    """A one-run study on the envelopes' instance; its ``scenario_instance.json``
    gives the checks the plant, costs and boxes."""
    return (
        "[algorithm]\n"
        f"alpha = {ENVELOPE_ALPHA}\n"
        "p_values = 1\n"
        "[suite]\n"
        f"horizon = {HORIZON}\n"
        "n_experiments = 1\n"
        "modes = exact\n"
        f"seed = {ENVELOPE_INSTANCE_SEED}\n"
    )


# name -> (CLI subcommand, config generator, units of work per block, unit of work)
WORKLOADS = {
    "study": (
        "run-scenario", study_ini,
        len(STUDY_P) * len(STUDY_MODES) * HORIZON, "simulated update step",
    ),
    "audit": (
        "validate-bounds", audit_ini,
        (AUDIT_TRIALS_MEAN + AUDIT_TRIALS_HP) * AUDIT_STEPS, "simulated trial-step",
    ),
    "envelopes": (
        "bound-curve", envelopes_ini,
        len(ENVELOPE_P) * (2 + len(ENVELOPE_DELTAS)) * (HORIZON + 1), "envelope point written",
    ),
}


def ops_per_block(workload: str) -> int:
    """Checked output files per block: trajectories and the summary for
    ``study``, the report for ``audit``, the curves for ``envelopes``."""
    if workload == "study":
        return len(STUDY_P) * len(STUDY_MODES) + 1
    if workload == "audit":
        return 1
    return len(ENVELOPE_P) * (2 + len(ENVELOPE_DELTAS))


def setup_ini(workload: str, seed: int) -> str:
    """Config of the set-up call: ``bound-curve`` on the instance the workload's
    config with block seed ``seed`` builds, with the shortest envelope the
    instance allows.  So the call loads the config, builds the instance, fills
    its optimum oracle and writes next to nothing.  The synthetic instance's
    horizon is its ``n_steps``, which therefore stays as it is."""
    if workload == "study":
        return study_ini(seed) + "[validation]\ninstance = scenario\nn_steps = 1\n"
    if workload == "audit":
        return audit_ini(seed)
    return envelopes_ini(seed, n_steps=1)
