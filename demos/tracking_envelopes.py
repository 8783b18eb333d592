"""Simulate intermittent-feedback tracking and overlay the error envelopes.

Runs a modest ensemble on the bundled synthetic drifting instance, then
prints how the ensemble mean and upper quantiles sit against the
expectation and high-probability envelopes at a few checkpoints.  Pass
--out to also export the curves as CSV.
"""

import argparse
import math
import pathlib

import numpy as np

from feedopt import bounds, validation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args()

    prob, cfg = validation.synthetic_instance()
    n_steps = prob.n_steps
    print(f"instance: {prob.n_inputs} inputs, availability p={cfg.p}, T={n_steps}")

    d = validation.run_trials(prob, cfg, n_steps, args.trials, seed=args.seed)
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps, seed=args.seed)
    exp_curve = bounds.expectation_bound(inputs)

    delta = 0.1
    hp_curve = bounds.hp_bound_trajectory(inputs, delta)

    mean = d.mean(axis=0)
    se = d.std(axis=0, ddof=1) / math.sqrt(args.trials)
    print(f"\n{'t':>5} {'mean d_t':>10} {'mean+3SE':>10} {'E-envelope':>11} "
          f"{'q90':>8} {'hp(0.1)':>9}")
    for t in (1, 10, 50, 150, 300, 500):
        q90 = float(np.quantile(d[:, t], 0.9))
        print(f"{t:>5} {mean[t]:>10.4f} {mean[t] + 3 * se[t]:>10.4f} "
              f"{exp_curve.value[t]:>11.4f} {q90:>8.4f} {hp_curve.value[t]:>9.4f}")

    exceed = float(np.mean(d[:, n_steps] > hp_curve.value[n_steps]))
    print(f"\nfinal-step exceedance of the hp envelope: {exceed:.3f} "
          f"(allowed {delta})")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        exp_curve.to_csv(args.out / "envelope_expectation.csv")
        hp_curve.to_csv(args.out / "envelope_hp_delta0.1.csv")
        print(f"wrote envelope curves to {args.out}")


if __name__ == "__main__":
    main()
