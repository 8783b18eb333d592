"""Run a scaled-down version of the demand-response study and summarize it.

The full study (8640 steps, 10 experiments) lives behind the
``feedopt run-scenario`` command; this script shrinks the horizon so the
whole sweep finishes in seconds, then prints the plateau table over the
availability grid and the error jump at each preference switch.
"""

import argparse

from feedopt import scenario


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=1440)
    ap.add_argument("--experiments", type=int, default=3)
    args = ap.parse_args()

    cfg = scenario.scaled_down(
        scenario.ScenarioConfig(), horizon=args.horizon, n_experiments=args.experiments
    )
    print(f"horizon {cfg.horizon}, switches at {cfg.switch_steps}, "
          f"{cfg.n_experiments} experiments, p grid {cfg.p_values}")

    result = scenario.run_suite(cfg)

    window = min(300, cfg.horizon // 4)
    print(f"\nfinal plateau (mean error over the last {window} steps):")
    print(f"{'p':>6} {'exact':>8} {'learned':>9}")
    for p in cfg.p_values:
        row = [result.plateau(p, mode, window=window) for mode in cfg.modes]
        print(f"{p:>6g} {row[0]:>8.3f} {row[1]:>9.3f}")

    print("\njump at each preference switch (p = 1, pre-switch mean -> switch step):")
    for mode in cfg.modes:
        c = result.mean_d[(1.0, mode)]
        for s in cfg.switch_steps:
            before = c[max(0, s - 51) : s - 1].mean()
            print(f"  {mode:>6} @ t={s}: {before:.3f} -> {c[s - 1]:.3f}")


if __name__ == "__main__":
    main()
