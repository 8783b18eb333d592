"""Watch a learned cost model sharpen as evaluations accumulate.

Fits one batched learner, a squared-exponential GP for each input
coordinate, to noisy point evaluations of a hidden separable cost, then
reports how the gradient estimate at a probe point improves with the number
of observations, and checks the closed-form gradient against central
differences.
"""

import numpy as np

from feedopt import gplearn

SIGMA_OBS = 0.1
HIDDEN = (
    lambda x: 0.8 * x**2 - 1.2 * x,
    lambda x: np.sin(x) + 0.3 * x**2,
    lambda x: 0.5 * (x - 1.0) ** 2,
)
HIDDEN_GRAD = (
    lambda x: 1.6 * x - 1.2,
    lambda x: np.cos(x) + 0.6 * x,
    lambda x: x - 1.0,
)


def main() -> None:
    rng = np.random.default_rng(12)
    kernel = gplearn.SquaredExponential(sigma_f2=25.0, ell=1.0)
    empty = np.empty((len(HIDDEN), 0))  # a batch of one GP per coordinate, no data yet
    learner = gplearn.GPPosterior(kernel, SIGMA_OBS**2, empty, empty)
    probe = np.array([0.4, -0.8, 1.7])
    truth = np.array([g(p) for g, p in zip(HIDDEN_GRAD, probe)])

    print(f"{'n_obs':>6} {'|grad error|':>13} {'mean post. var':>15}")
    for n_obs in range(0, 49):
        if n_obs > 0:
            sites, noisy = np.empty(len(HIDDEN)), np.empty(len(HIDDEN))
            for m, u in enumerate(HIDDEN):
                sites[m] = rng.uniform(-3.0, 3.0)
                noisy[m] = u(sites[m]) + SIGMA_OBS * rng.standard_normal()
            learner = learner.add_observation(sites, noisy)
        if n_obs % 8 == 0:
            err = float(np.linalg.norm(learner.mean_gradient(probe) - truth))
            pvar = float(np.mean(learner.posterior_var(probe)))
            print(f"{n_obs:>6} {err:>13.4f} {pvar:>15.4f}")

    # closed form vs central differences at the probe
    h = 1e-5
    fd = (learner.posterior_mean(probe + h) - learner.posterior_mean(probe - h)) / (2 * h)
    dev = float(np.max(np.abs(learner.mean_gradient(probe) - fd)))
    print(f"\nclosed-form gradient vs central differences: max deviation {dev:.2e}")


if __name__ == "__main__":
    main()
