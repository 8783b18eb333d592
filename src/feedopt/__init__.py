"""Online feedback-based optimization under intermittent, inexact gradients.

The package simulates projected gradient tracking of a time-varying
constrained optimum when measurements of the plant output arrive only
intermittently (Bernoulli availability) and gradient information is
corrupted by heavy-tailed noise.  Alongside the simulator it ships the
matching analysis tools:

* ``subweibull``  -- tail-class certificates for the noise and the algebra
  that composes them,
* ``problem``     -- time-varying quadratic tracking problems over a linear
  plant, with exact curvature constants, the contraction rates that hold
  the step-size condition, and an optimizer oracle,
* ``algorithm``   -- the online update itself: one kernel, ``simulate``,
  advances a batch of runs, and a lone run is its batch of one,
* ``bounds``      -- evaluators for the expectation and high-probability
  tracking-error envelopes implied by the noise certificates,
* ``gplearn``     -- Gaussian-process regression used to learn unknown cost
  components from sparse functional evaluations while the loop is running:
  one posterior object holds a batch of scalar GPs (one per run and
  coordinate) and returns their mean-gradients in one call,
* ``scenario``    -- a demand-response study with switching preferences,
* ``validation``  -- Monte Carlo checks that the envelopes actually dominate
  simulated ensembles,
* ``cli``         -- command line entry points over INI configs.

Quick start::

    import numpy as np
    from feedopt import algorithm, problem, subweibull

    prob = problem.TimeVaryingProblem(...)     # or scenario.build_scenario(cfg)
    cfg = algorithm.AlgoConfig(alpha=0.1, p=0.7,
                               eps_sampler=subweibull.gaussian(0.05),
                               xi_sampler=subweibull.zero(),
                               meas_noise=subweibull.zero())
    traj = algorithm.simulate(prob, cfg, None, [np.random.default_rng(3)], n_steps=500)[0]
"""

from . import algorithm, bounds, config, gplearn, problem, scenario, subweibull, validation

__version__ = "0.1.0"

__all__ = [
    "algorithm",
    "bounds",
    "config",
    "gplearn",
    "problem",
    "scenario",
    "subweibull",
    "validation",
    "__version__",
]
