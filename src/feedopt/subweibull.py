"""Sub-Weibull tail certificates and reference noise samplers.

A pair ``(theta, nu)`` certifies that a real random variable X satisfies
the moment-norm bound

    E[|X|^k]^(1/k) <= nu * k**theta        for every k >= 1.

``theta = 1/2`` is the sub-Gaussian class, ``theta = 1`` the
sub-exponential class; larger ``theta`` admits heavier tails.  Any bounded
variable fits the ``theta = 1/2`` class with ``nu`` equal to its sup norm.

Certificates compose: they are closed under scaling, shifting, addition
(even of dependent variables) and multiplication of independent variables,
and each certificate converts into an explicit high-probability level or a
tail-probability bound.  The bound evaluators in :mod:`feedopt.bounds`
consume exactly these compositions.  Whether a concrete sampler honours
its declared certificate is checked empirically in
:mod:`feedopt.validation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubWeibull",
    "ErrorSampler",
    "sampler",
    "gaussian",
    "bounded_uniform",
    "weibull_tail",
    "zero",
    "vector_norm_class",
    "error_vectors",
]


@dataclass(frozen=True)
class SubWeibull:
    """Tail certificate: ``||X||_k <= nu * k**theta`` for all ``k >= 1``."""

    theta: float
    nu: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError(f"tail exponent must be positive, got theta={self.theta}")
        if not self.nu >= 0:
            raise ValueError(f"moment scale must be nonnegative, got nu={self.nu}")

    def moment_bound(self, k):
        """Certified upper bound on the moment norm ``||X||_k``, ``k >= 1``."""
        k = np.asarray(k, dtype=float)
        if not np.all(k >= 1):
            raise ValueError(f"moment order must satisfy k >= 1, got {k}")
        out = self.nu * k**self.theta
        return float(out) if out.ndim == 0 else out

    def scale(self, a: float) -> "SubWeibull":
        """Certificate of ``a * X``."""
        return SubWeibull(self.theta, abs(a) * self.nu)

    def shift(self, a: float) -> "SubWeibull":
        """Certificate of ``a + X``."""
        return SubWeibull(self.theta, abs(a) + self.nu)

    def add(self, other: "SubWeibull") -> "SubWeibull":
        """Certificate of ``X + Y``.

        Valid for arbitrarily dependent summands (triangle inequality on
        moment norms), hence usable for error terms that share randomness.
        """
        return SubWeibull(max(self.theta, other.theta), self.nu + other.nu)

    def mul(self, other: "SubWeibull", *, independent: bool = False) -> "SubWeibull":
        """Certificate of ``X * Y`` for independent factors.

        The product rule needs independence; the caller must assert it
        explicitly with ``independent=True`` or the call is rejected.
        """
        if not independent:
            raise ValueError(
                "the product certificate is only valid for independent factors; "
                "pass independent=True to assert independence"
            )
        return SubWeibull(self.theta + other.theta, self.nu * other.nu)

    def hp_bound(self, delta: float) -> float:
        """Level that ``|X|`` exceeds with probability at most ``delta``:

            nu * log(2/delta)**theta * (2e/theta)**theta.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        t = self.theta
        return self.nu * math.log(2.0 / delta) ** t * (2.0 * math.e / t) ** t


def vector_norm_class(dim: int, eps_class: SubWeibull, xi_class: SubWeibull) -> SubWeibull:
    """Certificate for the Euclidean norm of a combined error in R^dim.

    If every entry of the first error vector satisfies ``eps_class`` and
    every entry of the second satisfies ``xi_class`` (entries and the two
    vectors may be dependent), then the norm of their sum satisfies

        subW(max(theta_e, theta_x),
             2**theta_e * sqrt(dim) * nu_e + 2**theta_x * sqrt(dim) * nu_x).
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    root = math.sqrt(dim)
    nu = (
        2.0**eps_class.theta * root * eps_class.nu
        + 2.0**xi_class.theta * root * xi_class.nu
    )
    return SubWeibull(max(eps_class.theta, xi_class.theta), nu)


def error_vectors(eps_sampler, xi_sampler, dim: int, n: int, rng) -> np.ndarray:
    """``n`` draws of the error ``eps + xi`` in R^dim as ``(n, dim)`` rows, every eps
    value drawn before any xi value; :func:`vector_norm_class` certifies their norms."""
    e = eps_sampler.sample(rng, n * dim).reshape(n, dim)
    e += xi_sampler.sample(rng, n * dim).reshape(n, dim)
    return e


# ---------------------------------------------------------------------------
# reference samplers

_GAUSSIAN = "gaussian"
_UNIFORM = "bounded-uniform"
_WEIBULL = "weibull-tail"


@dataclass(frozen=True)
class ErrorSampler:
    """A concrete noise distribution together with its declared certificate.

    Use the factory functions :func:`gaussian`, :func:`bounded_uniform`,
    :func:`weibull_tail` and :func:`zero`, or :func:`sampler` by kind name;
    they pick a ``declared`` certificate that is provably valid for the
    distribution (and tight for the Weibull family, of shape ``1/theta``).
    """

    kind: str
    scale: float
    declared: SubWeibull

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. values, advancing ``rng``."""
        if n < 1:
            raise ValueError(f"sample count must be at least 1, got {n}")
        if self.kind == _GAUSSIAN:
            return self.scale * rng.standard_normal(n)
        if self.kind == _UNIFORM:
            return self.scale * rng.uniform(-1.0, 1.0, n)
        if self.kind == _WEIBULL:
            # each sign bit b gives the factor 2 b - 1: negate where b == 0, in place
            magnitude = rng.weibull(1.0 / self.declared.theta, n)
            magnitude *= self.scale
            negative = rng.integers(0, 2, n) == 0
            return np.negative(magnitude, out=magnitude, where=negative)
        raise ValueError(f"unknown sampler kind {self.kind!r}")


def sampler(kind: str, scale: float, theta: float) -> ErrorSampler:
    """The sampler of kind ``gaussian``, ``bounded-uniform`` or
    ``weibull-tail`` at ``scale``; only the Weibull kind reads ``theta``."""
    if kind == _GAUSSIAN:
        return gaussian(scale)
    if kind == _UNIFORM:
        return bounded_uniform(scale)
    if kind == _WEIBULL:
        return weibull_tail(theta, scale)
    raise ValueError(f"unknown sampler kind {kind!r}")


def gaussian(scale: float) -> ErrorSampler:
    """Centered normal noise with standard deviation ``scale``.

    ``E[|X|^k]^(1/k) <= scale * sqrt(k)`` for all ``k >= 1`` (the absolute
    moments are ``(k-1)!!``-sized), so ``(1/2, scale)`` is a valid
    certificate.
    """
    _check_scale(scale)
    return ErrorSampler(_GAUSSIAN, float(scale), SubWeibull(0.5, float(scale)))


def bounded_uniform(scale: float) -> ErrorSampler:
    """Uniform noise on ``[-scale, scale]``; bounded, hence ``(1/2, scale)``."""
    _check_scale(scale)
    return ErrorSampler(_UNIFORM, float(scale), SubWeibull(0.5, float(scale)))


def weibull_tail(theta: float, scale: float) -> ErrorSampler:
    """Symmetric noise whose magnitude is Weibull with shape ``1/theta``.

    ``P[|X| > w] = exp(-(w/scale)**(1/theta))`` and
    ``E[|X|^k] = scale**k * Gamma(1 + k*theta)`` exactly, so the declared
    scale ``scale * sup_{k>=1} Gamma(1+k*theta)**(1/k) / k**theta`` is the
    tightest valid one.  ``theta`` beyond 1 produces genuinely heavy tails.

    The supremum is attained at ``k = 1``, so the scale is
    ``scale * Gamma(1 + theta)``.  With ``x = k*theta`` the log-ratio is
    ``theta * (lnGamma(1+x)/x - ln x + ln theta)``, whose slope in ``x`` has
    the sign of ``h(x) = x psi(1+x) - lnGamma(1+x) - x``.  Here ``h(0) = 0``
    and ``h'(x) = x psi'(1+x) - 1 < 0``, because
    ``psi'(1+x) = sum_{n>=1} (n+x)^-2 < int_0^oo (t+x)^-2 dt = 1/x``; so
    ``h < 0`` for ``x > 0`` and the ratio decreases in ``k`` (Vladimirova et
    al., "Sub-Weibull distributions", Stat, 2020, give the moment form).
    ``math.gamma`` is exact at integer ``theta`` up to 22; past ~170 it overflows.
    """
    _check_scale(scale)
    cert = SubWeibull(float(theta), float(scale))  # the rule on theta, before Gamma reads it
    try:
        gamma = math.gamma(1.0 + cert.theta)
    except OverflowError:
        gamma = math.inf
    if not math.isfinite(gamma):
        raise ValueError(f"Gamma(1 + theta) is not finite at theta={cert.theta}")
    return ErrorSampler(_WEIBULL, float(scale), cert.scale(gamma))


def zero() -> ErrorSampler:
    """Degenerate all-zero noise (a gaussian sampler with scale 0)."""
    return gaussian(0.0)


def _check_scale(scale: float) -> None:
    if not scale >= 0:
        raise ValueError(f"sampler scale must be nonnegative, got {scale}")
