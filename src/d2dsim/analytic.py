"""Closed-form and quadrature-based network performance formulas.

Interference Laplace transforms for Poisson fields of Rayleigh-faded
interferers, the resulting D2D success probability and area spectral
efficiency, the cellular coverage integral with exclusion zones, and the map
between the activation SIR threshold and the access probability.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate
from scipy.special import gammaincinv

from .errors import ApproximationWarning, NumericalError, ParameterError


@dataclass(frozen=True)
class SystemParams:
    """Densities, link geometry, powers, and SIR targets (all linear units)."""

    lambda_m: float      # base stations per m^2
    lambda_d: float      # potential D2D transmitters per m^2
    d: float             # D2D link length, m
    alpha: float         # pathloss exponent
    p_c_mw: float        # cellular transmit power
    p_d_mw: float        # D2D transmit power
    beta: float          # D2D SIR target, linear
    gamma: float         # cellular SIR target, linear

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.lambda_m > 0:
            raise ParameterError("lambda_m must be positive")
        if self.lambda_d < 0:
            raise ParameterError("lambda_d must be nonnegative")
        if not self.d > 0:
            raise ParameterError("d must be positive")
        if not self.alpha > 2:
            raise ParameterError("alpha must exceed 2")
        if not (self.p_c_mw > 0 and self.p_d_mw > 0):
            raise ParameterError("powers must be positive")
        if not (self.beta > 0 and self.gamma > 0):
            raise ParameterError("SIR targets must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """Geometry/power constants reused across every formula."""

    xi: float       # pi d^2 / sinc(2/alpha), m^2
    kappa: float    # (Pc/Pd)^(2/alpha)

    @classmethod
    def from_params(cls, params: SystemParams) -> "DerivedConstants":
        two_over_alpha = 2.0 / params.alpha
        xi = math.pi * params.d ** 2 / sinc_norm(two_over_alpha)
        kappa = (params.p_c_mw / params.p_d_mw) ** two_over_alpha
        return cls(xi=xi, kappa=kappa)


# Quadrature settings for the semi-infinite integrals
_QUAD_REL_TOL = 1e-8
_QUAD_ABS_TOL = 1e-12
_QUAD_LIMIT = 200        # subdivisions
_TAIL_MASS = 1e-6        # probability mass allowed beyond a truncation point


def sinc_norm(x: float) -> float:
    """Normalized sinc: sin(pi x)/(pi x), with value 1 at x = 0."""
    if x == 0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def _quad(fn, a, b):
    result = integrate.quad(fn, a, b, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                            limit=_QUAD_LIMIT, full_output=1)
    if len(result) > 3:
        raise NumericalError(f"quadrature failed on [{a}, {b}]: {result[3]}")
    return result[0]


def laplace_ppp(s: float, lam: float, alpha: float) -> float:
    """Laplace transform of Rayleigh-faded interference from a full-plane PPP."""
    if s < 0 or lam < 0:
        raise ParameterError("s and lambda must be nonnegative")
    if s == 0 or lam == 0:
        return 1.0
    return math.exp(-math.pi * lam * s ** (2.0 / alpha) / sinc_norm(2.0 / alpha))


def _modified_laplace_exponent_quad(s: float, lam: float, r_min: float, alpha: float) -> float:
    # integrand s*v/(v^alpha + s) is the stable form of s*v^(1-alpha)/(1 + s*v^(-alpha))
    def integrand(v):
        return s * v / (v ** alpha + s)

    knee = max(r_min, s ** (1.0 / alpha))
    inner = _quad(integrand, r_min, knee) if knee > r_min else 0.0
    tail = _quad(integrand, knee, np.inf)
    return 2.0 * math.pi * lam * (inner + tail)


def modified_laplace(s: float, lam: float, r_min: float, alpha: float,
                     method: str = "auto") -> float:
    """Laplace transform of PPP interference with a keep-out disk of radius r_min.

    For alpha = 4 the radial integral has the antiderivative
    (sqrt(s)/2) * arctan(v^2 / sqrt(s)), giving
    exp(-pi * lam * sqrt(s) * arctan(sqrt(s) / r_min^2)); other exponents fall
    back to adaptive quadrature.  ``method`` forces one path for cross-checks.
    """
    if s < 0 or lam < 0 or r_min < 0:
        raise ParameterError("s, lambda and r_min must be nonnegative")
    if s == 0 or lam == 0:
        return 1.0
    if method not in ("auto", "closed_form", "quadrature"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "closed_form" and alpha != 4:
        raise ParameterError("closed form is only available for alpha = 4")
    if alpha == 4 and method != "quadrature":
        root_s = math.sqrt(s)
        angle = math.pi / 2 if r_min == 0 else math.atan(root_s / r_min ** 2)
        return math.exp(-math.pi * lam * root_s * angle)
    return math.exp(-_modified_laplace_exponent_quad(s, lam, r_min, alpha))


def d2d_success_prob(beta: float, params: SystemParams) -> float:
    """Probability a D2D link beats the SIR target under full-plane PPP interference."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    c = DerivedConstants.from_params(params)
    return math.exp(-c.xi * beta ** (2.0 / params.alpha)
                    * (params.lambda_d + c.kappa * params.lambda_m))


def hole_survival(delta: float, lambda_m: float) -> float:
    """Fraction of a PPP retained after punching radius-delta holes at BS sites."""
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    return math.exp(-lambda_m * math.pi * delta ** 2)


def d2d_ase_step1(beta: float, delta: float, params: SystemParams) -> float:
    """Fixed-rate D2D area spectral efficiency with guard zones only (bit/s/Hz/m^2)."""
    lam_h = params.lambda_d * hole_survival(delta, params.lambda_m)
    return lam_h * d2d_success_prob(beta, params) * math.log2(1.0 + beta)


def pdf_link_distance(x: float, lambda_m: float) -> float:
    """Rayleigh pdf of the distance between a user and its nearest BS."""
    if x < 0:
        return 0.0
    return 2.0 * math.pi * lambda_m * x * math.exp(-math.pi * lambda_m * x ** 2)


_GAMMA_3_5 = math.gamma(3.5)


def pdf_dmin(r: float, lambda_m: float) -> float:
    """Pdf of the radius of the disk with the typical cell's area.

    This radius proxies the distance from a BS to its nearest interfering
    uplink user.
    """
    if r < 0:
        return 0.0
    c = 3.5 * math.pi * lambda_m
    return 2.0 * c ** 3.5 / _GAMMA_3_5 * r ** 6 * math.exp(-c * r ** 2)


def _link_distance_quantile(q: float, lambda_m: float) -> float:
    return math.sqrt(-math.log1p(-q) / (math.pi * lambda_m))


def _dmin_quantile(q: float, lambda_m: float) -> float:
    # 3.5*pi*lam*r^2 is Gamma(3.5, 1)-distributed
    return math.sqrt(gammaincinv(3.5, q) / (3.5 * math.pi * lambda_m))


NEAREST_LAW = "nearest"      # keep-out radius ~ Rayleigh nearest-BS-distance law
CELL_DISK_LAW = "cell_disk"  # keep-out radius ~ equal-area disk of the typical cell


def warn_if_loose(delta: float, lambda_m: float):
    """Warn when ``delta`` exceeds half the mean cell radius.

    Beyond that radius the keep-out approximation of the D2D field is loose.
    """
    tight = 1.0 / (2.0 * math.sqrt(math.pi * lambda_m))
    if delta > tight:
        warnings.warn(
            f"guard radius {delta:.1f} m exceeds {tight:.1f} m; the keep-out "
            "approximation of the D2D field loses accuracy", ApproximationWarning,
            stacklevel=3)


def cellular_coverage(gamma: float, active_d2d_density: float, delta: float,
                      params: SystemParams, dmin_law: str = NEAREST_LAW,
                      warn: bool = True) -> float:
    """Probability a cellular uplink beats its SIR target.

    Interference comes from the other uplink users (a PPP kept outside a
    random per-cell radius) and from active D2D transmitters (a PPP of the
    given density kept outside the radius-delta guard zone).  Averages over
    the serving-link distance and the keep-out radius by nested adaptive
    quadrature with quantile-based truncation.

    ``dmin_law`` selects the keep-out radius distribution: the default
    ``nearest`` (Rayleigh) law reproduces the published single-tier ceiling
    of 0.5552 at the reference parameters; ``cell_disk`` uses the
    equal-area-disk law of ``pdf_dmin`` instead.  ``warn=False`` skips the
    loose-keep-out warning, for callers that warn once for a final radius.
    """
    if gamma < 0 or active_d2d_density < 0 or delta < 0:
        raise ParameterError("gamma, density and delta must be nonnegative")
    if dmin_law not in (NEAREST_LAW, CELL_DISK_LAW):
        raise ParameterError(f"unknown dmin_law {dmin_law!r}")
    if gamma == 0:
        return 1.0
    lam_m = params.lambda_m
    if warn:
        warn_if_loose(delta, lam_m)
    if dmin_law == NEAREST_LAW:
        dmin_pdf = pdf_link_distance
        r_max = _link_distance_quantile(1.0 - _TAIL_MASS, lam_m)
    else:
        dmin_pdf = pdf_dmin
        r_max = _dmin_quantile(1.0 - _TAIL_MASS, lam_m)
    power_ratio = params.p_d_mw / params.p_c_mw
    x_max = _link_distance_quantile(1.0 - _TAIL_MASS, lam_m)

    def inner(x: float) -> float:
        s = gamma * x ** params.alpha

        def f(r: float) -> float:
            return dmin_pdf(r, lam_m) * modified_laplace(s, lam_m, r, params.alpha)

        return _quad(f, 0.0, r_max)

    def outer(x: float) -> float:
        s_d2d = gamma * x ** params.alpha * power_ratio
        keep = modified_laplace(s_d2d, active_d2d_density, delta, params.alpha)
        return pdf_link_distance(x, lam_m) * inner(x) * keep

    return _quad(outer, 0.0, x_max)


@functools.lru_cache(maxsize=64)
def max_cellular_coverage(params: SystemParams, dmin_law: str = NEAREST_LAW) -> float:
    """Cellular coverage with the D2D tier silent (single-tier ceiling).

    Memoized on its frozen arguments: every guard-radius solve and plan
    needs the same ceiling, and each evaluation is a nested quadrature.
    """
    return cellular_coverage(params.gamma, 0.0, 0.0, params, dmin_law=dmin_law)


def access_prob_from_threshold(g: float, params: SystemParams) -> float:
    """Fraction of candidate D2D links whose estimated SIR beats threshold ``g``."""
    if g < 0:
        raise ParameterError("threshold must be nonnegative")
    return 1.0 if g == 0 else d2d_success_prob(g, params)


def threshold_from_access_prob(p_s: float, params: SystemParams) -> float:
    """SIR threshold that admits a ``p_s`` fraction of candidates (inverse map)."""
    if not 0 < p_s <= 1:
        raise ParameterError("p_s must be in (0, 1]")
    if p_s == 1:
        return 0.0
    c = DerivedConstants.from_params(params)
    denom = c.xi * (params.lambda_d + c.kappa * params.lambda_m)
    return (-math.log(p_s) / denom) ** (params.alpha / 2.0)


REGIMES = ("low_ps", "high_ps", "piecewise")


def d2d_ase_two_stage(delta: float, p_s: float, params: SystemParams,
                      regime: str = "piecewise") -> float:
    """D2D area spectral efficiency after guard zones plus SIR-aware admission.

    The conditional success probability of an admitted link is approximated by
    1 in the sparse-admission regime and by the unconditional-success ratio in
    the dense-admission regime; ``piecewise`` takes the smaller of the two,
    which makes the two branches cross at the optimizer's fixed point.
    """
    if regime not in REGIMES:
        raise ParameterError(f"regime must be one of {REGIMES}")
    if not 0 <= p_s <= 1:
        raise ParameterError("p_s must be in [0, 1]")
    if p_s == 0:
        return 0.0
    c = DerivedConstants.from_params(params)
    lam_h = params.lambda_d * hole_survival(delta, params.lambda_m)
    base = p_s * lam_h * math.log2(1.0 + params.beta)
    if regime == "low_ps":
        cond = 1.0
    else:
        ratio = math.exp(-c.xi * params.beta ** (2.0 / params.alpha)
                         * (p_s * params.lambda_d + c.kappa * params.lambda_m)) / p_s
        cond = ratio if regime == "high_ps" else min(1.0, ratio)
    return base * cond
