"""Closed-form and quadrature-based network performance formulas.

Interference Laplace transforms for Poisson fields of Rayleigh-faded
interferers, the resulting D2D success probability and area spectral
efficiency, the cellular coverage integral with exclusion zones, and the map
between the activation SIR threshold and the access probability.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass, fields
from types import ModuleType

import numpy as np

from .errors import ApproximationWarning, NumericalError, ParameterError


def _lazy_module(name: str) -> ModuleType:
    """Module ``name``, bound now and executed on its first attribute access.

    This is a module-level ``lazy import`` (PEP 810): a process that never
    reads an attribute never runs the module.  A module already in
    ``sys.modules`` is returned as is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# SciPy serves only the analytic side; the Monte Carlo never loads it
integrate = _lazy_module("scipy.integrate")
special = _lazy_module("scipy.special")


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
        for name in ("p_c_mw", "p_d_mw", "beta", "gamma"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")


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
    try:
        result = integrate.quad(fn, a, b, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                                limit=_QUAD_LIMIT, full_output=1)
    except OverflowError:
        raise NumericalError(f"quadrature overflowed on [{a}, {b}]: an integrand value "
                             "exceeds the float range") from None
    if len(result) > 3:
        raise NumericalError(f"quadrature failed on [{a}, {b}]: {result[3]}")
    return result[0]


def _modified_laplace_exponent_quad(s: float, lam: float, r_min: float, alpha: float) -> float:
    # integrand s*v/(v^alpha + s) is the stable form of s*v^(1-alpha)/(1 + s*v^(-alpha))
    def integrand(v):
        return s * v / (v ** alpha + s)

    knee = max(r_min, s ** (1.0 / alpha))
    inner = _quad(integrand, r_min, knee) if knee > r_min else 0.0
    tail = _quad(integrand, knee, np.inf)
    return 2.0 * math.pi * lam * (inner + tail)


def _keepout_integral(a: float, alpha: float) -> float:
    """``integral_a^inf u / (1 + u**alpha) du`` in Gauss's hypergeometric function.

    For ``a >= 1`` this is ``a**(2 - alpha) / (alpha - 2) * 2F1(1, 1 - 2/alpha;
    2 - 2/alpha; -a**-alpha)``.  Below 1 it is the whole-line value
    ``(pi/alpha) / sin(2 pi/alpha)`` less ``a**2 / 2 * 2F1(1, 2/alpha;
    1 + 2/alpha; -a**alpha)``, the same function with an argument that can
    neither overflow nor leave [-1, 0].
    """
    if a >= 1:
        return a ** (2 - alpha) / (alpha - 2) * special.hyp2f1(
            1, 1 - 2 / alpha, 2 - 2 / alpha, -a ** -alpha)
    whole = math.pi / alpha / math.sin(2 * math.pi / alpha)
    return whole - a * a / 2 * special.hyp2f1(1, 2 / alpha, 1 + 2 / alpha, -a ** alpha)


def modified_laplace(s: float, lam: float, r_min: float, alpha: float,
                     method: str = "closed_form") -> float:
    """Laplace transform of PPP interference with a keep-out disk of radius r_min.

    The exponent is ``2 pi lam * integral_r_min^inf s v / (v**alpha + s) dv``.
    For alpha = 4 the integrand has the antiderivative
    (sqrt(s)/2) * arctan(v^2 / sqrt(s)), giving
    exp(-pi * lam * sqrt(s) * arctan(sqrt(s) / r_min^2)).  Other exponents
    substitute ``v = u * s**(1/alpha)``, which leaves ``2 pi lam * s**(2/alpha)``
    times :func:`_keepout_integral` at ``a = r_min * s**(-1/alpha)``
    (Andrews, Baccelli and Ganti 2011; Haenggi 2012).  ``method="quadrature"``
    integrates adaptively instead, for cross-checks.
    """
    if method not in ("closed_form", "quadrature"):
        raise ParameterError(f"unknown method {method!r}")
    if s < 0 or lam < 0 or r_min < 0:
        raise ParameterError("s, lambda and r_min must be nonnegative")
    if s == 0 or lam == 0:
        return 1.0
    if method == "quadrature":
        return math.exp(-_modified_laplace_exponent_quad(s, lam, r_min, alpha))
    if alpha == 4:
        root_s = math.sqrt(s)
        angle = math.pi / 2 if r_min == 0 else math.atan(root_s / r_min ** 2)
        return math.exp(-math.pi * lam * root_s * angle)
    a = r_min * s ** (-1.0 / alpha)
    return math.exp(-2.0 * math.pi * lam * s ** (2.0 / alpha) * _keepout_integral(a, alpha))


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
    return math.sqrt(special.gammaincinv(3.5, q) / (3.5 * math.pi * lambda_m))


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


# Entries of the keep-out average memo, one per distinct outer node.  A
# coverage call visits at most a few hundred; a full memo holds about 0.4 MB.
_KEEPOUT_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=_KEEPOUT_CACHE_SIZE)
def _keepout_average(s: float, lam_m: float, alpha: float, dmin_law: str) -> float:
    """Uplink-user interference Laplace transform at ``s``, averaged over the
    keep-out radius drawn from ``dmin_law``.

    Depends on neither the guard radius nor the D2D density, so the
    bisection probes of one guard-radius solve, which revisit the same outer
    nodes, reuse it instead of re-integrating.
    """
    if dmin_law == NEAREST_LAW:
        dmin_pdf = pdf_link_distance
        r_max = _link_distance_quantile(1.0 - _TAIL_MASS, lam_m)
    else:
        dmin_pdf = pdf_dmin
        r_max = _dmin_quantile(1.0 - _TAIL_MASS, lam_m)

    def f(r: float) -> float:
        return dmin_pdf(r, lam_m) * modified_laplace(s, lam_m, r, alpha)

    return _quad(f, 0.0, r_max)


def cellular_coverage(gamma: float, active_d2d_density: float, delta: float,
                      params: SystemParams, dmin_law: str = NEAREST_LAW) -> float:
    """Probability a cellular uplink beats its SIR target.

    Interference comes from the other uplink users (a PPP kept outside a
    random per-cell radius) and from active D2D transmitters (a PPP of the
    given density kept outside the radius-delta guard zone).  Averages over
    the serving-link distance and the keep-out radius by nested adaptive
    quadrature with quantile-based truncation; the inner average is
    memoized per outer node by ``_keepout_average``.

    ``dmin_law`` selects the keep-out radius distribution: the default
    ``nearest`` (Rayleigh) law reproduces the published single-tier ceiling
    of 0.5552 at the reference parameters; ``cell_disk`` uses the
    equal-area-disk law of ``pdf_dmin`` instead.  It never warns: the code
    that picks a radius calls :func:`warn_if_loose` for it.
    """
    if gamma < 0 or active_d2d_density < 0 or delta < 0:
        raise ParameterError("gamma, density and delta must be nonnegative")
    if dmin_law not in (NEAREST_LAW, CELL_DISK_LAW):
        raise ParameterError(f"unknown dmin_law {dmin_law!r}")
    if gamma == 0:
        return 1.0
    lam_m = params.lambda_m
    power_ratio = params.p_d_mw / params.p_c_mw
    x_max = _link_distance_quantile(1.0 - _TAIL_MASS, lam_m)

    def outer(x: float) -> float:
        s = gamma * x ** params.alpha
        keep = modified_laplace(s * power_ratio, active_d2d_density, delta, params.alpha)
        return (pdf_link_distance(x, lam_m) * _keepout_average(s, lam_m, params.alpha, dmin_law)
                * keep)

    return _quad(outer, 0.0, x_max)


def max_cellular_coverage(params: SystemParams, dmin_law: str = NEAREST_LAW) -> float:
    """Cellular coverage with the D2D tier silent (single-tier ceiling)."""
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


def d2d_ase_two_stage(delta: float, p_s: float, params: SystemParams) -> float:
    """D2D area spectral efficiency after guard zones plus SIR-aware admission.

    The conditional success probability of an admitted link is approximated by
    1 in the sparse-admission regime and by the unconditional-success ratio in
    the dense-admission regime; the smaller of the two is taken, which makes
    the two branches cross at the optimizer's fixed point.
    """
    if not 0 <= p_s <= 1:
        raise ParameterError("p_s must be in [0, 1]")
    if p_s == 0:
        return 0.0
    c = DerivedConstants.from_params(params)
    lam_h = params.lambda_d * hole_survival(delta, params.lambda_m)
    base = p_s * lam_h * math.log2(1.0 + params.beta)
    ratio = math.exp(-c.xi * params.beta ** (2.0 / params.alpha)
                     * (p_s * params.lambda_d + c.kappa * params.lambda_m)) / p_s
    return base * min(1.0, ratio)
