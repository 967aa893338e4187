"""Quantum Fisher information of two-mode Gaussian state families: the
symplectic-invariant check, the state-family interface and the closed forms.

Every caller in the package reads the QFI from the Williamson-basis solve of
:mod:`bifrost.sld`. This module keeps the paper's mixed-state two-mode
expression of Safranek, Lee and Fuentes (New J. Phys. 17, 073016, 2015),

    H = [det A * Tr((A^-1 dA)^2) + sqrt(det(1 + A^2)) * Tr(((1 + A^2)^-1 dA)^2) - f]
        / (2 (det A - 1))
      + 2 dd^T Sigma^-1 dd,

where A = i Omega Sigma, d is the displacement and dots denote derivatives
with respect to the estimated parameter, as the independent check of that
solve (:func:`qfi_gaussian`, run by :mod:`bifrost.validate`). The QFI needs
nothing of the family but the moments and their first derivatives (Monras,
arXiv:1303.3682; Safranek, arXiv:1801.00299), so every family carries its
own tangent (``StateFamily.tangent``). Its tangent at lambda0 is computed
once per family and kept (``StateFamily.derivative``), and no kernel
evaluates the family. The families of :mod:`bifrost.protocols` give their
moments and exact derivatives in closed form, in the physical modes or the
normal modes (``StateFamily.in_normal_modes``), or propagate them through
their symplectic maps (:func:`bifrost.gaussian.propagate`). Everything is
computed in real arithmetic through M = Omega Sigma (A = i M, A^2 = -M^2)
and the two symplectic invariants

    s = nu_+^2 + nu_-^2 = -Tr(M^2) / 2,    p = nu_+^2 nu_-^2 = det Sigma,

with derivatives ds = -Tr(M dM) and dp = p Tr(Sigma^-1 dSigma). Then
sqrt(det(1 + A^2)) = 1 + s + p, and the eigenvalue correction

    f = 4 (nu_+^2 - nu_-^2) (dnu_+^2 / (nu_+^4 - 1) - dnu_-^2 / (nu_-^4 - 1))

is the symmetric rational function

    f = [G1 ((s^2 - 4p) ds^2 + q^2) + 2 G0 ds q] / 4,    q = s ds - 2 dp,
    G0 = s (s^2 - 3p - 1) / D,    G1 = -(s^2 - p - 1) / D,
    D = p ((p + 1)^2 - s^2) = p (nu_+^4 - 1) (nu_-^4 - 1),

which needs no derivative of nu_+- and stays regular where nu_+ = nu_-. D
vanishes only at a pure normal mode (nu_- = 1), where the expression does not
apply. The symplectic eigenvalues nu_+- are reported, not used.

Closed forms for the bi-frequency illumination protocol (entangled and
coherent probes, plus the high-reflectivity and noisy limits of their ratio)
live alongside so both numeric routes and the formulas can cross-check each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalInstabilityError, PureStateError, check_photon_numbers, holds
from .gaussian import GaussianState, omega

# det A must exceed 1 by this margin before the mixed-state branch is trusted
MIXEDNESS_MARGIN = 1e-12
# below this, a derivative of the covariance or of its invariants counts as
# zero; the margin also absorbs round-off of a tangent computed by differences
STATIC_COV_TOL = 1e-9
# round-off in the discriminant s^2 - 4p is of order eps * s * |Sigma|_F^2;
# a discriminant below -DISCRIMINANT_RTOL times that scale is not round-off
DISCRIMINANT_RTOL = 1e-12

# the closed forms take floats or numpy arrays that broadcast together
Floats = float | np.ndarray

_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


@dataclass(frozen=True)
class StateFamily:
    """A differentiable map from the estimated parameter to a Gaussian state.

    ``eval`` and ``tangent`` must be pure functions of the parameter, and
    hashable: the tangent at lambda0 is computed once per family and kept,
    and the Williamson solve of :mod:`bifrost.sld` is memoised by family.

    Attributes:
        eval: callable returning the state, in the physical modes, at a
            given parameter value.
        tangent: callable returning ``(state, dcov, ddisp)`` at a given
            parameter value in the family's frame: the state, which taken
            to the physical modes is bit for bit what ``eval`` returns
            there, and the derivatives of its moments. It raises ValueError
            where the family is not differentiable.
        lambda0: evaluation point.
        in_normal_modes: whether that frame is the normal modes of a
            two-mode family (:func:`bifrost.gaussian.normal_modes`), which
            leaves the QFI as it is, or the physical modes.
    """

    eval: Callable[[float], GaussianState]
    tangent: Callable[[float], tuple[GaussianState, np.ndarray, np.ndarray]]
    lambda0: float = 0.0
    in_normal_modes: bool = False

    def derivative(self) -> tuple[GaussianState, np.ndarray, np.ndarray]:
        """The tangent at lambda0, asked of the family once and kept with its
        arrays read-only; an error is raised again on every call."""
        memo = self.__dict__.get("_derivative")
        if memo is None:
            memo = self.tangent(self.lambda0)
            for array in (memo[0].cov, memo[0].disp, *memo[1:]):
                array.setflags(write=False)
            self.__dict__["_derivative"] = memo
        return memo


@dataclass(frozen=True)
class QfiResult:
    """QFI value, its covariance and displacement terms (value is their sum)
    and the largest and smallest symplectic eigenvalues; both QFI routes
    fill it."""

    value: float
    nu_plus: float
    nu_minus: float
    term_covariance: float
    term_displacement: float


def _invariants(cov: np.ndarray) -> tuple[np.ndarray, float, float]:
    """M = Omega Sigma, s = nu_+^2 + nu_-^2 = -Tr(M^2) / 2 and p = det Sigma."""
    m = omega(cov.shape[0] // 2) @ cov
    return m, -0.5 * float((m @ m).trace()), float(np.linalg.det(cov))


def _nu_from_invariants(s: float, p: float, cov: np.ndarray) -> tuple[float, float]:
    """Symplectic eigenvalues from nu_+-^2 = (s +- sqrt(s^2 - 4p)) / 2."""
    disc = s * s - 4.0 * p
    if disc < -DISCRIMINANT_RTOL * s * float(np.sum(cov * cov)):
        raise NumericalInstabilityError(
            f"negative symplectic discriminant {disc:.3e} beyond tolerance"
        )
    root = math.sqrt(max(disc, 0.0))
    return math.sqrt(0.5 * (s + root)), math.sqrt(max(0.5 * (s - root), 0.0))


def _invariant_correction(s: float, p: float, ds: float, dp: float, nu_m: float) -> float:
    """The correction f of the module docstring from the invariants s, p and
    their derivatives; zero at a pure normal mode whose invariants are static."""
    if nu_m <= 1.0 + 1e-10:
        if abs(ds) < STATIC_COV_TOL and abs(dp) < STATIC_COV_TOL:
            return 0.0
        raise PureStateError(
            f"symplectic eigenvalue {nu_m:.12f} at the unit boundary with "
            "varying covariance; the mixed-state expression does not apply"
        )
    q = s * ds - 2.0 * dp
    d = p * ((p + 1.0) ** 2 - s * s)
    if d == 0.0:
        raise PureStateError(
            f"symplectic eigenvalue {nu_m:.12f}: p ((p + 1)^2 - s^2) rounds to 0, "
            "so a normal mode is pure within round-off"
        )
    g0 = s * (s * s - 3.0 * p - 1.0) / d
    g1 = -(s * s - p - 1.0) / d
    return 0.25 * (g1 * ((s * s - 4.0 * p) * ds * ds + q * q) + 2.0 * g0 * ds * q)


def qfi_gaussian(family: StateFamily) -> QfiResult:
    """Quantum Fisher information of a two-mode Gaussian family at
    ``family.lambda0`` by the symplectic-invariant expression; the check of
    :func:`bifrost.sld.qfi_result`, which every caller reads.

    The moment derivatives are the family's tangent at lambda0 (see
    ``StateFamily.derivative``). The state must be mixed; the only pure case
    accepted is a constant covariance (displacement-only encoding), for which
    the covariance terms vanish identically and the displacement term alone
    survives. The covariance term includes the eigenvalue correction f.

    Accuracy domain: the expression divides by det A - 1 and by
    D = p (nu_+^4 - 1)(nu_-^4 - 1), which vanish as a normal mode nears
    purity, and f is then a cancellation of terms of order 1/D. So it reads
    1.1e-4 off the closed form for the coherent probe at (eta1, n_s, n_th) =
    (0.8053, 2.86e-6, 1e-6), 2.3e-6 for the entangled one at (0.5, 1e-6,
    1e-6), and 8.3e-7 and 6.9e-6 at (0.999999, 1, 1); it raises
    PureStateError where nu_- reaches 1 within round-off with a varying
    covariance, as at (0.999999, 1e-6, 1e-6) for both probes and at
    (0.999999, 1e6, 1e-6) for the coherent one (the entangled one reads
    2.9e-16 there), or where D rounds to 0, as at (1e-6, 1e-3, 0). A QFI that
    leaves the float range raises ArithmeticError. For eta1 in [0.02, 0.99]
    and photon numbers from 1e-3 to 1e6 it agrees with the solve to 1e-10
    (6.8e-11 at worst over 1,000 seeded points).
    """
    state, dcov, ddisp = family.derivative()
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode family, got {state.n_modes} modes")
    cov = state.cov
    # vdot, unlike @, warns of no overflow; a non-finite value raises below
    term_disp = 2.0 * float(np.vdot(ddisp, np.linalg.solve(cov, ddisp)))
    m, s, p = _invariants(cov)
    nu_p, nu_m = _nu_from_invariants(s, p, cov)

    if p <= 1.0 + MIXEDNESS_MARGIN:
        if float(np.max(np.abs(dcov))) >= STATIC_COV_TOL:
            raise PureStateError(
                f"det A = {p:.15f} at the purity boundary with varying "
                "covariance; only mixed states are supported"
            )
        term_cov = 0.0
    else:
        dm = omega(2) @ dcov
        inv_dcov = np.linalg.solve(cov, dcov)
        tr1 = float((inv_dcov @ inv_dcov).trace())
        x = np.linalg.solve(_EYE4 - m @ m, dm)
        tr2 = -float((x @ x).trace())
        ds = -float((m @ dm).trace())
        dp = p * float(inv_dcov.trace())
        denom = 2.0 * (p - 1.0)
        term_cov = (p * tr1 + (1.0 + s + p) * tr2) / denom
        term_cov -= _invariant_correction(s, p, ds, dp, nu_m) / denom
    value = term_cov + term_disp
    if not math.isfinite(value):
        raise ArithmeticError(f"the QFI leaves the float range: {value}")

    return QfiResult(
        value=value,
        nu_plus=nu_p,
        nu_minus=nu_m,
        term_covariance=term_cov,
        term_displacement=term_disp,
    )


def _check_domain(eta1: Floats, n_s: Floats, n_th: Floats):
    """Raise ValueError unless every eta1 lies strictly in (0, 1) and every
    photon number in its domain; scalars and arrays alike."""
    if not holds((0.0 < eta1) & (eta1 < 1.0)):
        raise ValueError(f"reference reflectivity must lie strictly in (0, 1), got {eta1}")
    check_photon_numbers(n_s, n_th)


def _check_some_photons(n_s: Floats, n_th: Floats):
    """Raise ValueError where n_s = n_th = 0: the received state of the
    entangled probe then carries no information at all."""
    if not holds((n_s != 0.0) | (n_th != 0.0)):
        raise ValueError("no photons anywhere: the QFI expression degenerates")


def _pow(x: Floats, k: int) -> Floats:
    """x**k by Python's float pow, applied elementwise to an array.

    numpy's array power differs from it by one ulp on some inputs; with it,
    scalar and array calls of the closed forms agree bit for bit, since every
    other operation in them is a correctly rounded one in the same order.
    """
    if not isinstance(x, np.ndarray):
        return float(x) ** k
    x = np.asarray(x, dtype=float)
    return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)


def hq_closed_form(eta1: Floats, n_s: Floats, n_th: Floats) -> Floats:
    """QFI of the entangled (two-mode squeezed) probe at zero reflectivity gap.

    Finite over the whole domain except n_s = n_th = 0, where the received
    state carries no information at all. The arguments may be floats or
    numpy arrays that broadcast together; a grid is best passed as axes of
    shapes (E, 1, 1), (1, S, 1) and (1, 1, T), so that each power is taken
    once per axis value. Any point outside the domain, and the vacuum,
    raises ValueError.
    """
    _check_domain(eta1, n_s, n_th)
    _check_some_photons(n_s, n_th)
    tau = 1.0 - eta1
    num = (
        8.0 * tau * eta1 * _pow(n_s, 3) * (2.0 * n_th + 1.0)
        + 4.0 * _pow(n_s, 2) * (
            -eta1
            + _pow(eta1 + 3.0 * eta1 * n_th, 2)
            - eta1 * n_th * (10.0 * n_th + 7.0)
            + 3.0 * n_th * (n_th + 1.0)
            + 1.0
        )
        - 2.0 * n_s * n_th * (
            -eta1
            + n_th * (eta1 * (3.0 * eta1 - 8.0) + 4.0 * tau * (tau - eta1) * n_th + 3.0)
            + 1.0
        )
        + _pow(n_th, 2) * (2.0 * tau * n_th * (tau * n_th + 1.0) + 1.0)
    )
    k = (
        tau
        * (n_th * (4.0 * n_s * eta1 + n_th * tau + 1.0) + 2.0 * n_s * eta1)
        * (
            2.0 * n_th * tau * (4.0 * n_s * eta1 + 1.0)
            + 4.0 * n_s * eta1 * tau
            + 2.0 * _pow(n_th, 2) * _pow(tau, 2)
            + 1.0
        )
    )
    return num / k


def hc_closed_form(eta1: Floats, n_s: Floats, n_th: Floats) -> Floats:
    """QFI of the coherent probe (|alpha|^2 = n_s per mode) at zero gap.

    The thermal contribution 4 n_th^2 ((1 + 2 n_th tau)^2 + 1) / ((1 + 2 n_th tau)^4 - 1)
    vanishes in the n_th -> 0 limit, which is where it is evaluated then.
    Takes floats or broadcasting arrays, as :func:`hq_closed_form` does.
    An n_th > 0 so small that 1 + 2 n_th tau rounds to 1 (below about
    5.5e-17 / tau) leaves the thermal part 0 / 0 and raises ValueError.
    """
    _check_domain(eta1, n_s, n_th)
    tau = 1.0 - eta1
    g = 1.0 + 2.0 * n_th * tau
    if not holds((g != 1.0) | (n_th == 0.0)):
        small = float(np.max(np.where(g == 1.0, n_th, 0.0)))
        raise ValueError(
            f"thermal occupation {small!r} too small to resolve: 1 + 2 n_th (1 - eta1) rounds to 1"
        )
    # where n_th = 0, g = 1 and the denominator is 0; adding 1 there divides
    # the exactly-zero numerator by 1, and adds exactly 0 everywhere else
    den = _pow(g, 4) - 1.0 + (n_th == 0.0)
    thermal_part = 4.0 * _pow(n_th, 2) * (g * g + 1.0) / den
    return thermal_part + n_s / (eta1 + 2.0 * n_th * tau * eta1)


def ratio_high_reflectivity(n_s: float, n_th: float) -> float:
    """Advantage ratio of the two probes in the perfectly reflective limit."""
    check_photon_numbers(n_s, n_th)
    if n_th == 0.0:
        raise ValueError("the high-reflectivity ratio degenerates at zero thermal occupation")
    num = n_s**2 * (8.0 * n_th * (n_th + 1.0) + 4.0) + 4.0 * n_s * n_th**2 + n_th**2
    den = n_th * (n_s * (4.0 * n_th + 2.0) + n_th)
    return num / den


def ratio_noisy_limit(n_s: float) -> float:
    """High-reflectivity advantage in the strong-noise limit: 1 + 8 n_s^2 / (4 n_s + 1)."""
    check_photon_numbers(n_s)
    return 1.0 + 8.0 * n_s**2 / (4.0 * n_s + 1.0)
