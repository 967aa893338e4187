"""Symmetric logarithmic derivatives and optimal observables.

For a Gaussian family (Sigma(l), d(l)) in real quadratures R, the symmetric
logarithmic derivative solving {L, rho} = 2 drho is the quadratic form

    L = dR^T Phi dR - Tr[Sigma Phi] / 2 + 2 dR^T Sigma^-1 d'   (dR = R - d),

where Phi solves Sigma Phi Sigma + Omega Phi Omega = Sigma', in the
Williamson basis of Sigma (Monras, arXiv:1303.3682; Safranek, J. Phys. A 52,
035304, 2019, arXiv:1801.00299) reached in real arithmetic through the
Cholesky factor Sigma = C C^T: i C^-1 Omega C^-T has eigenvalues
lambda_i = +-1/nu_k and eigenvectors U, and with Dt = U^dag C^-1 Sigma' C^-T U

    Phi = R Y R^dag,    R = C^-T U,    Y_ij = Dt_ij / (1 - lambda_i lambda_j),
    H = Tr(Dt Y) / 2 + 2 |C^-1 d'|^2,
    Tr[Sigma Phi] = Tr[(Sigma - i Omega) Phi] = sum_i (1 - lambda_i) Y_ii.

The last form, with Tr[Omega Phi] = 0, cancels the round-off that the
entries of Phi carry, which near a pure state are large beside the
observable's constant l0. Cholesky keeps each entry of a graded positive
definite matrix to its own relative precision (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1204, 1992), so the small eigen-directions of the
entangled probe's normal-mode moments survive; a covariance that float64
cannot factor raises NumericalInstabilityError. It is the QFI route every
caller reads (:func:`qfi_result`); the symplectic-invariant expression of
:mod:`bifrost.qfi` is its check. The observable saturating the Cramer-Rao
bound at working point l0 is O = l0 + L / H.

The quotient is singular only where two normal modes are both pure
(lambda_i lambda_j = 1). Where the family keeps them pure, Dt_ij vanishes
there and the regularised value Y_ij = 0 is taken; elsewhere the QFI
diverges, and the solve raises DegenerateStateError.

The solve runs in the family's frame (``StateFamily.in_normal_modes``); the
form is mapped to the physical modes and written in the complex basis
A = (a_1, .., a_n, a_1^dag, .., a_n^dag) = W R, G = W Phi W^dag. Decided on
the physical moments, it keeps two exact symmetries: without x-p
correlations its arrays are real, and a paired family's form is 0 exactly
where it would change n_1 - n_2.

For the entangled bi-frequency probe the observable reduces to
l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0; the coefficients are
also available in closed form, together with a solver for the beam splitter /
single-mode squeezer / beam splitter circuit that realises the photon-counted
mode in the noiseless high-reflectivity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateStateError,
    NoInformationError,
    NumericalInstabilityError,
    check_photon_numbers,
    check_scalars,
)
from .gaussian import normal_modes, omega
from .qfi import STATIC_COV_TOL, QfiResult, StateFamily, _check_domain, _check_some_photons

# a pair of normal modes counts as pure when 1 - lambda_i lambda_j is below
# this; round-off leaves a few 1e-16 on a pure state, and the least mixed
# received state of the domain (eta1 = 1 - 1e-6, n_th = 1e-6) has 4.0e-12,
# the coherent probe's (8.5e-11 the smallest over a 300-point domain sweep)
_PURE_TOL = 1e-13
# the circuit solve counts as converged when its residual norm is at most this
_CIRCUIT_TOL = 1e-12


@cache
def complex_basis_matrix(n_modes: int) -> np.ndarray:
    """Unitary W mapping interleaved quadratures to the complex basis; a
    shared read-only array."""
    w = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for k in range(n_modes):
        w[k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[k, 2 * k + 1] = 1j / np.sqrt(2.0)
        w[n_modes + k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[n_modes + k, 2 * k + 1] = -1j / np.sqrt(2.0)
    w.setflags(write=False)
    return w


def _in_complex_basis(m: np.ndarray) -> np.ndarray:
    """W m W^dag for a real matrix m, or W m for a real vector, computed in
    real arithmetic from W = W_re + i W_im. The result is a real array when its
    imaginary part is exactly 0: for a matrix without x-p correlations every
    term of that part is a product with an exact zero."""
    w = complex_basis_matrix(m.shape[0] // 2)
    w_re, w_im = w.real, w.imag
    if m.ndim == 1:
        re, im = w_re @ m, w_im @ m
    else:
        a, b = w_re @ m, w_im @ m
        re, im = a @ w_re.T + b @ w_im.T, b @ w_re.T - a @ w_im.T
    return re + 1j * im if im.any() else re


@dataclass(frozen=True, eq=False)
class SldForm:
    """Quadratic-form description of the logarithmic derivative.

    Represents L = (A - center)^dag quad (A - center) + (A - center)^dag linear
    + scalar, with A the complex basis vector.
    """

    quad: np.ndarray
    linear: np.ndarray
    scalar: float
    center: np.ndarray



def _terms(form: SldForm) -> list[tuple[complex, str, str]]:
    """A two-mode form's terms (c, mode-1 word, mode-2 word): each A_i -
    center_i expanded into ladder words, one per mode ("a" for a, "A" for
    a^dag, "" the identity, the words of ``fock._ladder_diagonals``), and
    the terms whose coefficient is exactly 0 dropped, except the scalar's."""
    basis = (("a", ""), ("", "a"), ("A", ""), ("", "A"))  # a1, a2, a1^dag, a2^dag
    delta = [((1.0, *words), (-c, "", "")) for words, c in zip(basis, form.center)]
    terms = []
    for i in range(4):
        dagger = [(np.conj(c), u[::-1].swapcase(), v[::-1].swapcase()) for c, u, v in delta[i]]
        terms += [(form.linear[i] * c, u, v) for c, u, v in dagger]
        for j in range(4):
            terms += [
                (form.quad[i, j] * c1 * c2, u1 + u2, v1 + v2)
                for c1, u1, v1 in dagger
                for c2, u2, v2 in delta[j]
            ]
    return [(form.scalar, "", "")] + [term for term in terms if term[0] != 0]


# J, the generator of exp(i phi (n_1 - n_2)) on (x1, p1, x2, p2), omega + (-omega):
# a signed permutation, so its products with a matrix are exact
_PAIR = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_PAIR.setflags(write=False)


class _Solution(NamedTuple):
    """The Williamson-basis solve of a family at its working point, in its
    frame: lambda_i = +-1/nu_k, U, Y, Dt, C^-1 d' and C^-1 (module
    docstring), and the family, whose moments decide the form's symmetries."""

    lam: np.ndarray
    u: np.ndarray
    q: np.ndarray
    z: np.ndarray
    proj: np.ndarray
    inv_chol: np.ndarray
    family: StateFamily

    def result(self) -> QfiResult:
        """H = Tr(Dt Y) / 2 + 2 |C^-1 d'|^2, term by term, with the
        symplectic eigenvalues nu = 1 / |lambda|. A value that leaves the
        float range raises ArithmeticError."""
        term_cov = 0.5 * float(np.vdot(self.z, self.q).real)
        term_disp = 2.0 * float(np.vdot(self.proj, self.proj))
        value = term_cov + term_disp
        if not math.isfinite(value):
            raise ArithmeticError(f"the QFI leaves the float range: {value}")
        abs_lam = np.abs(self.lam)
        return QfiResult(
            value=value,
            nu_plus=1.0 / float(abs_lam.min()),
            nu_minus=1.0 / float(abs_lam.max()),
            term_covariance=term_cov,
            term_displacement=term_disp,
        )

    def _physical(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """Moments of the family's frame in the physical modes."""
        return [normal_modes(a) for a in arrays] if self.family.in_normal_modes else list(arrays)

    def phi(self) -> np.ndarray:
        """Phi = R Y R^dag, R = C^-T U, in the physical modes: a new array."""
        r = self.inv_chol.T @ self.u
        phi = (r @ self.q @ r.conj().T).real
        return normal_modes(phi) if self.family.in_normal_modes else 0.5 * (phi + phi.T)

    def scalar(self) -> float:
        """-Tr(Sigma Phi) / 2 = -sum_i (1 - lambda_i) Y_ii / 2."""
        return -0.5 * float(np.dot(1.0 - self.lam, np.diagonal(self.q)).real)

    def paired(self) -> bool:
        """Whether the family has two modes, no displacement or displacement
        derivative, and physical moments that commute with J exactly: then it
        and its logarithmic derivative are invariant under exp(i phi (n_1 - n_2))."""
        state, dcov, ddisp = self.family.derivative()
        if len(ddisp) != 4 or state.disp.any() or ddisp.any():
            return False
        return all(np.array_equal(_PAIR @ m, m @ _PAIR) for m in self._physical(state.cov, dcov))

    def form(self) -> SldForm:
        """The logarithmic derivative in the physical modes and the complex
        basis: G = W Phi W^dag, linear = 2 W Sigma^-1 d', the scalar and
        center = W d. Phi is 0 exactly at the x-p entries where the moments
        are, and a paired family's is averaged with J Phi J^T, which makes G
        0 exactly where it would change n_1 - n_2."""
        state, dcov, _ = self.family.derivative()
        phi = self.phi()
        if not any(m[::2, 1::2].any() or m[1::2, ::2].any() for m in (state.cov, dcov)):
            phi[::2, 1::2] = phi[1::2, ::2] = 0.0
        if self.paired():
            phi = 0.5 * (phi + _PAIR @ phi @ _PAIR.T)
        linear, center = self._physical(2.0 * (self.inv_chol.T @ self.proj), state.disp)
        return SldForm(
            quad=_in_complex_basis(phi),
            linear=_in_complex_basis(linear),
            scalar=self.scalar(),
            center=_in_complex_basis(center),
        )


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor C of cov = C C^T; NumericalInstabilityError
    where float64 cannot factor it."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalInstabilityError(
            "the covariance is not positive definite within float64 round-off: "
            "its Cholesky factorisation fails, so float64 cannot resolve the state"
        ) from None


@lru_cache(maxsize=16)
def _solve(family: StateFamily) -> _Solution:
    """Solve Sigma Phi Sigma + Omega Phi Omega = dSigma in the Williamson
    basis of Sigma, reached through its Cholesky factor.

    Memoised per family, so every kernel on one family shares one solve; its
    arrays are read-only, and an error is raised again on every call. A
    covariance whose Cholesky factorisation fails in float64 raises
    NumericalInstabilityError; no family of the package reaches that inside
    the photon-number domain.
    """
    state, dcov, ddisp = family.derivative()
    inv_chol = np.linalg.inv(_cholesky(state.cov))
    lam, u = np.linalg.eigh(1j * (inv_chol @ omega(state.n_modes) @ inv_chol.T))
    z = u.conj().T @ (inv_chol @ dcov @ inv_chol.T) @ u
    den = 1.0 - lam[:, None] * lam
    pure = den <= _PURE_TOL
    if pure.any():
        stray = float(np.max(np.abs(z[pure])))
        if stray > STATIC_COV_TOL:
            raise DegenerateStateError(
                f"a pure normal mode changes its purity: transported covariance "
                f"derivative {stray:.3e} where 1 - lambda_i lambda_j <= {_PURE_TOL:.0e}; "
                "the logarithmic derivative does not exist"
            )
        den = np.where(pure, np.inf, den)
    solution = _Solution(
        lam=lam,
        u=u,
        q=z / den,
        z=z,
        proj=inv_chol @ ddisp,
        inv_chol=inv_chol,
        family=family,
    )
    for array in solution[:-1]:  # every field but the family
        array.setflags(write=False)
    return solution


def sld(family: StateFamily) -> SldForm:
    """Logarithmic derivative of a Gaussian family at its working point.

    Raises DegenerateStateError where the family changes the purity of a pure
    normal mode, and ValueError where the family has no tangent.
    """
    return _solve(family).form()


def qfi_result(family: StateFamily) -> QfiResult:
    """QFI of a Gaussian family at its working point, with its terms and
    symplectic eigenvalues, from the Williamson-basis solve; any mode count."""
    return _solve(family).result()


def qfi_complex_form(family: StateFamily) -> float:
    """The value of :func:`qfi_result`."""
    return qfi_result(family).value


@dataclass(frozen=True)
class SldCoefficients:
    """Coefficients of l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0."""

    l11: float
    l22: float
    l12: float
    l0: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.l11, self.l22, self.l12, self.l0)


def optimal_observable(family: StateFamily) -> SldCoefficients:
    """Coefficients of the Cramer-Rao-saturating observable L/H at lambda0 = 0,
    for a family that the solve finds number/pair-structured (``paired``),
    else ValueError."""
    solution = _solve(family)
    h = solution.result().value
    if h <= 0.0:
        raise NoInformationError(f"QFI is {h}; cannot normalise the observable")
    if not solution.paired():
        raise ValueError(
            "the optimal observable needs a number/pair-structured family: two modes, "
            "no displacement, and moments that keep n1 - n2"
        )
    # with G = W Phi W^dag: the real parts of G_00 + G_22 (n_1), G_11 + G_33
    # (n_2), G_03 + G_12 (the pairs) and G_22 + G_33 (the constant's share)
    phi = solution.phi()
    l11 = float(phi[0, 0] + phi[1, 1])
    l22 = float(phi[2, 2] + phi[3, 3])
    l12 = float(phi[0, 2] - phi[1, 3])
    l0 = 0.5 * (l11 + l22) + solution.scalar()
    return SldCoefficients(l11 / h, l22 / h, l12 / h, l0 / h)


def sld_coeffs_closed_form(eta1: float, n_s: float, n_th: float) -> SldCoefficients:
    """Closed-form coefficients of the optimal entangled-probe observable.

    The quadratic coefficients are rational functions of the operating point;
    the constant is fixed by the zero-mean condition at the working point,
    <O> = 0, which any normalised logarithmic derivative satisfies exactly.
    Where n_s = n_th = 0 there is no information to normalise by, and it
    raises ValueError, as :func:`bifrost.qfi.hq_closed_form` does. Every
    argument is a real scalar, else ValueError.
    """
    check_scalars(eta1=eta1, n_s=n_s, n_th=n_th)
    _check_domain(eta1, n_s, n_th)
    _check_some_photons(n_s, n_th)
    e, s, t = eta1, n_s, n_th
    a = 8.0 * (e - 1.0) * e * s**3 * (2.0 * t + 1.0)
    b = 4.0 * s**2 * (
        -e + (e + 3.0 * e * t) ** 2 - e * t * (10.0 * t + 7.0) + 3.0 * t * (t + 1.0) + 1.0
    )
    c = 2.0 * s * t * (
        -e + t * (e * (3.0 * e - 8.0) + 4.0 * (e - 1.0) * (2.0 * e - 1.0) * t + 3.0) + 1.0
    )
    d = t**2 * (2.0 * (e - 1.0) * t * ((e - 1.0) * t - 1.0) + 1.0)
    main_den = a - b + c - d

    l11 = -2.0 * e * s * (2.0 * s + 1.0) * (2.0 * t + 1.0) / (-main_den)
    l22 = (
        4.0 * e * (2.0 * e - 1.0) * s**2 * (2.0 * t + 1.0)
        + 2.0 * s * (e - 2.0 * t * ((e - 3.0) * e + (e - 1.0) * (3.0 * e - 1.0) * t + 1.0) - 1.0)
        + t * (2.0 * (e - 1.0) * t * ((e - 1.0) * t - 1.0) + 1.0)
    ) / main_den
    l12 = (
        -np.sqrt(2.0)
        * np.sqrt(s * (2.0 * s + 1.0))
        * (e**2 * (s * (4.0 * t + 2.0) - t**2) + t * (t + 1.0))
        / main_den
    )
    # received-state moments at zero gap fix the constant through <O> = 0
    occupation = 0.5 * (2.0 * e * (2.0 * s - t) + 2.0 * t)  # (C(eta1) - 1) / 2
    pair_mean = 2.0 * np.sqrt(2.0 * s * (2.0 * s + 1.0)) * e
    l0 = -(l11 + l22) * occupation - l12 * pair_mean
    return SldCoefficients(l11=l11, l22=l22, l12=l12, l0=l0)


@dataclass(frozen=True)
class CoherentObservable:
    """Displaced photon counting on the second received mode.

    The observable is 2 * prefactor * [(a_2^dag - center)(a_2 - center) + 1/2]
    with the first mode left unmeasured.
    """

    prefactor: float
    center: float

    def expansion(self) -> tuple[float, float, float]:
        """Coefficients of (n_2, a_2 + a_2^dag, identity) in the expanded form."""
        a, c = self.prefactor, self.center
        return (2.0 * a, -2.0 * a * c, a * (2.0 * c**2 + 1.0))


def coherent_observable(eta1: float, n_th: float, alpha: float) -> CoherentObservable:
    """Optimal observable for the coherent probe: local displacement plus
    counting. Every argument is a real scalar; ``n_th`` and ``alpha``, which
    enters as sqrt(alpha), take the photon-number check."""
    check_scalars(eta1=eta1, n_th=n_th, alpha=alpha)
    _check_domain(eta1, n_th, alpha)
    prefactor = 0.5 * (eta1 - 1.0) * (1.0 - n_th * (eta1 - 1.0))
    return CoherentObservable(prefactor=prefactor, center=eta1 * np.sqrt(alpha))


# --- circuit realisation of the noiseless high-reflectivity observable ----

@dataclass(frozen=True)
class JpaCircuitParams:
    """Beam splitter / squeezer / beam splitter / phase-shift circuit angles."""

    varphi: float
    theta: float
    r1: float
    r2: float
    theta1: float
    theta2: float
    phi: float


@dataclass(frozen=True)
class JpaCircuitSolution:
    params: JpaCircuitParams
    mu: float
    scale: float
    commutator: float
    residuals: dict
    converged: bool


def _circuit_coefficients(p: np.ndarray) -> np.ndarray:
    """(a_1, a_2, a_1^dag, a_2^dag) coefficients of the first circuit output."""
    varphi, theta, r1, r2, th1, th2 = p[:6]
    ct, st = np.cos(theta), np.sin(theta)
    cv, sv = np.cos(varphi), np.sin(varphi)
    return np.array(
        [
            ct * cv * np.cosh(r1) - st * sv * np.cosh(r2),
            ct * sv * np.cosh(r1) + st * cv * np.cosh(r2),
            -np.exp(1j * th1) * ct * cv * np.sinh(r1) + np.exp(1j * th2) * st * sv * np.sinh(r2),
            -np.exp(1j * th1) * ct * sv * np.sinh(r1) - np.exp(1j * th2) * st * cv * np.sinh(r2),
        ],
        dtype=complex,
    )


def jpa_circuit_solve(n_s: float) -> JpaCircuitSolution:
    """Circuit parameters realising the pair-counting mode -i(a_2^dag - mu a_1).

    The target mode has commutator mu^2 - 1 = 1/(2 n_s) with itself-dagger, so
    a passive+squeezing circuit (whose outputs are canonical) can only produce
    it up to the normalisation scale sqrt(2 n_s); photon counts on the circuit
    output relate to counts of the target mode by that fixed factor. The
    symmetric two-squeezer ansatz solves both identifications exactly; the
    residuals, in target-mode units, report its floating-point error, and the
    solution counts as converged when their norm is at most ``_CIRCUIT_TOL``.
    """
    check_scalars(n_s=n_s)
    check_photon_numbers(n_s)
    if n_s == 0.0:
        raise ValueError("signal photon number must be positive")
    mu = np.sqrt(1.0 + 0.5 / n_s)
    scale = np.sqrt(2.0 * n_s)
    target = np.array([1j * mu * scale, 0.0, 0.0, -1j * scale], dtype=complex)

    r = np.arcsinh(np.sqrt(2.0 * n_s))
    p = np.array([np.pi / 4, -np.pi / 4, r, r, 0.0, np.pi, -np.pi / 2])
    coeffs = _circuit_coefficients(p)
    norm = np.linalg.norm(coeffs - np.exp(1j * p[6]) * target)
    rotated = np.exp(-1j * p[6]) * coeffs
    residuals = {
        "signal_coefficient": float(abs(rotated[0] / scale - 1j * mu)),
        "pair_coefficient": float(abs(-rotated[3] / scale - 1j)),
        "cross_coefficient": float(abs(coeffs[1])),
        "conjugate_coefficient": float(abs(coeffs[2])),
        "norm": float(norm),
    }
    params = JpaCircuitParams(*(float(v) for v in p))
    return JpaCircuitSolution(
        params=params,
        mu=float(mu),
        scale=float(scale),
        commutator=float(mu**2 - 1.0),
        residuals=residuals,
        converged=bool(norm <= _CIRCUIT_TOL),
    )
