"""Symmetric logarithmic derivatives and optimal observables in the complex basis.

For a Gaussian family (Sigma(l), d(l)) written in the complex operator basis
A = (a_1, .., a_n, a_1^dag, .., a_n^dag), the symmetric logarithmic derivative
solving {L, rho} = 2 drho is the quadratic form

    L = dA^dag G dA - Tr[Sigma G] / 2 + 2 dA^dag Sigma^-1 d'   (dA = A - d),

where G solves Sigma G Sigma - K G K = Sigma' with K = diag(I_n, -I_n), the
commutator form i Omega in this basis. The equation is solved in the
Williamson basis of Sigma (Monras, arXiv:1303.3682; Safranek, J. Phys. A 52,
035304, 2019, arXiv:1801.00299). The eigenvalues lambda_i of the Hermitian
matrix Sigma^-1/2 K Sigma^-1/2 are +-1/nu_k, nu_k the symplectic eigenvalues,
and with its eigenvectors V the columns of R = Sigma^-1/2 V give R^dag Sigma R = I
and R^dag K R = diag(lambda). In that basis the equation is diagonal: with the
transported derivative Z = R^dag Sigma' R,

    G = R Q R^dag,    Q_ij = Z_ij / (1 - lambda_i lambda_j),

an elementwise quotient by 1 - lambda_i lambda_j = (nu_i nu_j -+ 1) / (nu_i nu_j).
The QFI and the constant of L are read off the same quotient,

    H = Re Tr(Z Q) / 2 + 2 |R^dag d'|^2,
    Tr[Sigma G] = Tr[(Sigma - K) G] = sum_i (1 - lambda_i) Q_ii,

where the middle form holds because L has zero mean, Tr[K G] = 0. Taken in
that form, the constant cancels the round-off of Tr[K G] carried by the
entries of G, which near a pure state are large beside the observable's
constant l0.

So one decomposition gives both L and H, with nu_k = 1 / |lambda_i|. It is
the QFI route every caller reads (:func:`qfi_result`); the
symplectic-invariant expression of :mod:`bifrost.qfi` is kept as its
independent check. The observable saturating the Cramer-Rao bound at
working point l0 is O = l0 + L / H.

The quotient is singular only where two normal modes are both pure
(lambda_i lambda_j = 1). Where the family keeps them pure, Z_ij vanishes
there and the regularised value Q_ij = 0, the limit of the quotient, is
taken; where Z_ij does not vanish the family changes the purity of a pure
state, the QFI diverges, and the solve raises DegenerateStateError.

Moments enter in the interleaved real order of :mod:`bifrost.gaussian`; the
complex basis exists only inside this module. A state without x-p
correlations, as every probe of the repository gives, has a real
covariance in the complex basis; the solve then runs in real arithmetic and
its coefficients are exactly real.

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
from .qfi import STATIC_COV_TOL, QfiResult, StateFamily, _check_domain, _check_some_photons

_STRUCTURE_TOL = 1e-7
# a pair of normal modes counts as pure when 1 - lambda_i lambda_j is below
# this; round-off leaves a few 1e-16 on a pure state, and the least mixed
# received state of the domain (eta1 = 1 - 1e-6, n_th = 1e-6) has about 4e-12
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


# of (a_1, a_2, a_1^dag, a_2^dag), a_1 and a_2^dag lower n_1 - n_2: the
# term A_i^dag A_j of a two-mode form changes it where their charges differ,
# at these flat indices of a 4 x 4 matrix
_CHARGES = np.array([-1, 1, 1, -1])
_MIXING = np.flatnonzero(_CHARGES[:, None] != _CHARGES)
_NONE = np.empty(0, np.intp)


def _terms(form: SldForm) -> list[tuple[complex, str, str]]:
    """A two-mode form's terms (c, mode-1 word, mode-2 word): each A_i -
    center_i expanded into ladder words, one per mode ("a" for a, "A" for
    a^dag, "" the identity, the words of ``fock._ladder_diagonals``), and
    the terms whose coefficient is exactly 0 dropped, except the scalar's.
    Real coefficients, as every probe gives, stay real."""
    coeffs = [form.quad, form.linear, form.center, form.scalar]
    if not any(np.any(np.imag(c)) for c in coeffs):
        coeffs = [np.real(c) for c in coeffs]
    quad, linear, center, scalar = coeffs
    basis = (("a", ""), ("", "a"), ("A", ""), ("", "A"))  # a1, a2, a1^dag, a2^dag
    delta = [((1.0, *words), (-c, "", "")) for words, c in zip(basis, center)]
    terms = []
    for i in range(4):
        dagger = [(np.conj(c), u[::-1].swapcase(), v[::-1].swapcase()) for c, u, v in delta[i]]
        terms += [(linear[i] * c, u, v) for c, u, v in dagger]
        for j in range(4):
            terms += [
                (quad[i, j] * c1 * c2, u1 + u2, v1 + v2)
                for c1, u1, v1 in dagger
                for c2, u2, v2 in delta[j]
            ]
    return [(scalar, "", "")] + [term for term in terms if term[0] != 0]


class _Solution(NamedTuple):
    """The Williamson-basis solve of a family at its working point: the
    eigenvalues lambda_i = +-1/nu_k, R, the quotient Q, the transported
    derivative Z, R^dag dd_c and the displacement in the complex basis
    (module docstring); and ``fixed``, the flat indices ``_MIXING`` of the
    entries of G where a two-mode family's moments and their derivatives are
    all 0.0, else none: such a family is invariant under
    exp(i phi (n_1 - n_2)), as K is, so G is 0 there exactly."""

    lam: np.ndarray
    r: np.ndarray
    q: np.ndarray
    z: np.ndarray
    proj: np.ndarray
    center: np.ndarray
    fixed: np.ndarray

    def result(self) -> QfiResult:
        """H = Re Tr(Z Q) / 2 + 2 |R^dag dd_c|^2, term by term, with the
        symplectic eigenvalues nu = 1 / |lambda|. A value that leaves the
        float range raises ArithmeticError."""
        term_cov = 0.5 * float(np.vdot(self.z, self.q).real)
        term_disp = 2.0 * float(np.vdot(self.proj, self.proj).real)
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

    def form(self) -> SldForm:
        """The logarithmic derivative: G = R Q R^dag, linear = 2 R R^dag dd_c
        and scalar = -Tr(Sigma G) / 2 = -sum_i (1 - lambda_i) Q_ii / 2."""
        quad = self.r @ self.q @ self.r.conj().T
        quad = 0.5 * (quad + quad.conj().T)
        np.put(quad, self.fixed, 0.0)
        return SldForm(
            quad=quad.astype(complex),
            linear=(2.0 * (self.r @ self.proj)).astype(complex),
            scalar=-0.5 * float(np.sum((1.0 - self.lam) * np.diagonal(self.q)).real),
            center=self.center.copy(),
        )


@lru_cache(maxsize=16)
def _solve(family: StateFamily) -> _Solution:
    """Solve Sigma G Sigma - K G K = dSigma in the Williamson basis of Sigma.

    The real moment derivatives map to the complex basis by the same unitary
    W as the moments: dSigma_c = W dSigma W^dag and dd_c = W dd. Memoised per
    family, so every kernel on one family shares one solve; its arrays are
    read-only, and an error is raised again on every call. A covariance
    whose smallest eigenvalue is within n eps of its largest raises
    NumericalInstabilityError; no family of the package reaches that inside
    the photon-number domain.
    """
    state, dcov, ddisp = family.derivative()
    n = state.n_modes
    cov_c = _in_complex_basis(state.cov)

    ev, u = np.linalg.eigh(cov_c)
    if not ev[0] > len(ev) * np.finfo(float).eps * ev[-1]:
        raise NumericalInstabilityError(
            f"covariance eigenvalue {ev[0]:.3e} is within float64 round-off of the largest, "
            f"{ev[-1]:.3e}: float64 cannot resolve the state"
        )
    inv_half = (u / np.sqrt(ev)) @ u.conj().T
    k_inv_half = inv_half.copy()
    k_inv_half[n:] *= -1.0
    lam, v = np.linalg.eigh(inv_half @ k_inv_half)
    r = inv_half @ v
    rh = r.conj().T
    dcov_c, dd_c = _in_complex_basis(dcov), _in_complex_basis(ddisp)
    center = _in_complex_basis(state.disp)
    z = rh @ dcov_c @ r
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
    q = z / den
    symmetric = n == 2 and not (
        np.count_nonzero(center) or np.count_nonzero(dd_c)
        or np.count_nonzero(cov_c.take(_MIXING)) or np.count_nonzero(dcov_c.take(_MIXING))
    )
    solution = _Solution(
        lam=lam,
        r=r,
        q=q,
        z=z,
        proj=rh @ dd_c,
        center=center.astype(complex),
        fixed=_MIXING if symmetric else _NONE,
    )
    for array in solution:
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


# the entries a number/pair observable leaves empty: all but both diagonals
_UNPAIRED = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _coefficients_from_form(form: SldForm) -> SldCoefficients:
    """Extract number/pair coefficients from a two-mode displacement-free form."""
    q = form.quad
    if q.shape != (4, 4):
        raise ValueError("coefficient extraction needs a two-mode form")
    if np.max(np.abs(form.center)) > _STRUCTURE_TOL or np.max(np.abs(form.linear)) > _STRUCTURE_TOL:
        raise ValueError("coefficient extraction needs a displacement-free family")
    abs_q = np.abs(q)
    stray = abs_q[_UNPAIRED].max()
    scale = max(abs_q.max(), 1.0)
    if stray > _STRUCTURE_TOL * scale:
        raise ValueError(
            f"quadratic form has beam-splitter/single-mode terms of size {stray:.3e}; "
            "not a pair-correlated observable"
        )
    l11 = float((q[0, 0] + q[2, 2]).real)
    l22 = float((q[1, 1] + q[3, 3]).real)
    l12 = float((q[0, 3] + q[1, 2]).real)
    l0 = float((q[2, 2] + q[3, 3]).real) + form.scalar
    return SldCoefficients(l11=l11, l22=l22, l12=l12, l0=l0)


def optimal_observable(family: StateFamily) -> SldCoefficients:
    """Coefficients of the Cramer-Rao-saturating observable L/H at lambda0 = 0."""
    solution = _solve(family)
    h = solution.result().value
    if h <= 0.0:
        raise NoInformationError(f"QFI is {h}; cannot normalise the observable")
    raw = _coefficients_from_form(solution.form())
    return SldCoefficients(raw.l11 / h, raw.l22 / h, raw.l12 / h, raw.l0 / h)


def sld_coeffs_closed_form(eta1: float, n_s: float, n_th: float) -> SldCoefficients:
    """Closed-form coefficients of the optimal entangled-probe observable.

    The quadratic coefficients are rational functions of the operating point;
    the constant is fixed by the zero-mean condition at the working point,
    <O> = 0, which any normalised logarithmic derivative satisfies exactly.
    Where n_s = n_th = 0 there is no information to normalise by, and it
    raises ValueError, as :func:`bifrost.qfi.hq_closed_form` does.
    """
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
