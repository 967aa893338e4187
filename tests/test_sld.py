"""Logarithmic derivatives, optimal observables and the circuit solver."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

import bifrost as bf
import tangent_reference as tr
from bifrost.errors import DegenerateStateError, NoInformationError
from bifrost.protocols import (
    BiFrequencyParams,
    _qi_classical_received,
    _qi_quantum_received,
    bifrequency_received_state,
)
from bifrost.qfi import StateFamily, qfi_gaussian
from bifrost.sld import _in_complex_basis, complex_basis_matrix, sld
from bifrost.validate import ORACLE_CONFIGS
from family_difference import difference_family

# the one message of the photon-number domain check
DOMAIN_ERROR = re.escape("photon numbers must be 0 or lie in [1e-06, 1e+06]")


def tmsv_family(eta1, n_s, n_th, lam0=0.0):
    return bifrequency_received_state(BiFrequencyParams(eta1, lam0, n_s, n_th), "tmsv")


def coherent_family(eta1, n_s, n_th, lam0=0.0):
    return bifrequency_received_state(BiFrequencyParams(eta1, lam0, n_s, n_th), "coherent")


# --- complex basis ----------------------------------------------------------

def test_complex_basis_unitary():
    for n in (1, 2, 3):
        w = complex_basis_matrix(n)
        assert np.allclose(w @ w.conj().T, np.eye(2 * n))


def test_vacuum_pair_complex_identity():
    vacuum = bf.GaussianState(np.eye(4), np.zeros(4))
    assert np.allclose(_in_complex_basis(vacuum.cov), np.eye(4))
    assert np.allclose(_in_complex_basis(vacuum.disp), np.zeros(4))


def test_reality_structure_received_state():
    state = tmsv_family(0.9, 1.0, 0.5).eval(0.0)
    cov_c = _in_complex_basis(state.cov)
    x = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    assert np.allclose(cov_c, x @ cov_c.conj() @ x)


def test_coherent_displacement_complex():
    disp_c = _in_complex_basis(tr.tensor(tr.coherent(0.7, 0.2), tr.thermal(0.0)).disp)
    assert np.allclose(disp_c[0], 0.7 + 0.2j)
    assert np.allclose(disp_c[2], 0.7 - 0.2j)


# --- logarithmic derivative --------------------------------------------------

def test_sld_constant_family_vanishes():
    pair = tr.tensor(tr.thermal(1.0), tr.thermal(0.5))
    family = difference_family(lambda lam: pair)
    form = sld(family)
    assert np.max(np.abs(form.quad)) < 1e-10
    assert np.max(np.abs(form.linear)) < 1e-10
    assert abs(form.scalar) < 1e-10


def test_sld_coherent_family_structure():
    """Covariance information sits in the second mode's number operator only."""
    form = sld(coherent_family(0.6, 1.0, 0.8))
    q = form.quad
    assert abs(q[0, 0]) < 1e-9 and abs(q[2, 2]) < 1e-9
    assert abs(q[1, 1]) > 1e-3 and abs(q[3, 3]) > 1e-3
    assert np.allclose(q[1, 1], q[3, 3])
    off = q.copy()
    off[np.diag_indices(4)] = 0.0
    assert np.max(np.abs(off)) < 1e-9
    assert np.max(np.abs(form.linear[[0, 2]])) < 1e-9
    assert np.max(np.abs(form.linear[[1, 3]])) > 1e-3


def test_sld_zero_mean_gaussian():
    """Tr[rho L] = -Tr[K quad]/2 must vanish for the solved form."""
    k = np.diag([1.0, 1.0, -1.0, -1.0])
    for family in (tmsv_family(0.7, 1.0, 0.4), coherent_family(0.7, 1.0, 0.4)):
        form = sld(family)
        assert abs(np.trace(k @ form.quad).real) < 1e-9


def test_optimal_observable_zero_mean():
    """<O> = 0, also near a pure state, where the entries of the form are
    large beside its constant."""
    for eta1, n_s, n_th in [(0.75, 1.0, 1.0), (0.4, 0.3, 2.0), (0.82, 1.4e-6, 1.2e-6)]:
        family = tmsv_family(eta1, n_s, n_th)
        coeffs = bf.optimal_observable(family)
        state = family.eval(0.0)
        n1 = 0.5 * (state.cov[0, 0] - 1.0)
        n2 = 0.5 * (state.cov[2, 2] - 1.0)
        pair = state.cov[0, 2]
        mean = coeffs.l11 * n1 + coeffs.l22 * n2 + coeffs.l12 * pair + coeffs.l0
        assert abs(mean) < 1e-9


def test_optimal_observable_matches_closed_form_point():
    num = bf.optimal_observable(tmsv_family(0.75, 1.0, 1.0))
    closed = bf.sld_coeffs_closed_form(0.75, 1.0, 1.0)
    for a, b in zip(num.as_tuple(), closed.as_tuple()):
        assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)


@pytest.mark.parametrize(
    "point", [(1e-300, 0.5, 1e300), (1e-6, 1e100, 1e100), (1e-6, 1.0, 1.3e154)],
    ids=["power-overflows", "nan-coefficients", "scalar-overflow"],
)
def test_closed_form_outside_the_float_range_raises(point):
    """The points where a power overflowed or a coefficient was not finite
    lie outside the photon-number domain: each raises its ValueError, with
    no warning. Inside it s^3 <= 1e18, and at the domain's corners every
    coefficient is finite."""
    with pytest.raises(ValueError, match=DOMAIN_ERROR):
        bf.sld_coeffs_closed_form(*point)
    for eta1 in (5e-324, 1e-6, 0.5, 1.0 - 1e-16):
        for n_s, n_th in itertools.product((0.0, 1e-6, 1e6), repeat=2):
            if n_s or n_th:
                coeffs = bf.sld_coeffs_closed_form(eta1, n_s, n_th).as_tuple()
                assert np.all(np.isfinite(coeffs)), (eta1, n_s, n_th)


def test_closed_form_at_the_vacuum_is_the_no_photons_error():
    """At n_s = n_th = 0 the closed form raises the ValueError of
    ``hq_closed_form``, not a bare ZeroDivisionError."""
    for eta1 in (0.5, np.float64(0.5)):
        with pytest.raises(ValueError, match="^no photons anywhere: the QFI expression degenerates$"):
            bf.sld_coeffs_closed_form(eta1, 0.0, 0.0)


def test_closed_form_matches_numeric_grid():
    for eta1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n_s in (0.1, 1.0, 5.0):
            for n_th in (0.0, 0.5, 5.0):
                num = bf.optimal_observable(tmsv_family(eta1, n_s, n_th))
                closed = bf.sld_coeffs_closed_form(eta1, n_s, n_th)
                for a, b in zip(num.as_tuple(), closed.as_tuple()):
                    assert abs(a - b) <= 1e-6 * max(abs(b), 1e-3)


def test_noiseless_high_reflectivity_structure():
    """Coefficients approach (-mu^2, -1, mu, -1) with mu^2 = 1 + 1/(2 n_s)."""
    mu = np.sqrt(1.5)
    closed = bf.sld_coeffs_closed_form(1.0 - 1e-9, 1.0, 0.0)
    assert np.isclose(closed.l11, -1.5, atol=1e-6)
    assert np.isclose(closed.l22, -1.0, atol=1e-6)
    assert np.isclose(closed.l12, mu, atol=1e-6)
    assert np.isclose(closed.l0, -1.0, atol=1e-6)
    numeric = bf.optimal_observable(tmsv_family(0.99, 1.0, 0.0))
    assert abs(numeric.l11 + 1.5) < 0.05
    assert abs(numeric.l22 + 1.0) < 0.05
    assert abs(numeric.l12 - mu) < 0.05


def test_high_reflectivity_limits_general_noise():
    """eta1 -> 1 closed forms against the printed limit expressions.

    The quadratic coefficients approach the published limit forms; the
    pair-term limit as published carries a spurious factor of two relative to
    the general expression (which the oracle residual tests confirm), so it is
    pinned at half the published value. The constant is fixed by zero mean.
    """
    n_s, n_th = 1.0, 1.0
    denom = n_s**2 * (8.0 * n_th * (n_th + 1.0) + 4.0) + 4.0 * n_s * n_th**2 + n_th**2
    lim_l11 = -2.0 * n_s * (2.0 * n_s + 1.0) * (2.0 * n_th + 1.0) / denom
    lim_l22 = -(4.0 * n_s * (2.0 * n_s * n_th + n_s + n_th) + n_th) / denom
    lim_l12_published = (
        2.0 * np.sqrt(2.0) * np.sqrt(n_s * (2.0 * n_s + 1.0))
        * (n_s * (4.0 * n_th + 2.0) + n_th) / denom
    )
    closed = bf.sld_coeffs_closed_form(1.0 - 1e-9, n_s, n_th)
    assert np.isclose(closed.l11, lim_l11, rtol=1e-6)
    assert np.isclose(closed.l22, lim_l22, rtol=1e-6)
    assert np.isclose(closed.l12, lim_l12_published / 2.0, rtol=1e-6)


def test_optimal_observable_no_information():
    pair = tr.tensor(tr.thermal(1.0), tr.thermal(1.0))
    family = difference_family(lambda lam: pair)
    with pytest.raises(NoInformationError):
        bf.optimal_observable(family)


def test_qfi_complex_form_agrees_with_symplectic_route():
    for family in (tmsv_family(0.6, 0.9, 1.2), coherent_family(0.6, 0.9, 1.2)):
        assert np.isclose(
            bf.qfi_complex_form(family), qfi_gaussian(family).value, rtol=1e-9
        )


# the edge points of the ``qfi`` and ``sld`` command tests
SLD_EDGE_POINTS = [
    (0.8053, 2.86e-6, 1e-6), (0.5, 1e-6, 1e-6), (0.999999, 1.0, 1.0),
    (0.999999, 1e6, 1e-6), (0.999999, 1e-6, 1e-6),
]


@pytest.mark.parametrize("point", SLD_EDGE_POINTS, ids=repr)
def test_observable_at_the_edge_points_matches_the_50_digit_coefficients(point):
    """At every edge point each coefficient of the optimal observable is
    within 1e-12 of ``sld_coeffs_closed_form`` in 50 digits, relative to
    the largest coefficient: 1.2e-13 at worst, l11 at (0.999999, 1e-6,
    1e-6)."""
    from closed_form_reference import mp_sld_coefficients

    numeric = bf.optimal_observable(tmsv_family(*point)).as_tuple()
    exact = [float(c) for c in mp_sld_coefficients(*point).as_tuple()]
    scale = max(abs(c) for c in exact)
    assert max(abs(a - b) for a, b in zip(numeric, exact)) < 1e-12 * scale, (numeric, exact)


def test_l22_near_the_vacuum_corner():
    """At (0.5, 1e-6, 1e-6) l22 (about -0.67) reads 1.6e-8 relative from its
    50-digit closed form, where l11 is -3.3e5: l22 is a difference of
    entries of Phi of the order of l11, and the stored covariance and
    tangent leave du / u + dv / v, the numerator of the largest quotient,
    1.3e-13 off, a sum that cancels by 1.4e3. It read 3.3e-8 when the solve
    read nu - 1 off the stored covariance."""
    from closed_form_reference import mp_sld_coefficients

    numeric = bf.optimal_observable(tmsv_family(0.5, 1e-6, 1e-6))
    exact = mp_sld_coefficients(0.5, 1e-6, 1e-6)
    assert float(abs(numeric.l22 - exact.l22) / abs(exact.l22)) < 2.5e-8


def test_large_signal_mixed_state_matches_closed_forms():
    """A strongly mixed received state at large signal and small noise, where
    a dense solve of the superoperator conj(Sigma) (x) Sigma - K (x) K is
    ill-conditioned (cond 5.7e14): the QFI and the observable match the
    closed forms, the observable at the benchmark's tolerance."""
    eta1, n_s, n_th = 0.807, 7.1e5, 3.7e-3
    family = tmsv_family(eta1, n_s, n_th)
    assert bf.qfi_result(family).nu_minus > 100.0
    h_q = bf.hq_closed_form(eta1, n_s, n_th)
    assert abs(bf.qfi_complex_form(family) - h_q) / h_q < 1e-6
    num = bf.optimal_observable(family)
    closed = bf.sld_coeffs_closed_form(eta1, n_s, n_th)
    for a, b in zip(num.as_tuple(), closed.as_tuple()):
        assert abs(a - b) <= 1e-6 * max(abs(b), 1e-3)


def test_noiseless_coherent_probe_is_pure_and_informative():
    """With no thermal photons the coherent probe's received state is pure and
    its covariance constant: the pure normal modes take the regularised
    value and the displacement carries the whole QFI, n_s / eta1 = 2."""
    assert bf.hc_closed_form(0.5, 1.0, 0.0) == 2.0
    family = coherent_family(0.5, 1.0, 0.0)
    assert abs(bf.qfi_complex_form(family) - 2.0) < 1e-12
    form = sld(family)
    assert np.max(np.abs(form.quad)) < 1e-12
    assert np.allclose(form.linear, np.sqrt(2.0) * np.array([0.0, 1.0, 0.0, 1.0]))


def test_pure_family_keeping_its_purity_has_the_pure_state_qfi():
    """A two-mode squeezed vacuum over its squeezing r stays pure while its
    covariance varies; the regularised solve gives the pure-state QFI
    Tr[(Sigma^-1 Sigma')^2] / 4 = 4."""
    def tangent(r):
        c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
        dcov = 2.0 * np.array([[s, 0, c, 0], [0, s, 0, -c], [c, 0, s, 0], [0, -c, 0, s]])
        return tr.two_mode_squeezed(r), dcov, np.zeros(4)

    family = StateFamily(eval=tr.two_mode_squeezed, tangent=tangent, lambda0=0.7)
    state, dcov, _ = family.derivative()
    x = np.linalg.solve(state.cov, dcov)
    assert np.isclose(0.25 * np.trace(x @ x), 4.0, rtol=1e-12)
    assert np.isclose(bf.qfi_complex_form(family), 4.0, rtol=1e-12)


def test_pure_state_changing_its_purity_raises():
    """The vacuum as the end of the thermal family n_th = l: pure at l = 0 with
    a covariance derivative 2 I that mixes it, where the QFI diverges. Every
    kernel reading the solve raises the documented error, never NaN, and
    raises it again on a second call, since no error is memoised."""
    family = StateFamily(
        eval=tr.thermal,
        tangent=lambda lam: (tr.thermal(lam), 2.0 * np.eye(2), np.zeros(2)),
        lambda0=0.0,
    )
    for kernel in (bf.qfi_complex_form, sld, bf.qfi_complex_form, sld):
        with pytest.raises(DegenerateStateError, match="purity"):
            kernel(family)


@pytest.mark.parametrize("eta1, n_s, n_th", ORACLE_CONFIGS)
def test_sld_coefficients_are_exactly_real(eta1, n_s, n_th):
    """A family without x-p correlations, as every probe of the package and
    both quantum-illumination pipelines give, has a form of float64 arrays,
    not complex ones with a zero imaginary part, so the Fock oracle builds
    its operator in real arithmetic."""
    families = (
        tmsv_family(eta1, n_s, n_th), coherent_family(eta1, n_s, n_th),
        _qi_quantum_received(eta1, n_s, n_th), _qi_classical_received(eta1, n_s, n_th),
    )
    for family in families:
        form = sld(family)
        assert [a.dtype for a in (form.quad, form.linear, form.center)] == [np.float64] * 3
        assert isinstance(form.scalar, float)


def _displaced(family, shift):
    """``family`` with every displacement moved by ``shift``, its derivatives kept."""
    def tangent(lam):
        state, dcov, ddisp = family.tangent(lam)
        return dataclasses.replace(state, disp=state.disp + shift), dcov, ddisp

    return StateFamily(eval=lambda lam: tangent(lam)[0], tangent=tangent, lambda0=family.lambda0)


@pytest.mark.parametrize("family", [coherent_family(0.7, 0.5, 0.3), _displaced(tmsv_family(0.75, 1.0, 1.0), 1e-9)],
                         ids=["coherent", "displaced-tmsv"])
def test_optimal_observable_needs_an_exactly_paired_family(family):
    """The solve alone decides the number/pair structure, exactly: the
    coherent probe, and a two-mode squeezed family displaced by 1e-9, whose
    linear terms a tolerance would drop, raise the one ValueError."""
    with pytest.raises(ValueError, match="^the optimal observable needs a number/pair-structured family"):
        bf.optimal_observable(family)


# --- coherent-probe observable ----------------------------------------------

def test_coherent_observable_prefactor():
    obs = bf.coherent_observable(0.5, 0.0, 1.0)
    assert np.isclose(obs.prefactor, -0.25)
    assert np.isclose(obs.center, 0.5)


def test_coherent_observable_expansion():
    eta1, n_th, alpha = 0.7, 0.4, 1.3
    obs = bf.coherent_observable(eta1, n_th, alpha)
    number, linear, const = obs.expansion()
    a = 0.5 * (eta1 - 1.0) * (1.0 - n_th * (eta1 - 1.0))
    assert np.isclose(number, 2.0 * a)
    assert np.isclose(linear, -2.0 * a * eta1 * np.sqrt(alpha))
    assert np.isclose(const, a * (1.0 + 2.0 * eta1**2 * alpha))


def test_coherent_observable_domain():
    for eta1 in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="strictly in"):
            bf.coherent_observable(eta1, 1.0, 1.0)
    for bad in (np.nan, np.inf, -1.0):
        for args in ((0.5, bad, 1.0), (0.5, 1.0, bad)):
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                bf.coherent_observable(*args)


# --- circuit solve -----------------------------------------------------------

def test_circuit_residuals_at_unit_signal():
    sol = bf.jpa_circuit_solve(1.0)
    assert sol.converged
    assert all(v < 1e-9 for v in sol.residuals.values())
    assert np.isclose(sol.mu, np.sqrt(1.5), rtol=1e-12)
    assert np.isclose(sol.commutator, 0.5, rtol=1e-9)


def test_circuit_symmetric_ansatz_structure():
    sol = bf.jpa_circuit_solve(0.8)
    p = sol.params
    assert np.isclose(p.r1, p.r2, atol=1e-9)
    assert np.isclose(p.theta, -p.varphi, atol=1e-9)
    assert np.isclose(abs(p.theta1 - p.theta2), np.pi, atol=1e-9)


def test_circuit_continuation_over_signal():
    for n_s in np.geomspace(1e-6, 1e6, 25):
        sol = bf.jpa_circuit_solve(float(n_s))
        assert sol.converged, f"no solution at n_s={n_s}"
        assert sol.residuals["norm"] < 1e-10


def test_circuit_rejects_zero_signal():
    with pytest.raises(ValueError):
        bf.jpa_circuit_solve(0.0)


def test_fock_sld_operator_on_a_product_is_real():
    """On a product state, a form with real coefficients gives a real
    ell_2, the sparse reference's block on the states |0, n2>; a form that
    acts on mode 2 with complex coefficients raises one ValueError, since
    the oracle's states are real."""
    import fock_reference
    from bifrost import fock
    from bifrost.sld import SldForm, _terms

    cutoff = 12
    state = fock.bifrequency_fock_family(0.8, 0.5, 0.3, "coherent", cutoff)(fock.LAMBDA0)
    form = sld(coherent_family(0.8, 0.5, 0.3))
    ell_2 = fock._laid_out(_terms(form), state)[0][0]
    assert ell_2.dtype == np.float64
    reference = fock_reference.sparse_sld_operator(form, cutoff).toarray()[:cutoff, :cutoff]
    assert np.max(np.abs(ell_2 - reference)) <= 1e-13 * np.max(np.abs(reference))

    rng = np.random.default_rng(5)
    on_mode_2 = np.isin(np.arange(4), (1, 3))  # a2, a2^dag
    quad_im = rng.standard_normal((4, 4)) * np.outer(on_mode_2, on_mode_2)
    shifted = SldForm(
        quad=form.quad + 1j * (quad_im + quad_im.T),
        linear=form.linear + 1j * rng.standard_normal(4) * on_mode_2,
        scalar=form.scalar,
        center=form.center,
    )
    with pytest.raises(ValueError, match="^the SLD form is complex, and the oracle's states are real$"):
        fock._laid_out(_terms(shifted), state)


def test_fock_sld_operator_matches_sparse_reference():
    """Laid out on a state kept as sectors, ell's blocks on every mirror
    pair equal the operator made of sparse two-mode ladder operators on
    those sectors, for the forms that keep n1 - n2: the entangled probe's,
    the zero form and random real ones. Of these and the coherent probe's
    form and a random one with a displaced center, ``fock._laid_out``
    refuses exactly those whose reference couples two sectors of different
    n1 - n2."""
    import fock_reference
    from bifrost import fock
    from bifrost.sld import SldForm, _terms

    cutoff = 10
    rng = np.random.default_rng(9)
    state = fock.FockState.sectors(rng.standard_normal((2, fock._start(cutoff, cutoff))))
    quad = rng.standard_normal((4, 4))
    forms = [
        sld(tmsv_family(0.8, 0.5, 0.3)),
        sld(coherent_family(0.8, 0.5, 0.3)),
        SldForm(quad=quad + quad.T, linear=rng.standard_normal(4), scalar=0.3, center=rng.standard_normal(4)),
        SldForm(quad=np.zeros((4, 4)), linear=np.zeros(4), scalar=0.0, center=np.zeros(4)),
    ]
    keeps = np.equal.outer(*2 * [np.array([-1, 1, 1, -1])])  # charges of a1, a2, a1^dag, a2^dag
    for _ in range(2):
        quad = rng.standard_normal((4, 4)) * keeps
        forms.append(SldForm(quad=quad + quad.T, linear=np.zeros(4), scalar=0.3, center=np.zeros(4)))
    sectors = fock_reference.sector_indices(cutoff)
    refused = []
    for number, form in enumerate(forms):
        reference = fock_reference.sparse_sld_operator(form, cutoff).toarray()
        coupled = {p - q for p, rows in enumerate(sectors) for q, cols in enumerate(sectors)
                   if np.any(reference[np.ix_(rows, cols)])}
        if coupled - {0}:
            refused.append(number)
            with pytest.raises(ValueError, match="changes n1 - n2"):
                fock._laid_out(_terms(form), state)
            continue
        scale = max(np.max(np.abs(reference)), 1.0)
        ell_blocks = [block for stack in fock._laid_out(_terms(form), state) for block in stack]
        for ell_block, idx in zip(ell_blocks, sectors, strict=True):
            assert np.max(np.abs(ell_block - reference[np.ix_(idx, idx)])) <= 1e-13 * scale
    assert refused == [1, 2]  # the coherent probe's form and the displaced one
