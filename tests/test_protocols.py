"""Protocol assembly: received states, advantage ratios, regressions."""

import re
import warnings

import mpmath
import numpy as np
import pytest

import bifrost as bf
import tangent_reference
from bifrost import fock
from bifrost.errors import check_photon_numbers
from bifrost.gaussian import normal_modes
from bifrost.protocols import (
    HBAR,
    K_B,
    BiFrequencyParams,
    bifrequency_advantage,
    bifrequency_received_state,
    noise_factor_ratio,
    qi_classical_qfi,
    qi_classical_qfi_numeric,
    qi_quantum_qfi,
    qi_quantum_qfi_numeric,
    qi_ratio,
    thermal_equal_occupation,
)
from bifrost.qfi import qfi_gaussian

# the one message of the photon-number domain check
DOMAIN_ERROR = re.escape("photon numbers must be 0 or lie in [1e-06, 1e+06]")

SZ = np.diag([1.0, -1.0])


def test_received_entries_match_formulas():
    rng = np.random.default_rng(7)
    for _ in range(100):
        eta1 = rng.uniform(0.05, 0.95)
        lam = rng.uniform(-min(eta1, 0.04), min(1.0 - eta1, 0.04))
        n_s = rng.uniform(0.0, 4.0)
        n_th = rng.uniform(0.0, 4.0)
        family = bifrequency_received_state(
            BiFrequencyParams(eta1, 0.0, n_s, n_th), "tmsv"
        )
        cov = family.eval(lam).cov
        a = 1.0 + 2.0 * n_th + 2.0 * eta1 * (2.0 * n_s - n_th)
        b = 2.0 * np.sqrt(2.0) * np.sqrt(eta1) * np.sqrt(n_s * (2.0 * n_s + 1.0)) * np.sqrt(eta1 + lam)
        c_lam = 1.0 + 2.0 * n_th + 2.0 * (eta1 + lam) * (2.0 * n_s - n_th)
        expected = np.block([[a * np.eye(2), b * SZ], [b * SZ, c_lam * np.eye(2)]])
        assert np.max(np.abs(cov - expected)) < 1e-12


def test_received_no_target_is_thermal_pair():
    family = bifrequency_received_state(BiFrequencyParams(0.0, 0.0, 1.0, 2.0), "tmsv")
    state = family.eval(0.0)
    assert np.allclose(state.cov, 5.0 * np.eye(4))
    assert np.allclose(state.disp, np.zeros(4))


def test_received_coherent_displacement():
    eta1, lam, n_s = 0.4, 0.07, 1.44
    family = bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, 0.5), "coherent")
    disp = family.eval(lam).disp
    alpha = np.sqrt(n_s)
    expected = alpha * np.array(
        [np.sqrt(2.0 * eta1), 0.0, np.sqrt(2.0 * (eta1 + lam)), 0.0]
    )
    assert np.allclose(disp, expected, atol=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        BiFrequencyParams(1.1, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BiFrequencyParams(0.9, 0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        BiFrequencyParams(0.5, 0.0, -1.0, 1.0)
    for bad in (np.nan, np.inf, 1e300, np.nextafter(1e-6, 0.0), np.nextafter(1e6, np.inf)):
        with pytest.raises(ValueError, match=DOMAIN_ERROR):
            BiFrequencyParams(0.5, 0.0, bad, 1.0)
        with pytest.raises(ValueError, match=DOMAIN_ERROR):
            BiFrequencyParams(0.5, 0.0, 1.0, bad)
    with pytest.raises(ValueError):
        bifrequency_received_state(BiFrequencyParams(0.5, 0.0, 1.0, 1.0), "squeezed")


# each entry point that evaluates one operating point, with an array, a list
# or a complex number at one argument, and that argument's name
POINT_CALLS_WITH_A_WRONG_NUMBER = [
    (BiFrequencyParams, (0.5, 0.0, np.array([1.0, 2.0]), 1.0), "n_s"),
    (BiFrequencyParams, (np.array([0.5]), 0.0, 1.0, 1.0), "eta1"),
    (BiFrequencyParams, (0.5, [0.0], 1.0, 1.0), "lam"),
    (bf.jpa_circuit_solve, (np.array([1.0, 2.0]),), "n_s"),
    (bf.coherent_observable, (np.array([0.5]), 1.0, 1.0), "eta1"),
    (bf.coherent_observable, (0.5, 1.0, np.array([[1.0]])), "alpha"),
    (qi_classical_qfi, (0.5, np.array([1.0, 2.0]), 1.0), "n_s"),
    (qi_quantum_qfi_numeric, (np.array([0.5]), 1.0, 1.0), "eta"),
    (qi_classical_qfi_numeric, (0.5, 1.0, np.array([1.0])), "n_th"),
    (thermal_equal_occupation, (3e10, np.array([6e9]), 300.0), "delta_omega"),
    (fock.bifrequency_fock_family, (0.5, np.array([0.1]), 0.1, "coherent", 10), "n_s"),
    (fock.bifrequency_fock_family, (0.5, 0.1, 0.1, "tmsv", np.array([10])), "cutoff"),
    (BiFrequencyParams, (0.5j, 0.0, 1.0, 1.0), "eta1"),
    (bf.jpa_circuit_solve, (1.0 + 0j,), "n_s"),
    (fock.bifrequency_fock_family, (0.5, 0.1, 0.1, "tmsv", 10j), "cutoff"),
]


@pytest.mark.parametrize("call, args, name", POINT_CALLS_WITH_A_WRONG_NUMBER)
def test_a_point_entry_point_refuses_what_is_not_a_real_scalar(call, args, name):
    """An entry point that evaluates one operating point takes real
    scalars: an array or a list, even of one element, or a complex number
    raises one ValueError that names the argument (``errors.check_scalars``),
    where it returned array fields, a value for the second mode's n_s alone,
    numpy's ambiguous truth value, a TypeError or, for a complex cutoff, an
    OverflowError. The photon-number check and the closed forms keep taking
    arrays."""
    with pytest.raises(ValueError, match=f"^{name} must be a real scalar, not "):
        call(*args)
    check_photon_numbers(np.array([0.0, 1.0]))
    assert bf.hq_closed_form(0.5, np.array([1.0, 2.0]), 1.0).shape == (2,)
    assert qi_ratio(np.array([1.0, 2.0]), 1.0).shape == (2,)


def test_params_error_names_the_second_reflectivity():
    """A second reflectivity outside [0, 1] is named by its value,
    eta1 + lambda as the sum rounds."""
    with pytest.raises(ValueError, match=re.escape(f"eta1 + lambda = {0.9 + 0.2!r} outside [0, 1]")):
        BiFrequencyParams(0.9, 0.2)


def test_advantage_inside_enhancement_region():
    h_q, h_c, ratio = bifrequency_advantage(BiFrequencyParams(0.95, 0.0, 1.0, 1.0))
    assert ratio > 1.0
    assert h_q > h_c


def test_advantage_no_photons_no_gain():
    for n_th in (0.5, 1.0, 5.0):
        _, _, ratio = bifrequency_advantage(BiFrequencyParams(0.8, 0.0, 0.0, n_th))
        assert abs(ratio - 1.0) < 1e-9


def test_advantage_noiseless_point():
    h_q, h_c, ratio = bifrequency_advantage(BiFrequencyParams(0.5, 0.0, 1.0, 0.0))
    assert np.isclose(h_c, 2.0, rtol=1e-12)
    assert np.isclose(ratio, h_q / 2.0, rtol=1e-12)


def test_advantage_cross_checked_against_pipeline():
    p = BiFrequencyParams(0.65, 0.0, 0.9, 1.1)
    h_q, h_c, _ = bifrequency_advantage(p)
    for kernel in (bf.qfi_complex_form, lambda family: qfi_gaussian(family).value):
        assert np.isclose(h_q, kernel(bifrequency_received_state(p, "tmsv")), rtol=1e-6)
        assert np.isclose(h_c, kernel(bifrequency_received_state(p, "coherent")), rtol=1e-6)


def test_noise_factor_ratio_behaviour():
    low = noise_factor_ratio(0.076, 0.5, 0.76)
    high = noise_factor_ratio(0.076, 0.95, 0.76)
    assert high > low
    assert noise_factor_ratio(1e5, 0.5, 0.76) > 0.0
    # n_th = 7.6e-10 lies below the photon-number domain
    with pytest.raises(ValueError, match="photon numbers must be 0 or lie in"):
        noise_factor_ratio(1e9, 0.5, 0.76)


def test_noise_factor_ratio_checks_its_beta():
    """beta is a real scalar with 0 < beta, and the error names it; NaN
    fails, and beta = inf is the noiseless point n_th = 0."""
    for bad in (np.array([1.0]), 1j):
        with pytest.raises(ValueError, match="^beta must be a real scalar, not "):
            noise_factor_ratio(bad, 0.5, 1.0)
    for bad in (np.nan, 0.0, -1.0, -np.inf):
        with pytest.raises(ValueError, match="^noise factor beta must be positive, not "):
            noise_factor_ratio(bad, 0.5, 1.0)
    assert noise_factor_ratio(np.inf, 0.5, 1.0) == 2.5


# --- quantum illumination -------------------------------------------------

def test_qi_noiseless():
    assert np.isclose(qi_quantum_qfi(0.7, 0.0), 4.0 * 0.7, rtol=1e-12)
    assert np.isclose(qi_classical_qfi(0.0, 0.7, 0.0), 4.0 * 0.7, rtol=1e-12)
    assert np.isclose(qi_ratio(0.7, 0.0), 1.0, rtol=1e-12)


def test_qi_asymptotic_advantage():
    assert abs(qi_ratio(1e-4, 1e4) - 2.0) < 1e-3


def test_qi_ratio_identity():
    for n_s in (0.1, 0.5, 1.0):
        for n_th in (0.5, 2.0, 10.0):
            expected = (n_s + 1.0) * (2.0 * n_th + 1.0) / (
                2.0 * n_s * n_th + n_s + n_th + 1.0
            )
            assert np.isclose(qi_ratio(n_s, n_th), expected, rtol=1e-12)


def test_qi_numeric_pipeline_grid():
    for n_s in (0.1, 0.5, 1.0):
        for n_th in (0.5, 2.0, 10.0):
            hq = qi_quantum_qfi_numeric(1e-4, n_s, n_th)
            assert abs(hq - qi_quantum_qfi(n_s, n_th)) / qi_quantum_qfi(n_s, n_th) < 1e-4
            hc = qi_classical_qfi_numeric(1e-4, n_s, n_th)
            closed = qi_classical_qfi(1e-4, n_s, n_th)
            assert abs(hc - closed) / closed < 1e-4


def test_qi_numeric_pipeline_is_three_modes():
    from bifrost.protocols import _qi_quantum_received

    state = _qi_quantum_received(1e-4, 0.5, 2.0).eval(1e-4)
    assert state.n_modes == 2  # received pair after tracing the loss mode
    assert np.isclose(state.cov[2, 2], 2.0 * 0.5 + 1.0, rtol=1e-10)


def _arrays(tangent):
    state, dcov, ddisp = tangent
    return [state.cov, state.disp, dcov, ddisp]


def _assert_same_bits(arrays, reference):
    for a, b in zip(arrays, reference, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _physical(family, arrays):
    """A family's arrays in the physical modes."""
    return [normal_modes(a) for a in arrays] if family.in_normal_modes else arrays


def test_channel_family_tangents_match_reference_composition():
    """The quantum-illumination families' tangents equal bit for bit the
    composition of checked parts in ``tangent_reference``. The bi-frequency
    families' closed forms, taken to the physical modes, and their eval
    match that composition to 1e-14 of its largest moment (1.1e-15 at
    worst), over the domain and off the working point."""
    from bifrost.protocols import _qi_classical_received, _qi_quantum_received

    rng = np.random.default_rng(2015)
    for _ in range(60):
        eta1 = float(rng.uniform(1e-6, 1.0 - 1e-6))
        n_s, n_th = (float(v) for v in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2)))
        lam = float(rng.choice([0.0, rng.uniform(-eta1, 1.0 - eta1)]))
        for probe in ("tmsv", "coherent"):
            family = bifrequency_received_state(BiFrequencyParams(eta1, lam, n_s, n_th), probe)
            reference = _arrays(tangent_reference.bifrequency_tangent(eta1, lam, n_s, n_th, probe))
            state = family.eval(lam)
            scale = max(np.max(np.abs(a)) for a in reference)
            pairs = zip(_physical(family, _arrays(family.derivative())) + [state.cov, state.disp],
                        reference + reference[:2], strict=True)
            for a, b in pairs:
                assert np.max(np.abs(a - b)) <= 1e-14 * scale, (eta1, lam, n_s, n_th, probe)
        amp = float(rng.uniform(0.0, 1.0))
        _assert_same_bits(
            _arrays(_qi_quantum_received(amp, n_s, n_th).derivative()),
            _arrays(tangent_reference.qi_quantum_tangent(amp, n_s, n_th)),
        )
        _assert_same_bits(
            _arrays(_qi_classical_received(amp, n_s, n_th).derivative()),
            _arrays(tangent_reference.qi_classical_tangent(amp, n_s, n_th)),
        )


def _mp_tmsv_normal_modes(eta1, eta2, n_s, n_th):
    """(u, v, w, du, dv, dw) of ``protocols._tmsv_received``'s docstring in
    50-digit arithmetic at the same float inputs, each with the sum of the
    magnitudes of its terms."""
    with mpmath.workdps(50):
        eta1, eta2, n_s, n_th = (mpmath.mpf(x) for x in (eta1, eta2, n_s, n_th))
        bath = 1 + 2 * n_th
        sinh = 2 * mpmath.sqrt(2 * n_s * (2 * n_s + 1))
        grow, cosh = 4 * n_s + sinh, 1 + 4 * n_s
        root1, root2 = mpmath.sqrt(eta1), mpmath.sqrt(eta2)
        rest = (1 - (eta1 + eta2) / 2) * bath + (root1 - root2) ** 2 / 2 * cosh
        shift = (1 - root1 / root2) * sinh
        u = rest + root1 * root2 * (1 + grow)
        v = rest + root1 * root2 / (1 + grow)
        return (
            (u, u),
            (v, v),
            ((eta1 - eta2) * (4 * n_s - 2 * n_th) / 2, abs(eta1 - eta2) * (4 * n_s + 2 * n_th) / 2),
            ((4 * n_s + root1 / root2 * sinh - 2 * n_th) / 2,
             (4 * n_s + root1 / root2 * sinh + 2 * n_th) / 2),
            ((-grow / (1 + grow) - 2 * n_th + shift) / 2,
             (grow / (1 + grow) + 2 * n_th + abs(shift)) / 2),
            (n_th - 2 * n_s, n_th + 2 * n_s),
        )


def test_normal_mode_moments_match_their_50_digit_expressions():
    """The entangled probe's normal-mode moments and derivatives are within
    8 eps of the sum of their terms' magnitudes from their own expressions
    evaluated in 50 digits, over the domain and off the working point: no
    entry loses digits but to a difference of its terms that the exact value
    shares. So u and v, sums of positive terms, are within 8 eps relative,
    and at zero gap dv is within 8 ulps. The other entries are exact zeros."""
    rng = np.random.default_rng(40)
    for _ in range(200):
        eta1 = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.0 - 1e-6))))
        n_s, n_th = (float(v) for v in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2)))
        lam = float(rng.choice([0.0, rng.uniform(-eta1, 1.0 - eta1)]))
        family = bifrequency_received_state(BiFrequencyParams(eta1, lam, n_s, n_th), "tmsv")
        state, dcov, _ = family.derivative()
        got = (state.cov[0, 0], state.cov[1, 1], state.cov[0, 2], dcov[0, 0], dcov[1, 1], dcov[0, 2])
        expected = _mp_tmsv_normal_modes(eta1, eta1 + lam, n_s, n_th)
        for value, (exact, scale) in zip(got, expected, strict=True):
            assert abs(value - exact) <= 8 * np.finfo(float).eps * scale, (eta1, lam, n_s, n_th)
        if lam == 0.0:
            exact_dv = float(expected[4][0])
            assert abs(dcov[1, 1] - exact_dv) <= 8 * np.spacing(abs(exact_dv))
        for m in (state.cov, dcov):
            assert m[0, 0] == m[3, 3] and m[1, 1] == m[2, 2] and m[0, 2] == m[1, 3] == m[2, 0] == m[3, 1]
            assert np.count_nonzero(m) <= 8


def test_eval_is_the_physical_map_of_the_tangent():
    """Each family's eval, in the physical modes, is the frame map of its
    tangent's state bit for bit, at the working point and off it."""
    for p in (BiFrequencyParams(0.37, 0.0, 0.8, 1.9), BiFrequencyParams(0.999999, -1e-6, 1e6, 1e-6),
              BiFrequencyParams(0.4, 0.2, 1e-6, 1e6)):
        for probe in ("tmsv", "coherent"):
            family = bifrequency_received_state(p, probe)
            for lam in (p.lam, p.lam / 2.0):
                state = family.eval(lam)
                tangent_state = _physical(family, _arrays(family.tangent(lam))[:2])
                _assert_same_bits([state.cov, state.disp], tangent_state)
            assert family.in_normal_modes == (probe == "tmsv")


def test_received_family_raises_on_every_call():
    """Out-of-range and NaN reflectivities raise on every call of eval and
    tangent; where eta1 + lambda lies on the edge of [0, 1] the family
    evaluates, and only the tangent raises its domain error."""
    for probe in ("tmsv", "coherent"):
        family = bifrequency_received_state(BiFrequencyParams(0.7, 0.0, 1.0, 1.0), probe)
        for lam in (0.5, -0.8, np.nan, np.inf):
            for _ in range(2):
                with pytest.raises(ValueError, match="reflectivity must lie in"):
                    family.eval(lam)
                with pytest.raises(ValueError, match="reflectivity must lie in"):
                    family.tangent(lam)
        for _ in range(2):
            assert family.eval(0.3).cov.shape == (4, 4)
            with pytest.raises(ValueError, match="strictly in"):
                family.tangent(0.3)


# --- thermal occupation approximation --------------------------------------

def test_thermal_approx_zero_gap():
    report = thermal_equal_occupation(2 * np.pi * 5e9, 0.0, 300.0)
    assert report.ratio == 1.0
    assert report.rel_error == 0.0


def test_thermal_approx_microwave_occupation():
    report = thermal_equal_occupation(2 * np.pi * 5e9, 0.0, 300.0)
    assert abs(report.occupation - 1250.0) / 1250.0 < 0.01


def test_thermal_approx_twenty_percent_gap():
    omega1 = 2 * np.pi * 5e9
    report = thermal_equal_occupation(omega1, 0.2 * omega1, 300.0)
    assert abs(report.rel_error - 0.04) < 0.005
    assert 0.0 < report.ratio <= 1.0


def test_thermal_approx_taylor_remainder():
    """Remainder of the linearised ratio scales away with the gap.

    The leading remainder is beta*delta/2 plus (delta/omega1)^2, so a gap with
    beta*delta ~ 1e-8 sits comfortably under 1e-7.
    """
    omega1 = 2 * np.pi * 5e9
    temperature = 300.0
    beta = 1.0545718176461565e-34 / (1.380649e-23 * temperature)
    report = thermal_equal_occupation(omega1, 1e-8 / beta, temperature)
    assert abs(report.ratio - report.first_order) < 1e-7
    coarse = thermal_equal_occupation(omega1, 1e-6 / beta, temperature)
    assert abs(report.ratio - report.first_order) < abs(coarse.ratio - coarse.first_order)


def test_thermal_approx_validation():
    with pytest.raises(ValueError):
        thermal_equal_occupation(0.0, 1.0, 300.0)
    with pytest.raises(ValueError):
        thermal_equal_occupation(1e9, 1.0, -1.0)
    for args in ((np.nan, 1.0, 300.0), (np.inf, 1.0, 300.0), (1e9, np.nan, 300.0),
                 (1e9, np.inf, 300.0), (1e9, 1.0, np.nan), (1e9, 1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            thermal_equal_occupation(*args)


@pytest.mark.parametrize(
    "omega1, temperature",
    [(2 * np.pi * 5e9, 1e-300), (2 * np.pi * 1e21, 300.0)],
    ids=["cold", "optical"],
)
def test_thermal_approx_far_above_the_bath_energy(omega1, temperature):
    """hbar omega1 / (k_B T) far above 710, where e^x overflows: the
    occupation is 0 and the ratio 1 / (1 + beta delta), finite and without a
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = thermal_equal_occupation(omega1, 0.2 * omega1, temperature)
    beta = HBAR / (K_B * temperature)
    assert report.occupation == 0.0
    assert report.ratio == pytest.approx(1.0 / (1.0 + beta * 0.2 * omega1), rel=1e-15)
    assert np.isfinite(report.rel_error)


@pytest.mark.parametrize(
    "omega1, delta, temperature",
    [(2 * np.pi * 1e-291, 0.0, 1e300), (2 * np.pi * 5e9, 0.2 * 2 * np.pi * 5e9, 1e-310),
     (2 * np.pi * 1e20, 0.2 * 2 * np.pi * 1e20, 1e-300)],
    ids=["x-rounds-to-zero", "beta-overflows", "ratio-underflows"],
)
def test_thermal_approx_outside_the_float_range_raises(omega1, delta, temperature):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="leaves the float range"):
            thermal_equal_occupation(omega1, delta, temperature)
