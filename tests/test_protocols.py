"""Protocol assembly: received states, advantage ratios, regressions."""

import re
import warnings

import numpy as np
import pytest

import bifrost as bf
import tangent_reference
from bifrost import fock
from bifrost.errors import check_photon_numbers
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


def test_channel_family_tangents_match_reference_composition():
    """Every channel family's tangent, and the bi-frequency family's eval,
    equal bit for bit the composition of checked parts in
    ``tangent_reference``, over the domain and off the working point."""
    from bifrost.protocols import _qi_classical_received, _qi_quantum_received

    rng = np.random.default_rng(2015)
    for _ in range(60):
        eta1 = float(rng.uniform(1e-6, 1.0 - 1e-6))
        n_s, n_th = (float(v) for v in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2)))
        lam = float(rng.choice([0.0, rng.uniform(-eta1, 1.0 - eta1)]))
        for probe in ("tmsv", "coherent"):
            family = bifrequency_received_state(BiFrequencyParams(eta1, lam, n_s, n_th), probe)
            reference = tangent_reference.bifrequency_tangent(eta1, lam, n_s, n_th, probe)
            _assert_same_bits(_arrays(family.derivative()), _arrays(reference))
            state = family.eval(lam)
            _assert_same_bits([state.cov, state.disp], _arrays(reference)[:2])
        amp = float(rng.uniform(0.0, 1.0))
        _assert_same_bits(
            _arrays(_qi_quantum_received(amp, n_s, n_th).derivative()),
            _arrays(tangent_reference.qi_quantum_tangent(amp, n_s, n_th)),
        )
        _assert_same_bits(
            _arrays(_qi_classical_received(amp, n_s, n_th).derivative()),
            _arrays(tangent_reference.qi_classical_tangent(amp, n_s, n_th)),
        )


def _outputs(p, probe):
    """The family's arrays at its working point: its tangent where it has one,
    else its state."""
    family = bifrequency_received_state(p, probe)
    try:
        return _arrays(family.derivative())
    except ValueError:
        state = family.eval(p.lam)
        return [state.cov, state.disp]


MEMO_POINTS = [
    BiFrequencyParams(0.37, 0.0, 0.8, 1.9),
    BiFrequencyParams(np.float64(0.37), 0.0, 0.8, 1.9),
    BiFrequencyParams(0.999999, 1e-6, 1e6, 1e-6),
    BiFrequencyParams(0.0, 0.0, 1.0, 1.0),
    BiFrequencyParams(-0.0, 0.0, 1.0, 1.0),
    BiFrequencyParams(-0.0, -0.0, 1.0, 1.0),
    BiFrequencyParams(0.4, -0.4, 1.0, 1.0),
]


def test_both_probes_share_one_read_only_channel():
    from bifrost.protocols import _bifrequency_channel, _bifrequency_channel_derivative

    for memo in (_bifrequency_channel, _bifrequency_channel_derivative):
        memo.cache_clear()
    p = BiFrequencyParams(0.61, 0.0, 0.3, 2.2)
    for probe in ("tmsv", "coherent"):
        family = bifrequency_received_state(p, probe)
        family.derivative()
        family.eval(p.lam)
    for memo in (_bifrequency_channel, _bifrequency_channel_derivative):
        info = memo.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1, info
    channel = _bifrequency_channel(0.61, 0.61)
    assert channel is _bifrequency_channel(0.61, 0.61)
    assert not channel.matrix.flags.writeable
    assert not _bifrequency_channel_derivative(0.61, 0.61).flags.writeable


@pytest.mark.parametrize("order", [("tmsv", "coherent"), ("coherent", "tmsv")])
def test_channel_memo_hit_gives_the_bits_of_a_miss(order):
    """Fresh memos give the bits of a miss. Then every point, -0.0 after 0.0
    and np.float64 after float among them, gives the same bits again with the
    memos filled, in either probe order."""
    from bifrost.protocols import _bifrequency_channel, _bifrequency_channel_derivative

    misses = []
    for p in MEMO_POINTS:
        for probe in order:
            for memo in (_bifrequency_channel, _bifrequency_channel_derivative):
                memo.cache_clear()
            misses.append(_outputs(p, probe))
    hits = [_outputs(p, probe) for p in MEMO_POINTS for probe in order]
    assert _bifrequency_channel.cache_info().hits > 0
    for hit, miss in zip(hits, misses, strict=True):
        _assert_same_bits(hit, miss)


def test_channel_memo_keeps_no_error():
    """Out-of-range and NaN reflectivities raise on every call and leave the
    memo as it was; the derivative's domain error stays on the tangent."""
    from bifrost.protocols import _bifrequency_channel

    family = bifrequency_received_state(BiFrequencyParams(0.7, 0.0, 1.0, 1.0), "tmsv")
    _bifrequency_channel.cache_clear()
    for lam in (0.5, -0.8, np.nan, np.inf):
        for _ in range(2):
            with pytest.raises(ValueError, match="reflectivity must lie in"):
                family.eval(lam)
            with pytest.raises(ValueError, match="reflectivity must lie in"):
                family.tangent(lam)
    assert _bifrequency_channel.cache_info().currsize == 0
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
