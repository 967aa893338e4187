"""Truncated Fock-space oracle against the Gaussian machinery."""

import numpy as np
import pytest

import bifrost as bf
from bifrost import fock
from bifrost.errors import CutoffTooSmallError


def mean_photon(state: fock.FockState) -> float:
    n = np.diag(np.arange(state.dim))
    return float(np.trace(state.rho @ n).real)


# --- states -------------------------------------------------------------

def test_thermal_vacuum_limit():
    state = fock.fock_thermal(0.0, 10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(state.rho, expected)


def test_thermal_mean_and_trace():
    state = fock.fock_thermal(0.5, 40)
    assert abs(mean_photon(state) - 0.5) < 1e-10
    assert abs(state.trace - 1.0) < 1e-10


def test_thermal_cutoff_gate():
    with pytest.raises(CutoffTooSmallError):
        fock.fock_thermal(5.0, 30)


def test_tmsv_vacuum_limit():
    state = fock.fock_tmsv(0.0, 5)
    assert np.isclose(state.rho[0, 0].real, 1.0)
    assert np.isclose(np.abs(state.rho).sum(), 1.0)


def test_tmsv_purity_and_reduced_covariance():
    state = fock.fock_tmsv(0.5)
    purity = float(np.trace(state.rho @ state.rho).real)
    assert abs(purity - 1.0) < 1e-9
    reduced = fock.fock_partial_trace(state, [0])
    assert abs(mean_photon(reduced) - 1.0) < 1e-6  # per-mode photon number 2 n_s
    cov, disp = fock.quadrature_moments(state)
    assert np.max(np.abs(cov - bf.tmsv(0.5).cov)) < 1e-6
    assert np.max(np.abs(disp)) < 1e-12


def test_coherent_moments():
    state = fock.fock_coherent(0.9)
    cov, disp = fock.quadrature_moments(state)
    assert np.max(np.abs(cov - np.eye(2))) < 1e-8
    assert np.allclose(disp, [0.9 * np.sqrt(2.0), 0.0], atol=1e-9)


# --- beam splitter --------------------------------------------------------

def test_beam_splitter_full_reflection_is_identity():
    u = fock.fock_beam_splitter(1.0, 12)
    assert np.allclose(u, np.eye(144))


def test_beam_splitter_zero_reflectivity_swaps():
    """At eta = 0 the kept slot carries the other input (mode swap with sign)."""
    u = fock.fock_beam_splitter(0.0, 18)
    th = fock.fock_thermal(0.3, 18)
    coh = fock.fock_coherent(0.5, 18)
    joint = np.kron(th.rho, coh.rho)
    out = fock.FockState(u @ joint @ u.conj().T, 18, 2)
    kept = fock.fock_partial_trace(out, [1])
    cov, disp = fock.quadrature_moments(kept)
    assert np.max(np.abs(cov - bf.thermal(0.3).cov)) < 1e-8
    assert np.max(np.abs(disp)) < 1e-9


def test_beam_splitter_unitary_interior():
    cutoff = 20
    u = fock.fock_beam_splitter(0.42, cutoff)
    defect = u.conj().T @ u - np.eye(cutoff * cutoff)
    totals = (np.arange(cutoff)[:, None] + np.arange(cutoff)[None, :]).ravel()
    interior = totals < cutoff - 5
    assert np.max(np.abs(defect[np.ix_(interior, interior)])) < 1e-9


def test_beam_splitter_moments_match_gaussian():
    cutoff = 30
    th = fock.fock_thermal(0.4, cutoff)
    coh = fock.fock_coherent(0.8, cutoff)
    joint = fock.FockState(np.kron(th.rho, coh.rho), cutoff, 2)
    u = fock.fock_beam_splitter(0.3, cutoff)
    after = fock.FockState(u @ joint.rho @ u.conj().T, cutoff, 2)
    cov_f, disp_f = fock.quadrature_moments(after)
    expected = bf.apply(bf.beam_splitter(0.3), bf.tensor(bf.thermal(0.4), bf.coherent(0.8)))
    assert np.max(np.abs(cov_f - expected.cov)) < 1e-6
    assert np.max(np.abs(disp_f - expected.disp)) < 1e-6


# --- channels -------------------------------------------------------------

def test_loss_channel_matches_gaussian_received_state():
    eta1, lam, n_s, n_th, cutoff = 0.7, 0.03, 0.4, 0.3, 25
    family = fock.bifrequency_fock_family(eta1, n_s, n_th, "tmsv", cutoff)
    cov, disp = fock.quadrature_moments(family(lam))
    from bifrost.protocols import BiFrequencyParams, bifrequency_received_state

    expected = bifrequency_received_state(
        BiFrequencyParams(eta1, 0.0, n_s, n_th), "tmsv"
    ).eval(lam)
    assert np.max(np.abs(cov - expected.cov)) < 1e-5
    assert np.max(np.abs(disp)) < 1e-9


def test_loss_channel_coherent_displacement():
    eta1, n_s, n_th, cutoff = 0.6, 0.5, 0.2, 25
    family = fock.bifrequency_fock_family(eta1, n_s, n_th, "coherent", cutoff)
    cov, disp = fock.quadrature_moments(family(0.0))
    alpha = np.sqrt(n_s)
    expected = alpha * np.array([np.sqrt(2 * eta1), 0.0, np.sqrt(2 * eta1), 0.0])
    assert np.allclose(disp, expected, atol=1e-7)


def test_channel_trace_preserving():
    family = fock.bifrequency_fock_family(0.5, 0.3, 0.2, "tmsv", 22)
    assert abs(family(0.0).trace - 1.0) < 1e-6


# --- QFI ------------------------------------------------------------------

def test_qfi_eq1_constant_family():
    state = fock.fock_thermal(0.4, 15)
    pair = fock.FockState(np.kron(state.rho, state.rho), 15, 2)
    assert fock.qfi_eq1(lambda lam: pair) < 1e-10


def test_qfi_eq1_matches_coherent_closed_form():
    family = fock.bifrequency_fock_family(0.5, 0.5, 0.2, "coherent", 30)
    h = fock.qfi_eq1(family)
    assert abs(h - bf.hc_closed_form(0.5, 0.5, 0.2)) / h < 1e-3


def test_qfi_eq1_matches_tmsv_closed_form():
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.2, "tmsv", 30)
    h = fock.qfi_eq1(family)
    assert abs(h - bf.hq_closed_form(0.8, 0.5, 0.2)) / h < 1e-3


def test_qfi_eq1_drop_threshold_stable():
    family = fock.bifrequency_fock_family(0.5, 0.2, 0.1, "tmsv", 24)
    h1 = fock.qfi_eq1(family, drop_threshold=1e-12)
    h2 = fock.qfi_eq1(family, drop_threshold=1e-10)
    assert abs(h1 - h2) / h1 < 1e-6


def test_eigenvalue_sum_rule():
    family = fock.bifrequency_fock_family(0.5, 0.2, 0.1, "tmsv", 20)
    state = family(0.0)
    evals = np.linalg.eigvalsh(state.rho)
    assert abs(evals.sum() - state.trace) < 1e-10
    assert evals.min() > -1e-10


def test_explicit_cutoff_leak_allowed_within_gate():
    # tail 2^-30 ~ 9.3e-10 exceeds the auto target but passes the hard gate
    state = fock.fock_tmsv(0.5, 30)
    assert state.trace < 1.0
    assert state.trace > 1.0 - 1e-6


def test_partial_trace_validation():
    state = fock.fock_tmsv(0.1, 8)
    with pytest.raises(ValueError):
        fock.fock_partial_trace(state, [])
    with pytest.raises(ValueError):
        fock.fock_partial_trace(state, [2])
