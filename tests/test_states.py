"""The Gaussian state, and the constructions, transformations and reductions
of the tests' reference composition."""

import numpy as np
import pytest

import bifrost as bf
import tangent_reference as tr
from bifrost.gaussian import omega
from tangent_reference import direct_sum, identity_transform, min_physical_eigenvalue

SZ = np.diag([1.0, -1.0])


def transformed_block_coefficients(x, y, n_s, n_th):
    """Coefficient functions of the transformed four-mode covariance."""
    f = 2.0 * np.sqrt(2.0 * n_s * (2.0 * n_s + 1.0) * x * y)
    a = 2.0 * x * (n_th - 2.0 * n_s) + 4.0 * n_s + 1.0
    b = 2.0 * np.sqrt((1.0 - x) * x) * (2.0 * n_s - n_th)
    c = 2.0 * x * (2.0 * n_s - n_th) + 2.0 * n_th + 1.0
    return f, a, b, c


def test_vacuum_is_identity():
    for state in (tr.thermal(0.0), tr.coherent(0.0)):
        assert np.array_equal(state.cov, np.eye(2))
        assert np.array_equal(state.disp, np.zeros(2))
    assert np.array_equal(tr.two_mode_squeezed(0.0).cov, np.eye(4))


def test_vacuum_physical():
    assert min_physical_eigenvalue(bf.GaussianState(np.eye(6), np.zeros(6))) >= -1e-9


@pytest.mark.parametrize("n_th, diag", [(0.0, 1.0), (1.0, 3.0), (0.5, 2.0)])
def test_thermal_covariance(n_th, diag):
    state = tr.thermal(n_th)
    assert np.allclose(state.cov, diag * np.eye(2))
    assert np.array_equal(state.disp, np.zeros(2))


def test_thermal_rejects_negative():
    with pytest.raises(ValueError):
        tr.thermal(-0.1)


def test_coherent_displacement_and_energy():
    assert np.allclose(tr.coherent(0.0, 0.0).cov, np.eye(2))
    assert np.allclose(tr.coherent(1.0, 0.0).disp, [np.sqrt(2.0), 0.0])
    state = tr.coherent(2.0, 0.0)
    assert np.isclose(state.disp @ state.disp / 2.0, 4.0)


def tmsv(n_s):
    """The entangled bi-frequency probe of photon-number label ``n_s``."""
    return tr.two_mode_squeezed(np.arcsinh(np.sqrt(2.0 * n_s)))


def test_tmsv_blocks():
    state = tmsv(1.0)
    assert np.allclose(state.cov[:2, :2], 5.0 * np.eye(2))
    assert np.allclose(state.cov[:2, 2:], 2.0 * np.sqrt(6.0) * SZ)


def test_tmsv_pure_and_physical():
    state = tmsv(5.0)
    assert min_physical_eigenvalue(state) > -1e-9
    assert abs(np.linalg.det(state.cov) - 1.0) < 1e-9


def test_tmsv_rejects_negative():
    with pytest.raises(ValueError):
        tr.two_mode_squeezed(-1.0)


def test_tensor_blocks_and_order():
    state = tr.tensor(tr.thermal(1.0), tr.thermal(0.0))
    assert np.allclose(state.cov, np.diag([3.0, 3.0, 1.0, 1.0]))


def test_four_mode_input_block_structure():
    n_s, n_th = 1.0, 2.0
    cov = tr.bifrequency_input(n_s, n_th, "tmsv").cov
    th = (1.0 + 2.0 * n_th) * np.eye(2)
    sig = (1.0 + 4.0 * n_s) * np.eye(2)
    eps = 2.0 * np.sqrt(2.0 * n_s * (2.0 * n_s + 1.0)) * SZ
    assert np.allclose(cov[0:2, 0:2], th)
    assert np.allclose(cov[4:6, 4:6], th)
    assert np.allclose(cov[2:4, 2:4], sig)
    assert np.allclose(cov[6:8, 6:8], sig)
    assert np.allclose(cov[2:4, 6:8], eps)
    assert np.allclose(cov[0:2, 2:4], np.zeros((2, 2)))


def test_beam_splitter_endpoints():
    assert np.allclose(tr.beam_splitter(1.0).matrix, np.eye(4))
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(tr.beam_splitter(0.0).matrix, swap)


def test_beam_splitter_symplectic_identity():
    s = tr.beam_splitter(0.37).matrix
    omg = omega(2)
    assert np.max(np.abs(s @ omg @ s.T - omg)) < 1e-10


def test_beam_splitter_rejects_out_of_range():
    with pytest.raises(ValueError):
        tr.beam_splitter(1.2)
    with pytest.raises(ValueError):
        tr.beam_splitter(-0.1)


def test_apply_identity_and_thermal_invariance():
    state = tmsv(0.7)
    out = tr.apply(identity_transform(2), state)
    assert np.allclose(out.cov, state.cov)
    pair = tr.tensor(tr.thermal(0.9), tr.thermal(0.9))
    mixed = tr.apply(tr.beam_splitter(0.31), pair)
    assert np.allclose(mixed.cov, pair.cov)
    assert np.allclose(mixed.disp, pair.disp)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        tr.apply(tr.beam_splitter(0.5), bf.GaussianState(np.eye(6), np.zeros(6)))


def test_transformed_four_mode_matches_coefficient_functions():
    eta1, eta2, n_s, n_th = 0.25, 0.75, 1.0, 2.0
    state = tr.bifrequency_input(n_s, n_th, "tmsv")
    s = direct_sum(tr.beam_splitter(eta1), tr.beam_splitter(eta2))
    out = tr.apply(s, state).cov

    def fxy(x, y):
        return 2.0 * np.sqrt(2.0 * n_s * (2.0 * n_s + 1.0) * x * y)

    for i, (eta, tau) in enumerate([(eta1, 1.0 - eta1), (eta2, 1.0 - eta2)]):
        _, a, b, c = transformed_block_coefficients(eta, eta, n_s, n_th)
        base = 4 * i
        assert np.allclose(out[base : base + 2, base : base + 2], a * np.eye(2))
        assert np.allclose(out[base : base + 2, base + 2 : base + 4], b * np.eye(2))
        assert np.allclose(out[base + 2 : base + 4, base + 2 : base + 4], c * np.eye(2))
    t1, t2 = 1.0 - eta1, 1.0 - eta2
    assert np.allclose(out[0:2, 4:6], fxy(t1, t2) * SZ)
    assert np.allclose(out[0:2, 6:8], fxy(t1, eta2) * SZ)
    assert np.allclose(out[2:4, 4:6], fxy(eta1, t2) * SZ)
    assert np.allclose(out[2:4, 6:8], fxy(eta1, eta2) * SZ)


def test_partial_trace_keep_all_and_reduction():
    joint = tr.tensor(tr.thermal(0.5), tmsv(0.3))
    assert np.allclose(tr.partial_trace(joint, [0, 1, 2]).cov, joint.cov)
    reduced = tr.partial_trace(tmsv(1.5), [0])
    assert np.allclose(reduced.cov, 7.0 * np.eye(2))


def test_partial_trace_recovers_factor():
    a, b = tr.thermal(0.8), tmsv(0.4)
    joint = tr.tensor(a, b)
    assert np.array_equal(tr.partial_trace(joint, [0]).cov, a.cov)
    assert np.array_equal(tr.partial_trace(joint, [1, 2]).cov, b.cov)


def test_bare_target_leaves_thermal_pair():
    """With no reflection anywhere the received modes are the bare baths."""
    n_s, n_th = 1.0, 2.0
    state = tr.bifrequency_input(n_s, n_th, "tmsv")
    s = direct_sum(tr.beam_splitter(0.0), tr.beam_splitter(0.0))
    received = tr.partial_trace(tr.apply(s, state), [1, 3])
    assert np.allclose(received.cov, (1.0 + 2.0 * n_th) * np.eye(4))


def test_received_state_physical():
    eta1, lam, n_s, n_th = 0.9, 0.01, 1.0, 0.5
    state = tr.bifrequency_input(n_s, n_th, "tmsv")
    s = direct_sum(tr.beam_splitter(eta1), tr.beam_splitter(eta1 + lam))
    received = tr.partial_trace(tr.apply(s, state), [1, 3])
    assert min_physical_eigenvalue(received) >= -1e-9


def test_state_validation():
    with pytest.raises(ValueError):
        bf.GaussianState(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        bf.GaussianState(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        tr.SymplecticTransform(np.diag([2.0, 3.0]))
    # a NaN entry fails the checks, as a violation does, and so does a
    # non-finite displacement
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = np.nan
    with pytest.raises(ValueError, match="asymmetry nan"):
        bf.GaussianState(cov, np.zeros(4))
    with pytest.raises(ValueError, match="violated by nan"):
        tr.SymplecticTransform(np.diag([1.0, np.nan]))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="displacement must be finite"):
            tr.coherent(value)
        with pytest.raises(ValueError, match="displacement must be finite"):
            bf.GaussianState(np.eye(4), np.array([0.0, 0.0, value, 0.0]))
