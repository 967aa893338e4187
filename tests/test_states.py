"""Gaussian-core constructions, transformations and reductions."""

import warnings

import numpy as np
import pytest

import bifrost as bf
from bifrost.gaussian import omega
from tangent_reference import direct_sum, identity_transform, min_physical_eigenvalue, permute_modes

SZ = np.diag([1.0, -1.0])


def transformed_block_coefficients(x, y, n_s, n_th):
    """Coefficient functions of the transformed four-mode covariance."""
    f = 2.0 * np.sqrt(2.0 * n_s * (2.0 * n_s + 1.0) * x * y)
    a = 2.0 * x * (n_th - 2.0 * n_s) + 4.0 * n_s + 1.0
    b = 2.0 * np.sqrt((1.0 - x) * x) * (2.0 * n_s - n_th)
    c = 2.0 * x * (2.0 * n_s - n_th) + 2.0 * n_th + 1.0
    return f, a, b, c


def test_vacuum_is_identity():
    state = bf.vacuum(1)
    assert np.array_equal(state.cov, np.eye(2))
    assert np.array_equal(state.disp, np.zeros(2))
    assert np.array_equal(bf.vacuum(2).cov, np.eye(4))


def test_vacuum_needs_a_mode():
    with pytest.raises(ValueError):
        bf.vacuum(0)


def test_vacuum_physical():
    assert min_physical_eigenvalue(bf.vacuum(3)) >= -1e-9


@pytest.mark.parametrize("n_th, diag", [(0.0, 1.0), (1.0, 3.0), (0.5, 2.0)])
def test_thermal_covariance(n_th, diag):
    state = bf.thermal(n_th)
    assert np.allclose(state.cov, diag * np.eye(2))
    assert np.array_equal(state.disp, np.zeros(2))


def test_thermal_rejects_negative():
    with pytest.raises(ValueError):
        bf.thermal(-0.1)


def test_coherent_displacement_and_energy():
    assert np.allclose(bf.coherent(0.0, 0.0).cov, bf.vacuum(1).cov)
    assert np.allclose(bf.coherent(1.0, 0.0).disp, [np.sqrt(2.0), 0.0])
    state = bf.coherent(2.0, 0.0)
    assert np.isclose(state.disp @ state.disp / 2.0, 4.0)


def test_tmsv_blocks():
    assert np.allclose(bf.tmsv(0.0).cov, np.eye(4))
    state = bf.tmsv(1.0)
    assert np.allclose(state.cov[:2, :2], 5.0 * np.eye(2))
    assert np.allclose(state.cov[:2, 2:], 2.0 * np.sqrt(6.0) * SZ)


def test_tmsv_pure_and_physical():
    state = bf.tmsv(5.0)
    assert min_physical_eigenvalue(state) > -1e-9
    assert abs(np.linalg.det(state.cov) - 1.0) < 1e-9


def test_tmsv_rejects_negative():
    with pytest.raises(ValueError):
        bf.tmsv(-1.0)


def test_tensor_blocks_and_order():
    state = bf.tensor(bf.thermal(1.0), bf.vacuum(1))
    assert np.allclose(state.cov, np.diag([3.0, 3.0, 1.0, 1.0]))
    combined = bf.tensor(bf.vacuum(1), bf.vacuum(2))
    assert np.array_equal(combined.cov, bf.vacuum(3).cov)


def test_four_mode_input_block_structure():
    n_s, n_th = 1.0, 2.0
    raw = bf.tensor(bf.tensor(bf.thermal(n_th), bf.thermal(n_th)), bf.tmsv(n_s))
    state = permute_modes(raw, [0, 2, 1, 3])
    cov = state.cov
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
    assert np.allclose(bf.beam_splitter(1.0).matrix, np.eye(4))
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(bf.beam_splitter(0.0).matrix, swap)


def test_beam_splitter_symplectic_identity():
    s = bf.beam_splitter(0.37).matrix
    omg = omega(2)
    assert np.max(np.abs(s @ omg @ s.T - omg)) < 1e-10


def test_beam_splitter_rejects_out_of_range():
    with pytest.raises(ValueError):
        bf.beam_splitter(1.2)
    with pytest.raises(ValueError):
        bf.beam_splitter(-0.1)


def test_apply_identity_and_thermal_invariance():
    state = bf.tmsv(0.7)
    out = bf.apply(identity_transform(2), state)
    assert np.allclose(out.cov, state.cov)
    pair = bf.tensor(bf.thermal(0.9), bf.thermal(0.9))
    mixed = bf.apply(bf.beam_splitter(0.31), pair)
    assert np.allclose(mixed.cov, pair.cov)
    assert np.allclose(mixed.disp, pair.disp)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        bf.apply(bf.beam_splitter(0.5), bf.vacuum(3))


def test_transformed_four_mode_matches_coefficient_functions():
    eta1, eta2, n_s, n_th = 0.25, 0.75, 1.0, 2.0
    raw = bf.tensor(bf.tensor(bf.thermal(n_th), bf.thermal(n_th)), bf.tmsv(n_s))
    state = permute_modes(raw, [0, 2, 1, 3])
    s = direct_sum(bf.beam_splitter(eta1), bf.beam_splitter(eta2))
    out = bf.apply(s, state).cov

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
    joint = bf.tensor(bf.thermal(0.5), bf.tmsv(0.3))
    assert np.allclose(bf.partial_trace(joint, [0, 1, 2]).cov, joint.cov)
    reduced = bf.partial_trace(bf.tmsv(1.5), [0])
    assert np.allclose(reduced.cov, 7.0 * np.eye(2))


def test_partial_trace_recovers_factor():
    a, b = bf.thermal(0.8), bf.tmsv(0.4)
    joint = bf.tensor(a, b)
    assert np.array_equal(bf.partial_trace(joint, [0]).cov, a.cov)
    assert np.array_equal(bf.partial_trace(joint, [1, 2]).cov, b.cov)


def test_partial_trace_validation():
    state = bf.vacuum(2)
    with pytest.raises(ValueError):
        bf.partial_trace(state, [])
    with pytest.raises(ValueError):
        bf.partial_trace(state, [0, 2])
    with pytest.raises(ValueError):
        bf.partial_trace(state, [1, 0])


def test_bare_target_leaves_thermal_pair():
    """With no reflection anywhere the received modes are the bare baths."""
    n_s, n_th = 1.0, 2.0
    raw = bf.tensor(bf.tensor(bf.thermal(n_th), bf.thermal(n_th)), bf.tmsv(n_s))
    state = permute_modes(raw, [0, 2, 1, 3])
    s = direct_sum(bf.beam_splitter(0.0), bf.beam_splitter(0.0))
    received = bf.partial_trace(bf.apply(s, state), [1, 3])
    assert np.allclose(received.cov, (1.0 + 2.0 * n_th) * np.eye(4))


def test_received_state_physical():
    eta1, lam, n_s, n_th = 0.9, 0.01, 1.0, 0.5
    raw = bf.tensor(bf.tensor(bf.thermal(n_th), bf.thermal(n_th)), bf.tmsv(n_s))
    state = permute_modes(raw, [0, 2, 1, 3])
    s = direct_sum(bf.beam_splitter(eta1), bf.beam_splitter(eta1 + lam))
    received = bf.partial_trace(bf.apply(s, state), [1, 3])
    assert min_physical_eigenvalue(received) >= -1e-9


def test_state_validation():
    with pytest.raises(ValueError):
        bf.GaussianState(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        bf.GaussianState(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        bf.SymplecticTransform(np.diag([2.0, 3.0]))
    # a NaN entry fails the checks, as a violation does, and so does a
    # non-finite displacement
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = np.nan
    with pytest.raises(ValueError, match="asymmetry nan"):
        bf.GaussianState(cov, np.zeros(4))
    with pytest.raises(ValueError, match="violated by nan"):
        bf.SymplecticTransform(np.diag([1.0, np.nan]))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="displacement must be finite"):
            bf.coherent(value)
        with pytest.raises(ValueError, match="displacement must be finite"):
            bf.GaussianState(np.eye(4), np.array([0.0, 0.0, value, 0.0]))


def test_propagate_forms_only_the_kept_entries():
    """Only the kept entries of the derivatives are formed: where those of a
    discarded mode would leave the float range, no warning is raised."""
    from bifrost import gaussian as g

    state = bf.GaussianState(np.diag([3.0, 3.0, 1e300, 1e300]), np.array([1.0, 0.0, 1e300, 0.0]))
    ds = np.diag([0.5, 0.5, 1e10, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, dcov, ddisp = g.propagate(state, identity_transform(2), ds, [0])
    assert np.array_equal(kept.cov, 3.0 * np.eye(2))
    assert np.array_equal(dcov, 3.0 * np.eye(2))
    assert np.array_equal(ddisp, [0.5, 0.0])
