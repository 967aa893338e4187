"""50-digit closed forms and the rounding bound of stored moments, shared by
the kernel and command-line tests."""

import importlib
import types
from unittest import mock

import mpmath
import numpy as np

import bifrost as bf
from bifrost.gaussian import normal_modes
from bifrost.sld import complex_basis_matrix, sld


def mp_closed_form(closed_form, eta1, n_s, n_th):
    """A closed form evaluated in 50-digit arithmetic at the same float
    inputs, its powers too: ``qfi._pow`` takes float powers, which would
    round 1 + 2 n_th (1 - eta1) to float before forming its fourth power
    minus 1."""
    qfi_module = importlib.import_module("bifrost.qfi")
    with mpmath.workdps(50), mock.patch.object(qfi_module, "_pow", lambda x, k: x**k):
        return closed_form(mpmath.mpf(eta1), mpmath.mpf(n_s), mpmath.mpf(n_th))


def mp_sld_coefficients(eta1, n_s, n_th):
    """``sld_coeffs_closed_form`` in 50-digit arithmetic, its square roots
    too: its float sqrt(2) carries a 1e-16 error into l12, which the
    zero-mean constant l0 magnifies by up to n_s."""
    sld_module = importlib.import_module("bifrost.sld")  # the package exports a function ``sld``
    with mock.patch.object(sld_module, "np", types.SimpleNamespace(sqrt=mpmath.sqrt)):
        return mp_closed_form(sld_module.sld_coeffs_closed_form, eta1, n_s, n_th)


def rounding_bound(family):
    """First-order relative change of the QFI when every stored entry of the
    family's covariance, its derivative and the displacement derivative moves
    by one unit round-off of its own size.

    It uses dH = -Tr(Phi Sigma Phi dSigma) + Tr(Phi dSigma') + (the
    displacement term), with Phi the real-basis form of the logarithmic
    derivative, all in the frame the family stores its moments in. It is what
    no kernel reading only these floats can resolve: near eta1 = 1 the
    coherent probe's covariance stores 1 + 2 n_th (1 - eta1) and loses most
    digits of the second term, on which the QFI then depends. A family that
    also supplies its Williamson data (``StateFamily.williamson``) gives the
    solve nu - 1 to its own relative precision, so the solve reads the QFI
    far inside this bound there; it stays the bound of the derived route.
    """
    state, dcov, ddisp = family.derivative()
    w = complex_basis_matrix(state.n_modes)
    phi = (w.conj().T @ sld(family).quad @ w).real
    if family.in_normal_modes:
        phi = normal_modes(phi)
    y = np.linalg.solve(state.cov, ddisp)
    grad_cov = phi @ state.cov @ phi + 2.0 * np.outer(y, y)
    change = (
        np.sum(np.abs(grad_cov * state.cov))
        + np.sum(np.abs(phi * dcov))
        + 4.0 * np.sum(np.abs(y * ddisp))
    )
    return np.finfo(float).eps * change / bf.qfi_complex_form(family)

