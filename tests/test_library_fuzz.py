"""Fuzzing the public library entry points with floats of every kind.

Each example draws an operating point from floats that include NaN, the
infinities, signed zeros, subnormals, 1e300, the photon-number domain's
bounds and their float neighbours, and runs every entry point that takes it:
``BiFrequencyParams`` with ``qfi_result``, ``qfi_gaussian`` and
``optimal_observable`` on ``bifrequency_received_state``, ``advantage_map``,
the quantum-illumination functions, closed and numeric,
``coherent_observable``, ``jpa_circuit_solve``, ``thermal_equal_occupation``
and ``bifrequency_fock_family`` with ``qfi_eq1`` at a small cutoff. With
warnings turned into errors, every call ends in a finite value or in a
documented exception: ValueError, ArithmeticError or a class of
``bifrost.errors``, by its exact type, so that a bare ZeroDivisionError or
OverflowError fails.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bifrost as bf
from bifrost import errors, fock
from bifrost.errors import N_MAX, N_MIN
from bifrost.protocols import advantage_map
from bifrost.qfi import qfi_gaussian

DOCUMENTED = (
    ValueError, ArithmeticError, errors.PureStateError, errors.DegenerateStateError,
    errors.NoInformationError, errors.NumericalInstabilityError, errors.CutoffTooSmallError,
)
SPECIAL = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e-300, 1e300, -1e300, 1.7976931348623157e308, 0.5, 1.0, 1.0 - 2.0**-53, 0.999999,
    N_MIN, N_MAX, *(float(np.nextafter(bound, toward)) for bound in (N_MIN, N_MAX) for toward in (0.0, math.inf)),
)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())  # st.floats: of every kind too
# each value lies inside its domain about two times in three
REFLECTIVITIES = st.one_of(FLOATS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
PHOTON_NUMBERS = st.one_of(FLOATS, st.floats(N_MIN, N_MAX), st.sampled_from([0.0, N_MIN, N_MAX]))


def _finite(value) -> bool:
    """Whether every number in a result, however nested, is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, (float, int, np.ndarray, np.number)):
        return bool(np.all(np.isfinite(value)))
    return True  # a family's callables, a probe's name


def _ends_well(call, *args):
    """Run ``call``, then check it returned finite numbers or raised a
    documented exception; the value, or None where it raised."""
    try:
        value = call(*args)
    except Exception as exc:  # the exact type is checked
        assert type(exc) in DOCUMENTED, (call, args, repr(exc))
        return None
    assert _finite(value), (call, args, value)
    return value


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@example(eta1=0.5, lam=0.0, n_s=1e300, n_th=1.0, probe="tmsv", cutoff=2)
@given(
    eta1=REFLECTIVITIES, lam=st.one_of(st.just(0.0), FLOATS), n_s=PHOTON_NUMBERS, n_th=PHOTON_NUMBERS,
    probe=st.sampled_from(["tmsv", "coherent"]), cutoff=st.integers(1, 12),
)
def test_entry_points_end_in_finite_values_or_documented_errors(eta1, lam, n_s, n_th, probe, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = _ends_well(bf.BiFrequencyParams, eta1, lam, n_s, n_th)
        if params is not None:
            family = _ends_well(bf.bifrequency_received_state, params, probe)
            for kernel in (bf.qfi_result, qfi_gaussian, bf.optimal_observable):
                _ends_well(kernel, family)
        axes = (np.array([eta1, 0.5]), np.array([n_s, 1.0]), np.array([n_th]))
        _ends_well(advantage_map, *axes)
        _ends_well(bf.qi_quantum_qfi, n_s, n_th)
        _ends_well(bf.qi_ratio, n_s, n_th)
        for qfi in (bf.qi_classical_qfi, bf.qi_quantum_qfi_numeric, bf.qi_classical_qfi_numeric):
            _ends_well(qfi, eta1, n_s, n_th)
        _ends_well(bf.coherent_observable, eta1, n_th, n_s)
        _ends_well(bf.jpa_circuit_solve, n_s)
        _ends_well(bf.thermal_equal_occupation, n_s, lam, n_th)
        family = _ends_well(fock.bifrequency_fock_family, eta1, n_s, n_th, probe, cutoff)
        if family is not None:
            _ends_well(fock.qfi_eq1, family)
