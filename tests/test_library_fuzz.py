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

A second fuzz puts a value that is not a real scalar, an array of one or two
floats, a string, a complex number or None, at each scalar argument of these
entry points and of ``sld_coeffs_closed_form`` in turn, the others at a point
inside the domain. An array or a complex number ends in the one ValueError
that names the argument, except at the closed forms that take arrays
elementwise; there, and for a string or None, the call ends as above or, for
what is not a real number, in a TypeError.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
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


# the entry points that take scalars, each at a point inside the domain
SCALAR_CALLS = [
    (bf.BiFrequencyParams, (0.8, 0.0, 1.0, 1.0)),
    (bf.qi_quantum_qfi, (1.0, 1.0)),
    (bf.qi_ratio, (1.0, 1.0)),
    (bf.qi_classical_qfi, (0.5, 1.0, 1.0)),
    (bf.qi_quantum_qfi_numeric, (0.5, 1.0, 1.0)),
    (bf.qi_classical_qfi_numeric, (0.5, 1.0, 1.0)),
    (bf.coherent_observable, (0.8, 1.0, 1.0)),
    (bf.sld_coeffs_closed_form, (0.5, 1.0, 1.0)),
    (bf.jpa_circuit_solve, (1.0,)),
    (bf.thermal_equal_occupation, (3e10, 6e9, 300.0)),
    (fock.bifrequency_fock_family, (0.8, 0.01, 0.01, "tmsv", 6)),
]
# the closed forms that take arrays elementwise
ELEMENTWISE = (bf.qi_quantum_qfi, bf.qi_ratio)
# each numeric argument of SCALAR_CALLS: the call, its point, the position and the name
ARGUMENTS = [
    (call, point, i, name)
    for call, point in SCALAR_CALLS
    for i, name in enumerate(inspect.signature(call).parameters)
    if not isinstance(point[i], str)
]
NOT_REAL_SCALARS = st.one_of(
    st.lists(FLOATS, min_size=1, max_size=2).map(np.array), st.text(max_size=3), st.complex_numbers(), st.none(),
)


def _ends_as_a_wrong_value_should(call, args, name, value):
    """An array or a complex number at a scalar argument ends in the
    ValueError that names it, except at an elementwise closed form; else the
    call ends in a finite value, a documented exception or, for what is not
    a real number, a TypeError. The value, or None where it raised."""
    array = isinstance(value, np.ndarray)
    if (array or isinstance(value, complex)) and call not in ELEMENTWISE:
        with pytest.raises(ValueError, match=f"^{name} must be a real scalar, not "):
            call(*args)
        return None
    try:
        result = call(*args)
    except TypeError:
        assert not array, (call, args)
        return None
    except Exception as exc:  # the exact type is checked
        assert type(exc) in DOCUMENTED, (call, args, repr(exc))
        return None
    assert _finite(result), (call, args, result)
    return result


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(value=NOT_REAL_SCALARS)
def test_entry_points_refuse_values_that_are_not_real_scalars(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, point, i, name in ARGUMENTS:
            args = point[:i] + (value,) + point[i + 1 :]
            result = _ends_as_a_wrong_value_should(call, args, name, value)
            if result is not None and call is fock.bifrequency_fock_family:
                _ends_well(fock.qfi_eq1, result)
