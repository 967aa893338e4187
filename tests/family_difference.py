"""Reference derivative for tests: the central difference of a state family.

The package differentiates its families analytically; this difference is
what those derivatives are checked against, and it gives the test-only
families, which have nothing but an ``eval``, a tangent.
"""

from bifrost.qfi import StateFamily

STEP = 1e-5


def central_difference(eval_fn, step=STEP):
    """A tangent for ``eval_fn``: the state at lam and the second-order central
    differences of its covariance and displacement (three evaluations)."""

    def tangent(lam):
        state, plus, minus = eval_fn(lam), eval_fn(lam + step), eval_fn(lam - step)
        return (
            state,
            (plus.cov - minus.cov) / (2.0 * step),
            (plus.disp - minus.disp) / (2.0 * step),
        )

    return tangent


def difference_family(eval_fn, lambda0=0.0):
    """A family whose tangent is the central difference of ``eval_fn``."""
    return StateFamily(eval=eval_fn, tangent=central_difference(eval_fn), lambda0=lambda0)
