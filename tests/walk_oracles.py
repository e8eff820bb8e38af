"""Test oracles of the walk: the interpolating unitary, its first-order surrogate, the
finite-difference group velocity, and the map into the canonical periodic cell.

The library evaluates the closed forms; these build the references that the
walk error-law tests and the gradient-route checks compare against, from
``walk.step_power``, ``walk.bloch_data`` and ``dispersion.omega``.
"""

import math

import numpy as np

from latticelight.dispersion import omega
from latticelight.walk import PAULI, SQRT3, DegeneratePointError, bloch_data, step_power

# below this lam(k/2) the group velocity is undefined (n(k/2) = 0)
DEGENERATE_TOL = 1e-12

#: per-axis periodicity of every closed form (the trig arguments are k/sqrt3)
AXIS_PERIOD = 2.0 * math.pi * SQRT3


def interp_unitary(k, q, sign, t: int) -> np.ndarray:
    """Interpolating unitary U(k, t; q) = A(k/2)^(-t) A(q)^t, exactly.

    ``q`` is the full momentum of the second factor (not an offset from k/2).
    At q = k/2 or t = 0 this is the identity.
    """
    return step_power(np.asarray(k, dtype=float) / 2.0, sign, -t) @ step_power(q, sign, t)


def approx_interp_unitary(k, q_offset, sign, t: int) -> np.ndarray:
    """First-order surrogate for U(k, t; k/2 + q_offset).

    Returns exp(-i c t e.sigma) with e = n(k/2)/|n(k/2)| and c = e . J_n(k/2)
    q_offset, where J_n is the Jacobian of the rotation vector.  Since
    |n| = lam, e . J_n is exactly grad lam = -grad d / sin(lam), so c comes
    from the closed forms.  Because c is linear in the offset, the k/2 - q
    branch is obtained by negating ``q_offset``: the two branches carry
    opposite rotation senses about the common axis.

    Valid for offsets small against |n(k/2)|; that is the caller's
    responsibility and not checked.  Raises DegeneratePointError when
    |n(k/2)| is below tolerance (no axis to rotate about).
    """
    b = bloch_data(np.asarray(k, dtype=float) / 2.0, sign)
    if b.lam < DEGENERATE_TOL:
        raise DegeneratePointError(f"|n(k/2)| = {b.lam:.3e} too small at k={np.asarray(k)}")
    e = b.n / b.lam
    c = -float(b.grad_d @ np.asarray(q_offset, dtype=float)) / math.sin(b.lam)
    return math.cos(c * t) * PAULI[0] - 1j * math.sin(c * t) * np.einsum("a,aij->ij", e, PAULI[1:])


def group_velocity(k, sign) -> np.ndarray:
    """Gradient of omega at one wavevector by Richardson-extrapolated central differences.

    The finite-difference oracle of dispersion.group_velocity_analytic.
    Undefined where n(k/2) = 0 (band crossing); raises DegeneratePointError
    there instead of returning an arbitrary vector.
    """
    k = np.asarray(k, dtype=float)
    if bloch_data(k / 2.0, sign).lam < DEGENERATE_TOL:
        raise DegeneratePointError(f"group velocity undefined at k={k} (n = 0)")

    def central(h):
        shifts = h * np.eye(3)
        return (omega(k + shifts, sign) - omega(k - shifts, sign)) / (2.0 * h)

    step = 1e-5
    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def canonical_wavevector(k) -> np.ndarray:
    """Map each component of k into the canonical periodic cell (-pi*sqrt3, pi*sqrt3].

    Every closed form of the walk is invariant under this map.  The cell
    is the axis-aligned box of full per-axis period; it is a valid
    periodicity domain, not the geometric first Brillouin zone.
    """
    k = np.asarray(k, dtype=float)
    half = AXIS_PERIOD / 2.0
    return half - np.mod(half - k, AXIS_PERIOD)
