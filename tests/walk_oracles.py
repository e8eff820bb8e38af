"""Test oracles of the walk: the Pauli matrices, the 2x2 step powers, the kernel tables as
one array, the interpolating unitary, its first-order surrogate, the finite-difference
group velocity, the batched polarization tilt, and the map into the canonical periodic cell.

The library evaluates the closed forms; these build the references that the
walk error-law tests, the kernel-table checks and the gradient-route checks
compare against, from the step-power rule ``bilinear._power``, the
per-grid-point kernel ``bilinear._kernel``, ``walk.bloch_data`` and
``dispersion.omega``.
"""

import math

import numpy as np

from latticelight import _FRAME_TOL, _check_sign
from latticelight.bilinear import _kernel, _power
from latticelight.dispersion import omega
from latticelight.walk import SQRT3, DegeneratePointError, bloch_data

#: sigma^mu for mu = 0..3 (identity first)
PAULI = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]
)

# below this lam(k/2) the group velocity is undefined (n(k/2) = 0)
DEGENERATE_TOL = 1e-12

#: per-axis periodicity of every closed form (the trig arguments are k/sqrt3)
AXIS_PERIOD = 2.0 * math.pi * SQRT3


def step_power(k, sign, t: int) -> np.ndarray:
    """A(k)^t at wavevectors ``k[..., 3]``, shape (..., 2, 2): c I - i v.sigma from the
    library's step-power rule ``bilinear._power`` at each wavevector.

    The rule reduces t*lam mod 2*pi and documents its accuracy, 1e-15 (1 + |t|)
    per entry, up to |t| = MAX_STEPS; a larger |t| raises ValueError.
    """
    s = _check_sign(sign)
    k = np.asarray(k, dtype=float)
    rows = [_power(x, y, z, s, t) for x, y, z in k.reshape(-1, 3).tolist()]
    coeffs = np.array(rows, dtype=complex).reshape(k.shape[:-1] + (4,)) * np.array([1.0, -1j, -1j, -1j])
    return np.einsum("...m,mij->...ij", coeffs, PAULI)


def vector_tables(profile, k, sign, t: int) -> np.ndarray:
    """Evolved tables of all three vector channels, a complex array of shape (N, 3, 4).

    Entry [q, a, nu] is the sigma-basis coefficient c_nu = tr(sigma_nu M) / 2
    of M = (A(k/2-q)^t)^dag sigma^a (A(k/2+q)^t) f(q), with a = x, y, z the
    inserted channel: the tables of the library's kernel ``bilinear._kernel``,
    times f(q).
    """
    tables = np.array(list(_kernel(profile, k, sign, t)), dtype=complex).reshape(-1, 3, 4)
    tables[:, :, 0] *= 1j
    return tables * np.asarray(profile.weights)[:, None, None]


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
        return np.array([omega(k + h * e, sign) - omega(k - h * e, sign) for e in np.eye(3)]) / (2.0 * h)

    step = 1e-5
    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def tilt_angle(k, sign) -> np.ndarray:
    """Exact polarization tilt at wavevectors ``k[..., 3]``, in [0, pi/2]: the batched oracle of bilinear.tilt_angle.

    The angle between n(k/2) from ``bloch_data`` and the branch's small-k axis
    (k, or (k_x, -k_y, k_z) on the plus branch), folded into [0, pi/2].  The
    axis is divided by its largest component first, so the angle stays finite
    up to the float maximum.  Raises DegeneratePointError when |n(k/2)| is
    below _FRAME_TOL at any wavevector.
    """
    k = np.asarray(k, dtype=float)
    n = bloch_data(k / 2.0, sign).n
    if np.any(np.linalg.norm(n, axis=-1) < _FRAME_TOL):
        raise DegeneratePointError(f"no rotation axis: |n(k/2)| < {_FRAME_TOL} in the batch")
    axis = k * np.array([1.0, -float(sign), 1.0])
    axis = axis / np.max(np.abs(axis), axis=-1, keepdims=True)
    across = np.cross(n, axis)
    angle = np.arctan2(np.sqrt(np.sum(across * across, axis=-1)), np.sum(n * axis, axis=-1))
    return np.minimum(angle, np.pi - angle)


def canonical_wavevector(k) -> np.ndarray:
    """Map each component of k into the canonical periodic cell (-pi*sqrt3, pi*sqrt3].

    Every closed form of the walk is invariant under this map.  The cell
    is the axis-aligned box of full per-axis period; it is a valid
    periodicity domain, not the geometric first Brillouin zone.
    """
    k = np.asarray(k, dtype=float)
    half = AXIS_PERIOD / 2.0
    return half - np.mod(half - k, AXIS_PERIOD)
