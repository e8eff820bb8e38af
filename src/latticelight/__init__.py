"""Numerical laboratory for the two-component Weyl walk on the BCC lattice.

The package evaluates the two chirality branches of the walk unitary in
closed form, tracks the smeared Fermion-pair bilinears whose transverse part
obeys a (modified) Maxwell rotation, derives the dispersive-vacuum
phenomenology in SI units, and provides an exact small-scale Fermionic
Fock-space oracle for the composite-photon commutation algebra.

The names below are shared by ``walk``, ``bilinear``, ``dispersion`` and the
CLI: the branch signs, the closed forms of one step, the float 3-vector
products and the one check of a wavevector's components.  Defined here, they
load without numpy.
"""

import math

__version__ = "0.1.0"

#: the two chirality branches of the walk
PLUS = +1
MINUS = -1

#: largest |t| the step-power rule (bilinear._power) accepts; beyond it t*lam mod 2*pi loses the documented accuracy
MAX_STEPS = 10**6

SQRT3 = math.sqrt(3.0)

# below this |n_tilde| the rotation axis is numerically undefined
_AXIS_TOL = 1e-14
# below this |n(k/2)| there is no polarization frame and no tilt
_FRAME_TOL = 1e-12


class DegeneratePointError(ValueError):
    """The rotation axis is undefined: |n| vanishes away from the identity."""


def _check_sign(sign):
    if sign not in (PLUS, MINUS):
        raise ValueError(f"chirality sign must be +1 or -1, got {sign!r}")
    return float(sign)


def _axis_undefined(nt_norm, d):
    """Where the rotation axis is undefined: |n_tilde| < _AXIS_TOL at lam = pi (d near -1); floats or arrays."""
    return (nt_norm < _AXIS_TOL) & (d < 0.0)


def _step_products(cos, sin, s):
    """(d, n_tilde) of one step from the cosines and sines of a = k/sqrt3 and the float sign ``s``.

    With _step_gradient, the only place the trigonometric products are
    written out.  Each of the three components of ``cos`` and ``sin`` is a
    float or a numpy array alike.
    """
    cx, cy, cz = cos
    sx, sy, sz = sin
    d = cx * cy * cz + s * sx * sy * sz
    return d, (sx * cy * cz - s * cx * sy * sz, -s * cx * sy * cz - sx * cy * sz, cx * cy * sz - s * sx * sy * cz)


def _bloch(x, y, z, s):
    """(d, n_tilde, |n_tilde|, lam) of one step at the wavevector (x, y, z), with math; s the float sign."""
    a, b, c = x / SQRT3, y / SQRT3, z / SQRT3
    d, n_tilde = _step_products((math.cos(a), math.cos(b), math.cos(c)), (math.sin(a), math.sin(b), math.sin(c)), s)
    nx, ny, nz = n_tilde
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return d, n_tilde, norm, math.atan2(norm, d)  # lam in [0, pi]; |n_tilde| = sin(lam)


def _step_gradient(cos, sin, s):
    """sqrt3 grad d of one step, from the same cosines, sines and sign as _step_products."""
    cx, cy, cz = cos
    sx, sy, sz = sin
    return (-sx * cy * cz + s * cx * sy * sz, -cx * sy * cz + s * sx * cy * sz, -cx * cy * sz + s * sx * sy * cz)


def _cross(u, v):
    """u x v of 3-vectors of floats, given by their three components."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    """u . v of 3-vectors of floats, given by their three components."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _wavevector(k):
    """The components of one wavevector ``k``, a sequence of three real numbers, as floats.

    ValueError for any other shape, for a set (its components have no order),
    for a text component (float() would parse it), or for a component that is
    not finite (math.cos(inf) would raise an error that names no wavevector).
    """
    try:
        x, y, z = k
        k[0]  # TypeError for a set
        finite = math.isfinite(x) & math.isfinite(y) & math.isfinite(z)  # TypeError for text; & checks all three
    except (TypeError, ValueError, LookupError):
        raise ValueError(f"a wavevector must have 3 components, got {k!r}") from None
    x, y, z = float(x), float(y), float(z)
    if not finite:
        raise ValueError(f"a wavevector must be finite, got k={[x, y, z]}")
    return x, y, z
