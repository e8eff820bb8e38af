"""Numerical laboratory for the two-component Weyl walk on the BCC lattice.

The package evaluates the two chirality branches of the walk unitary in
closed form, tracks the smeared Fermion-pair bilinears whose transverse part
obeys a (modified) Maxwell rotation, derives the dispersive-vacuum
phenomenology in SI units, and provides an exact small-scale Fermionic
Fock-space oracle for the composite-photon commutation algebra.

The names below are shared by ``walk``, ``dispersion`` and the CLI; defined
here, they load without numpy.
"""

import math

__version__ = "0.1.0"

#: the two chirality branches of the walk
PLUS = +1
MINUS = -1

#: largest |t| walk.step_power accepts; beyond it t*lam mod 2*pi loses the documented accuracy
MAX_STEPS = 10**6

SQRT3 = math.sqrt(3.0)

# below this |n_tilde| the rotation axis is numerically undefined
_AXIS_TOL = 1e-14


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
    """(d, n_tilde, sqrt3 grad d) of one step from the cosines and sines of a = k/sqrt3 and the float sign ``s``.

    The only place the trigonometric products are written out.  Each of the
    three components of ``cos`` and ``sin`` is a float or a numpy array alike.
    """
    cx, cy, cz = cos
    sx, sy, sz = sin
    d = cx * cy * cz + s * sx * sy * sz
    n_tilde = (sx * cy * cz - s * cx * sy * sz, -s * cx * sy * cz - sx * cy * sz, cx * cy * sz - s * sx * sy * cz)
    grad = (-sx * cy * cz + s * cx * sy * sz, -cx * sy * cz + s * sx * cy * sz, -cx * cy * sz + s * sx * sy * cz)
    return d, n_tilde, grad
