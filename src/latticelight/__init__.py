"""Numerical laboratory for the two-component Weyl walk on the BCC lattice.

The package evaluates the two chirality branches of the walk unitary in
closed form, tracks the smeared Fermion-pair bilinears whose transverse part
obeys a (modified) Maxwell rotation, derives the dispersive-vacuum
phenomenology in SI units, and provides an exact small-scale Fermionic
Fock-space oracle for the composite-photon commutation algebra.

The names below are shared by ``walk`` and the CLI; defined here, they load
without numpy.
"""

__version__ = "0.1.0"

#: the two chirality branches of the walk
PLUS = +1
MINUS = -1

#: largest |t| walk.step_power accepts; beyond it t*lam mod 2*pi loses the documented accuracy
MAX_STEPS = 10**6


class DegeneratePointError(ValueError):
    """The rotation axis is undefined: |n| vanishes away from the identity."""
