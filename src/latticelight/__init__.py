"""Numerical laboratory for the two-component Weyl walk on the BCC lattice.

The package evaluates the two chirality branches of the walk unitary in
closed form, tracks the smeared Fermion-pair bilinears whose transverse part
obeys a (modified) Maxwell rotation, derives the dispersive-vacuum
phenomenology in SI units, and provides an exact small-scale Fermionic
Fock-space oracle for the composite-photon commutation algebra.
"""

from .walk import (
    MINUS,
    PLUS,
    BlochData,
    DegeneratePointError,
    WeylStep,
    approx_interp_unitary,
    bloch_data,
    canonical_wavevector,
    interp_unitary,
    step_power,
    weyl_step,
)

__version__ = "0.1.0"

__all__ = [
    "MINUS",
    "PLUS",
    "BlochData",
    "DegeneratePointError",
    "WeylStep",
    "approx_interp_unitary",
    "bloch_data",
    "canonical_wavevector",
    "interp_unitary",
    "step_power",
    "weyl_step",
    "__version__",
]
