"""Dispersion relation, wavevector-dependent light speed, and observables.

The angular frequency of the emergent waves is omega(k) = 2|n(k/2)| in
adimensional walk units (one step of time, trig arguments k/sqrt3).  Units
are restored with one step = t_P and one lattice link = sqrt(3) l_P, so the
physical wavenumber is k_phys = k / (sqrt(3) l_P) and the small-k group
speed is exactly c.  The leading deviation is cubic and anisotropic,
proportional to k_x k_y k_z / |k|^2, with opposite signs for the two
chirality branches; along the positive diagonal the minus branch is
superluminal (though uniformly bounded) and the plus branch subluminal.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import SQRT3, DegeneratePointError, _axis_undefined, _bloch, _check_sign, _dot  # numpy and walk load inside the functions that use them

#: CODATA Planck length (m) and Planck time (s); their ratio is c
PLANCK_LENGTH = 1.616255e-35
PLANCK_TIME = 5.391247e-44

HBAR = 1.054571817e-34  # J s
EV = 1.602176634e-19  # J

_DEGENERATE_TOL = 1e-12


class EnergyOutOfRangeError(ValueError):
    """Photon energy implies a wavevector outside the canonical cell, or no positive group speed."""


class UnitSystem(
    namedtuple("UnitSystem", "planck_length planck_time lattice_spacing_factor", defaults=(PLANCK_LENGTH, PLANCK_TIME, SQRT3))
):
    """Planck-to-SI conversion constants (immutable).

    ``c`` is derived as planck_length / planck_time; the lattice link length
    is sqrt(3) * planck_length.
    """

    __slots__ = ()

    @property
    def c(self) -> float:
        return self.planck_length / self.planck_time

    @property
    def link_length(self) -> float:
        return self.lattice_spacing_factor * self.planck_length


PLANCK_UNITS = UnitSystem()


def omega(k, sign):
    """Angular frequency omega(k) = 2 |n(k/2)| = 2 lam(k/2), walk units, at ``k[..., 3]``."""
    import numpy as np
    from .walk import bloch_data
    return 2.0 * bloch_data(np.asarray(k, dtype=float) / 2.0, sign).lam


def group_velocity_analytic(k, sign):
    """Chain-rule gradient of omega at ``k[..., 3]``: -grad d(k/2) / sin lam(k/2).

    The gradient is undefined where sin lam(k/2) < 1e-12 (n(k/2) = 0 or
    lam = pi); those wavevectors get NaN components.
    """
    import numpy as np
    from .walk import bloch_data
    b = bloch_data(np.asarray(k, dtype=float) / 2.0, sign)
    sin_lam = np.sin(b.lam)
    undefined = sin_lam < _DEGENERATE_TOL
    vg = -b.grad_d / np.where(undefined, 1.0, sin_lam)[..., None]
    return np.where(undefined[..., None], np.nan, vg)


DIAGONAL = (1.0 / SQRT3,) * 3


def speed_deviation(k, sign):
    """Normalized group speed minus 1 at one wavevector or at each of ``k[..., 3]``, in a cancellation-free closed form.

    With a = k/(2 sqrt3) the squared normalized speed is exactly

        3 |grad omega|^2 = 1 - sign * sin(2 a_x) sin(2 a_y) sin(2 a_z) / (2 |n_tilde(k/2)|^2),

    an algebraic identity of the closed forms (the gradient components
    reproduce n_tilde except for the sign of one y term, so the deviation
    collapses to a pure product of sines).  Unlike differencing omega, this
    resolves the deviation at astrophysical wavevectors (|k| ~ 1e-19) where
    it falls far below float precision of speed itself.  The leading
    behavior is -sign * k_x k_y k_z / (sqrt3 |k|^2): -sign * |k| / 9 along
    the positive diagonal, 0 along the axes.  A list or tuple of 3 numbers
    gives a float, with ``math`` alone; an array or nested sequence
    ``k[..., 3]`` gives an array shaped like ``k[..., 0]``, row by row.
    Raises ValueError for a component that is not finite and
    DegeneratePointError where n(k/2) = 0 or lam(k/2) = pi; gives NaN where
    rounding puts 1 + g < 0, next to the plus branch's zero speed.
    """
    s = _check_sign(sign)
    if not (isinstance(k, (tuple, list)) and len(k) == 3 and all(isinstance(x, (int, float)) for x in k)):
        import numpy as np
        k = np.asarray(k, dtype=float)
        if k.ndim == 0 or k.shape[-1] != 3:
            raise ValueError(f"wavevectors must have 3 components, got shape {k.shape}")
        return np.array([speed_deviation(row, sign) for row in k.reshape(-1, 3).tolist()]).reshape(k.shape[:-1])[()]
    if not all(map(math.isfinite, k)):
        raise ValueError(f"a wavevector must be finite, got k={list(k)}")
    d, n_tilde, norm, _ = _bloch(*(x / 2.0 for x in k), s)
    if norm == 0.0 or _axis_undefined(norm, d):
        raise DegeneratePointError(f"speed undefined at k={list(k)} (n(k/2) = 0)")
    sx, sy, sz = (math.sin(x / SQRT3) for x in k)
    g = -s * 0.5 * sx * sy * sz / _dot(n_tilde, n_tilde)
    return g / (1.0 + math.sqrt(1.0 + g)) if g >= -1.0 else math.nan  # sqrt(1 + g) - 1 without cancellation


def tilt_angle_estimate(k_magnitude: float) -> float:
    """Leading-order estimate 2k of the polarization-plane tilt (radians).

    The exact per-wavevector tilt is walk.tilt_angle, which
    bilinear.maxwell_emergence_report also reports; this is the quoted one-parameter
    order estimate.
    """
    if k_magnitude < 0.0:
        raise ValueError("k must be non-negative")
    return 2.0 * k_magnitude


def energy_to_wavevector(energy_ev: float, units: UnitSystem = PLANCK_UNITS) -> float:
    """Adimensional |k| of a photon of the given energy.

    Convention: physical momentum p = hbar * k_phys with k_phys =
    k / (sqrt(3) l_P), so k = sqrt(3) l_P E / (hbar c).  Every astrophysical
    number downstream depends on this choice; it is the unique one for
    which the small-k group speed is exactly c.
    """
    if energy_ev <= 0.0:
        raise ValueError("photon energy must be positive")
    k_phys = energy_ev * EV / (HBAR * units.c)
    return units.link_length * k_phys


def time_of_flight_delta(distance_m: float, energies, sign, direction=DIAGONAL, units: UnitSystem = PLANCK_UNITS):
    """Arrival-time differences Delta t = D (1/v_1 - 1/v_2) for each pair of ``(label, eV)`` photons.

    Energies are converted to adimensional wavevectors (see
    energy_to_wavevector) along ``direction``, a finite nonzero 3-vector,
    each photon's group speed is one speed_deviation call on a tuple, and
    the distance is treated as flat and static (no redshift integration).
    Raises EnergyOutOfRangeError for a photon whose wavevector leaves the
    canonical cell (-pi sqrt3, pi sqrt3]^3 or whose group speed is not positive.

    Returns a list of rows (label_1, label_2, energy_1_ev, energy_2_ev, k_1,
    k_2, delta_seconds) over all unordered pairs in input order;
    delta_seconds > 0 means photon 1 arrives later.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m!r}")
    labels = [label for label, _ in energies]
    if len(set(labels)) != len(labels):
        raise ValueError("energies must have distinct labels")
    x, y, z = direction if len(direction) == 3 else (math.nan,) * 3
    norm = math.sqrt(x * x + y * y + z * z)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be a finite nonzero 3-vector, got {direction!r}")
    ks = [energy_to_wavevector(ev, units) for _, ev in energies]
    unit = (x / norm, y / norm, z / norm)
    kvecs = [tuple(k * u for u in unit) for k in ks]
    half = math.pi * SQRT3
    for (label, ev), k, kvec in zip(energies, ks, kvecs):
        if not all(-half < c <= half for c in kvec):
            raise EnergyOutOfRangeError(f"photon {label!r} at {ev} eV implies k={k:.3e} outside the canonical cell")
    photons = [(label, ev, k, speed_deviation(kvec, sign)) for (label, ev), k, kvec in zip(energies, ks, kvecs)]
    for label, ev, _, dev in photons:
        if not dev > -1.0:
            raise EnergyOutOfRangeError(f"photon {label!r} at {ev} eV has no positive group speed (deviation {dev})")
    # D (1/v1 - 1/v2) with v = c (1 + dev), kept stable for tiny devs
    return [
        (l1, l2, e1, e2, k1, k2, distance_m / units.c * (d2 - d1) / ((1.0 + d1) * (1.0 + d2)))
        for (l1, e1, k1, d1), (l2, e2, k2, d2) in itertools.combinations(photons, 2)
    ]


def saturation_estimate(photon_count: float, volume_cm3: float, units: UnitSystem = PLANCK_UNITS):
    """Fermionic mode count of a volume and the photon occupancy ratio.

    Convention: one lattice cell of volume (sqrt(3) l_P)^3 carries
    2 fields x 2 spin components = 4 Fermionic modes, so
    modes = 4 V / (sqrt(3) l_P)^3 and ratio = photon_count / modes.
    """
    if photon_count < 0.0 or volume_cm3 <= 0.0:
        raise ValueError("photon_count must be >= 0 and volume positive")
    volume_m3 = volume_cm3 * 1e-6
    cell_volume = units.link_length**3
    modes = 4.0 * volume_m3 / cell_volume
    return modes, photon_count / modes
