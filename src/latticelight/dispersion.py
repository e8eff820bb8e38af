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
from dataclasses import dataclass

import numpy as np

from .walk import SQRT3, DegeneratePointError, bloch_data, canonical_wavevector

#: CODATA Planck length (m) and Planck time (s); their ratio is c
PLANCK_LENGTH = 1.616255e-35
PLANCK_TIME = 5.391247e-44

HBAR = 1.054571817e-34  # J s
EV = 1.602176634e-19  # J

_DEGENERATE_TOL = 1e-12


class EnergyOutOfRangeError(ValueError):
    """Photon energy implies a wavevector outside the canonical cell."""


@dataclass(frozen=True)
class UnitSystem:
    """Planck-to-SI conversion constants.

    ``c`` is derived as planck_length / planck_time; the lattice link length
    is sqrt(3) * planck_length.
    """

    planck_length: float = PLANCK_LENGTH
    planck_time: float = PLANCK_TIME
    lattice_spacing_factor: float = SQRT3

    @property
    def c(self) -> float:
        return self.planck_length / self.planck_time

    @property
    def link_length(self) -> float:
        return self.lattice_spacing_factor * self.planck_length


PLANCK_UNITS = UnitSystem()


def omega(k, sign):
    """Angular frequency omega(k) = 2 |n(k/2)| = 2 lam(k/2), walk units, at ``k[..., 3]``."""
    return 2.0 * bloch_data(np.asarray(k, dtype=float) / 2.0, sign).lam


def group_velocity_analytic(k, sign) -> np.ndarray:
    """Chain-rule gradient of omega at ``k[..., 3]``: -grad d(k/2) / sin lam(k/2).

    The gradient is undefined where sin lam(k/2) < 1e-12 (n(k/2) = 0 or
    lam = pi); those wavevectors get NaN components.
    """
    b = bloch_data(np.asarray(k, dtype=float) / 2.0, sign)
    sin_lam = np.sin(b.lam)
    undefined = sin_lam < _DEGENERATE_TOL
    vg = -b.grad_d / np.where(undefined, 1.0, sin_lam)[..., None]
    return np.where(undefined[..., None], np.nan, vg)


DIAGONAL = np.array([1.0, 1.0, 1.0]) / SQRT3


def speed_deviation(k, sign):
    """Normalized group speed minus 1 at wavevectors ``k[..., 3]``, in a cancellation-free closed form.

    With a = k/(2 sqrt3) the squared normalized speed is exactly

        3 |grad omega|^2 = 1 - sign * sin(2 a_x) sin(2 a_y) sin(2 a_z) / (2 |n_tilde(k/2)|^2),

    an algebraic identity of the closed forms (the gradient components
    reproduce n_tilde except for the sign of one y term, so the deviation
    collapses to a pure product of sines).  Unlike differencing omega, this
    resolves the deviation at astrophysical wavevectors (|k| ~ 1e-19) where
    it falls far below float precision of speed itself.  The leading
    behavior is -sign * k_x k_y k_z / (sqrt3 |k|^2): -sign * |k| / 9 along
    the positive diagonal, 0 along the axes.  A single k gives a float;
    raises DegeneratePointError if n(k/2) = 0 at any wavevector.
    """
    k = np.asarray(k, dtype=float)
    nt2 = np.sum(bloch_data(k / 2.0, sign).n_tilde ** 2, axis=-1)
    degenerate = nt2 == 0.0
    if degenerate.any():
        where = k.reshape(-1, 3)[np.ravel(degenerate)][0]
        raise DegeneratePointError(f"speed undefined at k={where} (n = 0)")
    sin_2a = np.sin(k / SQRT3)
    g = -float(sign) * 0.5 * sin_2a[..., 0] * sin_2a[..., 1] * sin_2a[..., 2] / nt2
    # sqrt(1 + g) - 1 without cancellation
    return (g / (1.0 + np.sqrt(1.0 + g)))[()]


def tilt_angle_estimate(k_magnitude: float) -> float:
    """Leading-order estimate 2k of the polarization-plane tilt (radians).

    The exact per-wavevector tilt is the ``tilt_angle`` of
    bilinear.maxwell_emergence_report; this is the quoted one-parameter
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
    energy_to_wavevector), the group speed of all of them is evaluated along
    ``direction`` in one speed_deviation call, and the distance is treated
    as flat and static (no redshift integration).  Raises
    EnergyOutOfRangeError when an implied wavevector leaves the canonical
    periodic cell.

    Returns a list of rows (label_1, label_2, energy_1_ev, energy_2_ev, k_1,
    k_2, delta_seconds) over all unordered pairs in input order;
    delta_seconds > 0 means photon 1 arrives later.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m!r}")
    labels = [label for label, _ in energies]
    if len(set(labels)) != len(labels):
        raise ValueError("energies must have distinct labels")
    ks = [energy_to_wavevector(ev, units) for _, ev in energies]
    direction = np.asarray(direction, dtype=float)
    kvecs = np.multiply.outer(ks, direction / np.linalg.norm(direction))
    outside = np.max(np.abs(kvecs - canonical_wavevector(kvecs)), axis=-1) > 1e-9
    if outside.any():
        i = int(np.argmax(outside))
        raise EnergyOutOfRangeError(
            f"photon {labels[i]!r} at {energies[i][1]} eV implies k={ks[i]:.3e} outside the canonical cell"
        )
    deviations = speed_deviation(kvecs, sign).tolist()
    photons = [(label, ev, k, dev) for (label, ev), k, dev in zip(energies, ks, deviations)]
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
