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

from . import SQRT3, DegeneratePointError, _axis_undefined, _bloch, _check_sign, _dot, _step_gradient, _step_products, _wavevector

#: CODATA Planck length (m) and Planck time (s); their ratio is c
PLANCK_LENGTH = 1.616255e-35
PLANCK_TIME = 5.391247e-44
C = PLANCK_LENGTH / PLANCK_TIME
#: one step is t_P and one lattice link is sqrt(3) l_P (m)
LINK_LENGTH = SQRT3 * PLANCK_LENGTH

HBAR = 1.054571817e-34  # J s
EV = 1.602176634e-19  # J

_DEGENERATE_TOL = 1e-12


class EnergyOutOfRangeError(ValueError):
    """Photon energy implies a wavevector outside the canonical cell, or no positive group speed."""


DIAGONAL = (1.0 / SQRT3,) * 3


def _wave(point, s):
    """(omega, v_g) of branch ``s`` at the wavevector of ``point``, ((x, cos, sin), (y, cos, sin), (z, cos, sin)) of
    k/(2 sqrt3), with math: omega = 2 lam(k/2) and v_g = -grad d(k/2) / sin lam(k/2), NaN where sin lam(k/2) < 1e-12.

    Raises DegeneratePointError where the rotation axis at k/2 is undefined (lam = pi).
    """
    (x, cx, sx), (y, cy, sy), (z, cz, sz) = point
    cos, sin = (cx, cy, cz), (sx, sy, sz)
    d, n_tilde = _step_products(cos, sin, s)
    norm = math.hypot(*n_tilde)
    if _axis_undefined(norm, d):
        raise DegeneratePointError(f"rotation axis undefined at k/2 for k={[x, y, z]} (lam=pi, n_tilde=0)")
    lam = math.atan2(norm, d)
    sin_lam = math.sin(lam)
    if sin_lam < _DEGENERATE_TOL:
        return 2.0 * lam, (math.nan,) * 3
    (gx, gy, gz), scale = _step_gradient(cos, sin, s), -1.0 / (SQRT3 * sin_lam)  # sqrt3 grad d, and its factor
    return 2.0 * lam, (gx * scale, gy * scale, gz * scale)


def _trig(values):
    """(x, cos, sin) of x / (2 sqrt3) for each x of ``values``, streamed: a point of _wave from the components of k."""
    for x in values:
        a = x / 2.0 / SQRT3
        yield x, math.cos(a), math.sin(a)


def branches(point):
    """The dispersion table row (kx, ky, kz, omega_plus, omega_minus, |v_g|_plus, |v_g|_minus) at a point of grid."""
    (omega_plus, v_plus), (omega_minus, v_minus) = _wave(point, 1.0), _wave(point, -1.0)
    return point[0][0], point[1][0], point[2][0], omega_plus, omega_minus, math.hypot(*v_plus), math.hypot(*v_minus)


def grid(kmax, points, diagonal=False):
    """The dispersion table's points of _wave, streamed: the cube axis^3, x outer and z inner, with cos and sin taken
    once per axis value, or axis times DIAGONAL, one value per row.

    The axis is np.linspace(-kmax, kmax, points), or from 0 on the diagonal, bit for bit: i * step + start, then
    kmax, where numpy divides i by points - 1 first if the step underflows to 0 (a subnormal kmax).
    """
    start = 0.0 if diagonal else -kmax
    div, delta = points - 1, kmax - start
    step = delta / div if div else math.nan
    head = (i * step + start if step else i / div * delta + start for i in range(div))
    axis = itertools.chain(head, [kmax if div else start])
    if diagonal:
        return ((t, t, t) for t in _trig(v * DIAGONAL[0] for v in axis))
    return itertools.product(list(_trig(axis)), repeat=3)


def omega(k, sign):
    """Angular frequency omega(k) = 2 |n(k/2)| = 2 lam(k/2), walk units, at one wavevector ``k``."""
    s = _check_sign(sign)
    return _wave(tuple(_trig(_wavevector(k))), s)[0]


def group_velocity_analytic(k, sign):
    """Chain-rule gradient of omega at one wavevector ``k``, a 3-tuple: NaN where sin lam(k/2) < 1e-12."""
    s = _check_sign(sign)
    return _wave(tuple(_trig(_wavevector(k))), s)[1]


def speed_deviation(k, sign):
    """Normalized group speed minus 1 at one wavevector ``k``, in a cancellation-free closed form.

    With a = k/(2 sqrt3) the squared normalized speed is exactly

        3 |grad omega|^2 = 1 - sign * sin(2 a_x) sin(2 a_y) sin(2 a_z) / (2 |n_tilde(k/2)|^2),

    an algebraic identity of the closed forms (the gradient components
    reproduce n_tilde except for the sign of one y term, so the deviation
    collapses to a pure product of sines).  Unlike differencing omega, this
    resolves the deviation at astrophysical wavevectors (|k| ~ 1e-19) where
    it falls far below float precision of speed itself.  The leading
    behavior is -sign * k_x k_y k_z / (sqrt3 |k|^2): -sign * |k| / 9 along
    the positive diagonal, 0 along the axes.  Raises ValueError for a
    component that is not finite and DegeneratePointError where n(k/2) = 0
    or lam(k/2) = pi; gives NaN where rounding puts 1 + g < 0, next to the
    plus branch's zero speed.
    """
    s = _check_sign(sign)
    k = _wavevector(k)
    d, n_tilde, norm, _ = _bloch(*(x / 2.0 for x in k), s)
    if norm == 0.0 or _axis_undefined(norm, d):
        raise DegeneratePointError(f"speed undefined at k={list(k)} (n(k/2) = 0)")
    sx, sy, sz = (math.sin(x / SQRT3) for x in k)
    g = -s * 0.5 * sx * sy * sz / _dot(n_tilde, n_tilde)
    return g / (1.0 + math.sqrt(1.0 + g)) if g >= -1.0 else math.nan  # sqrt(1 + g) - 1 without cancellation


def tilt_angle_estimate(k_magnitude: float) -> float:
    """Leading-order estimate 2k of the polarization-plane tilt (radians).

    The exact per-wavevector tilt is bilinear.tilt_angle, which
    bilinear.maxwell_emergence_report also reports; this is the quoted one-parameter
    order estimate.
    """
    if k_magnitude < 0.0:
        raise ValueError("k must be non-negative")
    return 2.0 * k_magnitude


def energy_to_wavevector(energy_ev: float) -> float:
    """Adimensional |k| of a photon of the given energy.

    Convention: physical momentum p = hbar * k_phys with k_phys =
    k / (sqrt(3) l_P), so k = sqrt(3) l_P E / (hbar c).  Every astrophysical
    number downstream depends on this choice; it is the unique one for
    which the small-k group speed is exactly c.
    """
    if energy_ev <= 0.0:
        raise ValueError("photon energy must be positive")
    k_phys = energy_ev * EV / (HBAR * C)
    return LINK_LENGTH * k_phys


def time_of_flight_delta(distance_m: float, energies, sign, direction=DIAGONAL):
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
    try:
        x, y, z = _wavevector(direction)
    except ValueError:  # not three finite numbers
        x = y = z = math.nan
    norm = math.sqrt(x * x + y * y + z * z)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be a finite nonzero 3-vector, got {direction!r}")
    ks = [energy_to_wavevector(ev) for _, ev in energies]
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
        (l1, l2, e1, e2, k1, k2, distance_m / C * (d2 - d1) / ((1.0 + d1) * (1.0 + d2)))
        for (l1, e1, k1, d1), (l2, e2, k2, d2) in itertools.combinations(photons, 2)
    ]


def saturation_estimate(photon_count: float, volume_cm3: float):
    """Fermionic mode count of a volume and the photon occupancy ratio.

    Convention: one lattice cell of volume (sqrt(3) l_P)^3 carries
    2 fields x 2 spin components = 4 Fermionic modes, so
    modes = 4 V / (sqrt(3) l_P)^3 and ratio = photon_count / modes.
    """
    if photon_count < 0.0 or volume_cm3 <= 0.0:
        raise ValueError("photon_count must be >= 0 and volume positive")
    volume_m3 = volume_cm3 * 1e-6
    cell_volume = LINK_LENGTH**3
    modes = 4.0 * volume_m3 / cell_volume
    return modes, photon_count / modes
