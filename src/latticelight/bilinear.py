"""Evolution of the smeared Fermion-pair bilinear kernels.

The field operators built from the two walk species are spectators here:
every dynamical statement reduces to the c-number kernel

    M_mu(q, t) = (A(k/2 - q)^t)^dag  sigma^mu  (A(k/2 + q)^t) * f(q),

stored per grid point q of a smearing profile as the four coefficients of
(I, sigma_x, sigma_y, sigma_z).  The vector of the three sigma-channel
kernels rotates, exactly at q = 0 and up to O(qbar/|n(k/2)|) on a finite
profile, about the axis n(k/2); the transverse part of that rotation is the
emergent Maxwell dynamics, and the residual after undoing the predicted
rotation quantifies the internal-dynamics correction.

All functions are pure; per-grid-point work is independent and reductions
use a fixed summation order, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import PAULI, DegeneratePointError, bloch_data, step_power

_FRAME_TOL = 1e-12

# largest enclosing cube (2m+1)^3, m = floor(radius / grid_spacing), that
# make_uniform_profile will allocate: about 25 MB of float64 offsets
MAX_PROFILE_CUBE = 2**20


@dataclass(frozen=True)
class SmearingProfile:
    """Normalized weight function f(q) on a finite grid of momentum offsets.

    ``offsets`` has shape (N, 3), ``weights`` shape (N,);  sum |f(q)|^2 = 1.
    """

    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        weights = np.asarray(self.weights, dtype=complex)
        if offsets.ndim != 2 or offsets.shape[1] != 3 or len(offsets) != len(weights):
            raise ValueError("profile needs offsets (N,3) and weights (N,)")
        total = float(np.sum(np.abs(weights) ** 2))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"profile not normalized: sum|f|^2 = {total!r}")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def support_radius(self) -> float:
        """Largest |q| carrying weight (the qbar of the profile)."""
        return float(np.max(np.linalg.norm(self.offsets, axis=1)))

    def weight_fraction_outside(self, radius: float) -> float:
        """Fraction of sum|f|^2 carried by grid points with |q| > radius."""
        outside = np.linalg.norm(self.offsets, axis=1) > radius
        return float(np.sum(np.abs(self.weights[outside]) ** 2))


def single_point_profile() -> SmearingProfile:
    """The q = 0 delta profile (one grid point, unit weight)."""
    return SmearingProfile(np.zeros((1, 3)), np.ones(1))


def make_uniform_profile(radius: float, grid_spacing: float) -> SmearingProfile:
    """Uniform weights 1/sqrt(N) on the cubic-grid points inside the ball |q| <= radius.

    The grid is the cubic lattice of the given spacing centered on q = 0;
    points are enumerated in a fixed lexicographic order.  The origin is
    always inside, so the support is never empty.  Raises ValueError, before
    allocating, when the enclosing (2m+1)^3 cube exceeds MAX_PROFILE_CUBE.
    """
    if radius <= 0.0 or grid_spacing <= 0.0:
        raise ValueError("radius and grid_spacing must be positive")
    m = math.floor(min(radius / grid_spacing + 1e-12, MAX_PROFILE_CUBE))  # finite for an infinite ratio
    if (2 * m + 1) ** 3 > MAX_PROFILE_CUBE:
        raise ValueError(
            f"radius / grid_spacing = {radius / grid_spacing:.6g} needs more than"
            f" MAX_PROFILE_CUBE = {MAX_PROFILE_CUBE} grid points"
        )
    axis = np.arange(-m, m + 1, dtype=float)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid *= grid_spacing
    offsets = grid[np.linalg.norm(grid, axis=1) <= radius * (1.0 + 1e-12)]
    weights = np.full(len(offsets), 1.0 / math.sqrt(len(offsets)), dtype=complex)
    return SmearingProfile(offsets, weights)


def pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Expand 2x2 matrices ``[..., 2, 2]`` in the sigma^mu basis: c_mu = tr(sigma_mu M) / 2."""
    return np.einsum("mij,...ji->...m", PAULI, matrix) / 2.0


def vector_tables(profile: SmearingProfile, k, sign, t: int) -> np.ndarray:
    """Evolved tables of all three vector channels, shape (N, 3, 4).

    Entry [q, a, nu] is the sigma-basis coefficient c_nu = tr(sigma_nu M) / 2
    of M = (A(k/2-q)^t)^dag sigma^a (A(k/2+q)^t) f(q), with a = x, y, z the
    inserted channel.  Both step powers are evaluated over the whole grid at
    once.
    """
    k_half = np.asarray(k, dtype=float) / 2.0
    a_minus = step_power(k_half - profile.offsets, sign, t)
    a_plus = step_power(k_half + profile.offsets, sign, t)
    products = np.conj(a_minus.swapaxes(-1, -2))[:, None] @ PAULI[1:] @ a_plus[:, None]
    return pauli_coefficients(products) * profile.weights[:, None, None]


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def rotation_generator(v) -> np.ndarray:
    """Real orthogonal rotation reassembling a conjugated Pauli vector.

    Returns the 3x3 matrix R(v) with

        exp(-i v.sigma / 2) sigma_a exp(+i v.sigma / 2) = sum_b R(v)_ab sigma_b,

    i.e. the Rodrigues rotation by angle |v| about v/|v| in the orientation
    fixed by that identity (R(v) = expm(-[v]_x)).  Identity at v = 0.
    """
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    if theta < 1e-300:
        return np.eye(3)
    kmat = _cross_matrix(v / theta)
    return np.eye(3) - math.sin(theta) * kmat + (1.0 - math.cos(theta)) * (kmat @ kmat)


def predicted_rotation(n, t) -> np.ndarray:
    """Rotation advancing the vector of sigma-channel kernels by t steps.

    The (F_x, F_y, F_z) channel vector evolves, exactly at q = 0, as
    F(t) = predicted_rotation(n, t) @ F(0) with n = n(k/2).  Equivalently a
    single kernel's coefficient 3-vector evolves by the transpose.  The
    circular mode (u1 + i u2)/sqrt(2) of a right-handed frame about n picks
    up the positive-frequency phase exp(-2i|n|t) under this matrix.
    """
    return rotation_generator(-2.0 * float(t) * np.asarray(n, dtype=float))


@dataclass(frozen=True)
class PolarizationFrame:
    """Right-handed orthonormal triple (u1, u2, e) with e along the rotation axis."""

    e: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


def polarization_frame(n) -> PolarizationFrame:
    """Deterministic frame transverse to n: u1 = normalize(e x a), u2 = e x u1.

    ``a`` is the coordinate axis least aligned with e (ties broken by lowest
    axis index), making the frame reproducible across runs.  Raises
    DegeneratePointError for |n| below tolerance.
    """
    n = np.asarray(n, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm < _FRAME_TOL:
        raise DegeneratePointError(f"no transverse frame: |n| = {norm:.3e}")
    e = n / norm
    axis = np.argmin(np.abs(e))
    u1 = np.cross(e, np.eye(3)[axis])
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(e, u1)
    return PolarizationFrame(e=e, u1=u1, u2=u2)


def transverse_tables(tables: np.ndarray, frame: PolarizationFrame):
    """Project the channel axis of (N, 3, 4) kernel tables onto the frame.

    Returns (transverse (N, 2, 4), longitudinal (N, 4)).
    """
    trans = np.stack(
        [np.einsum("a,qav->qv", frame.u1, tables), np.einsum("a,qav->qv", frame.u2, tables)],
        axis=1,
    )
    longitudinal = np.einsum("a,qav->qv", frame.e, tables)
    return trans, longitudinal


@dataclass(frozen=True)
class MaxwellReport:
    """Result of undoing the predicted rotation on an evolved kernel."""

    k: np.ndarray
    t: int
    qbar: float
    residual_transverse: float
    tilt_angle: float
    axis_angle_to_k: float
    predicted_rotation: np.ndarray


def _weighted_rms(dev: np.ndarray) -> float:
    # fixed reduction order: flatten C-order, accumulate with np.sum
    return float(math.sqrt(np.sum(np.abs(dev) ** 2)))


def _axis_angle(n, k):
    """Angle in [0, pi] between the rotation axes ``n[..., 3]`` and wavevectors ``k[..., 3]``.

    atan2(|n x k|, n . k) keeps its relative precision at small angles, where
    arccos of the cosine has an absolute error of about sqrt(eps) = 1e-8.
    """
    return np.arctan2(np.linalg.norm(np.cross(n, k), axis=-1), np.sum(n * k, axis=-1))


def tilt_angle(k, sign):
    """Exact polarization tilt at wavevectors ``k[..., 3]``, in [0, pi/2].

    The tilt is the angle between the rotation axis n(k/2) and k, folded
    into [0, pi/2]: the angle between the polarization plane (normal to the
    axis) and the plane orthogonal to k.  Raises DegeneratePointError when
    |n(k/2)| is below tolerance at any wavevector (no axis, as in
    polarization_frame).
    """
    k = np.asarray(k, dtype=float)
    n = bloch_data(k / 2.0, sign).n
    if np.any(np.linalg.norm(n, axis=-1) < _FRAME_TOL):
        raise DegeneratePointError(f"no rotation axis: |n(k/2)| < {_FRAME_TOL} in the batch")
    angle = _axis_angle(n, k)
    return np.minimum(angle, math.pi - angle)


def maxwell_emergence_report(profile: SmearingProfile, k, sign, t: int) -> MaxwellReport:
    """Quantify how exactly the evolved transverse kernel is a pure rotation.

    Evolves the three vector kernels to time t, applies the inverse of the
    predicted rotation about n(k/2), and reports the profile-weighted RMS
    deviation of the back-rotated transverse table from its t = 0 value
    (zero, to rounding, for a single-point profile; O(qbar/|n|) otherwise).
    Also reports the static tilt between the polarization plane (normal to
    the rotation axis) and the plane orthogonal to k.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    k = np.asarray(k, dtype=float)
    b = bloch_data(k / 2.0, sign)
    frame = polarization_frame(b.n)
    rot = predicted_rotation(b.n, t)

    now = vector_tables(profile, k, sign, t)
    ref = vector_tables(profile, k, sign, 0)
    back = np.einsum("ba,qbv->qav", rot, now)  # rot^T on the channel axis
    dev_trans, _ = transverse_tables(back - ref, frame)
    residual = _weighted_rms(dev_trans)

    return MaxwellReport(
        k=k,
        t=int(t),
        qbar=profile.support_radius,
        residual_transverse=residual,
        tilt_angle=float(tilt_angle(k, sign)),
        axis_angle_to_k=float(_axis_angle(b.n, k)),
        predicted_rotation=rot,
    )


@dataclass(frozen=True)
class GeneratorCheck:
    """Finite-difference vs generator comparison for the transverse kernel."""

    k: np.ndarray
    t: int
    qbar: float
    n_norm: float
    fd_forward_residual: float
    fd_central_residual: float
    rotation_step_residual: float
    discretization_floor: float


def maxwell_generator_check(profile: SmearingProfile, k, sign, t: int) -> GeneratorCheck:
    """Compare one-step differences of the transverse kernel with 2 n x (.).

    Reports, all as profile-weighted RMS over the transverse channels:

    * ``fd_forward_residual``: |[F(t+1) - F(t)] - 2n x F(t)|,
    * ``fd_central_residual``: the central-difference variant,
    * ``rotation_step_residual``: |F(t+1) - R(1) F(t)| with R(1) the exact
      one-step rotation (isolates the internal-dynamics O(qbar/|n|) term),
    * ``discretization_floor``: the forward residual of a single-point
      profile, i.e. the pure time-discretization error of the rotation.
    """
    k = np.asarray(k, dtype=float)
    b = bloch_data(k / 2.0, sign)
    frame = polarization_frame(b.n)
    gen = _cross_matrix(2.0 * b.n)
    rot_step = predicted_rotation(b.n, 1)

    def residuals(prof):
        prev = vector_tables(prof, k, sign, t - 1)
        now = vector_tables(prof, k, sign, t)
        nxt = vector_tables(prof, k, sign, t + 1)
        target = np.einsum("ab,qbv->qav", gen, now)
        fwd, _ = transverse_tables((nxt - now) - target, frame)
        cen, _ = transverse_tables((nxt - prev) / 2.0 - target, frame)
        step, _ = transverse_tables(nxt - np.einsum("ab,qbv->qav", rot_step, now), frame)
        return _weighted_rms(fwd), _weighted_rms(cen), _weighted_rms(step)

    fwd, cen, step = residuals(profile)
    floor, _, _ = residuals(single_point_profile())
    return GeneratorCheck(
        k=k,
        t=int(t),
        qbar=profile.support_radius,
        n_norm=b.lam,
        fd_forward_residual=fwd,
        fd_central_residual=cen,
        rotation_step_residual=step,
        discretization_floor=floor,
    )
