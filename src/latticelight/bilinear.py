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

from .walk import DegeneratePointError, _power_coefficients, bloch_data

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


def vector_tables(profile: SmearingProfile, k, sign, t: int) -> np.ndarray:
    """Evolved tables of all three vector channels, shape (N, 3, 4).

    Entry [q, a, nu] is the sigma-basis coefficient c_nu = tr(sigma_nu M) / 2
    of M = (A(k/2-q)^t)^dag sigma^a (A(k/2+q)^t) f(q), with a = x, y, z the
    inserted channel.  From the real step-power coefficients over the whole
    grid, A(k/2-q)^t = a0 - i a.sigma and A(k/2+q)^t = b0 - i b.sigma, the
    quaternion product (a0 + i a.sigma) sigma^a (b0 - i b.sigma) gives
    c_0 = i (b0 a - a0 b + b x a)_a and c_nu = (a0 b0 - a.b) delta_{a,nu}
    + a_a b_nu + b_a a_nu - eps_{a,nu,m} (b0 a + a0 b)_m for nu = 1..3.
    """
    k_half = np.asarray(k, dtype=float) / 2.0
    a0, a = _power_coefficients(k_half - profile.offsets, sign, t)
    b0, b = _power_coefficients(k_half + profile.offsets, sign, t)
    out = np.empty((len(a0), 3, 4), dtype=complex)
    out[:, :, 0] = 1j * (b0[:, None] * a - a0[:, None] * b + np.cross(b, a))
    vec = a[:, :, None] * b[:, None, :]
    vec += vec.swapaxes(1, 2)
    vec[:, (0, 1, 2), (0, 1, 2)] += (a0 * b0 - np.sum(a * b, axis=1))[:, None]
    w = b0[:, None] * a + a0[:, None] * b
    vec[:, (1, 2, 0), (2, 0, 1)] -= w
    vec[:, (2, 0, 1), (1, 2, 0)] += w
    out[:, :, 1:] = vec
    return out * profile.weights[:, None, None]


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


@dataclass(frozen=True)
class MaxwellReport:
    """Result of undoing the predicted rotation on an evolved kernel."""

    qbar: float
    residual_transverse: float
    tilt_angle: float
    axis_angle_to_k: float


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

    The angle between the rotation axis n(k/2) and the branch's small-k axis,
    folded into [0, pi/2]: k on the minus branch, and (k_x, -k_y, k_z) on the
    plus branch, since n(k, +) = n((k_x, -k_y, k_z), -).  It is the angle
    between the polarization plane (normal to n) and the plane orthogonal to
    that axis.  Raises DegeneratePointError when |n(k/2)| is below tolerance
    at any wavevector (no axis, as in polarization_frame).
    """
    k = np.asarray(k, dtype=float)
    n = bloch_data(k / 2.0, sign).n
    if np.any(np.linalg.norm(n, axis=-1) < _FRAME_TOL):
        raise DegeneratePointError(f"no rotation axis: |n(k/2)| < {_FRAME_TOL} in the batch")
    angle = _axis_angle(n, k * np.array([1.0, -float(sign), 1.0]))
    return np.minimum(angle, math.pi - angle)


def maxwell_emergence_report(profile: SmearingProfile, k, sign, t: int) -> MaxwellReport:
    """Quantify how exactly the evolved transverse kernel is a pure rotation.

    Evolves the three vector kernels to time t, applies the inverse of the
    predicted rotation about n(k/2), and reports the profile-weighted RMS
    deviation of the back-rotated transverse table from its t = 0 value:
    zero, to rounding, for a single-point profile, else O(qbar/|n|) while t
    qbar is small (at the CLI defaults the fitted slope reads 1.001, 1.050,
    1.752, 1.998 at t = 10^3, 3000, 10^4, 10^6).  Also reports the static
    tilt of tilt_angle and the raw angle between the rotation axis and k.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    k = np.asarray(k, dtype=float)
    b = bloch_data(k / 2.0, sign)
    frame = polarization_frame(b.n)
    rot = predicted_rotation(b.n, t)

    # u . (rot^T F) = (rot u) . F, and the t = 0 table is f(q) delta_{a, nu-1}
    uv = np.stack([frame.u1, frame.u2])
    dev = np.einsum("ia,qav->qiv", uv @ rot.T, vector_tables(profile, k, sign, t))
    dev[:, :, 1:] -= profile.weights[:, None, None] * uv
    residual = _weighted_rms(dev)

    return MaxwellReport(
        qbar=profile.support_radius,
        residual_transverse=residual,
        tilt_angle=float(tilt_angle(k, sign)),
        axis_angle_to_k=float(_axis_angle(b.n, k)),
    )


@dataclass(frozen=True)
class GeneratorCheck:
    """Finite-difference vs generator comparison for the transverse kernel."""

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
    # u . (M F) = (u M) . F: each term is a (2, 3) projection of one table
    uv = np.stack([frame.u1, frame.u2])
    gen = uv @ _cross_matrix(2.0 * b.n)
    rot_step = uv @ predicted_rotation(b.n, 1)

    def residuals(prof):
        prev, now, nxt = (vector_tables(prof, k, sign, s) for s in (t - 1, t, t + 1))
        target = np.einsum("ia,qav->qiv", gen, now)
        fwd = np.einsum("ia,qav->qiv", uv, nxt - now) - target
        cen = np.einsum("ia,qav->qiv", uv, (nxt - prev) / 2.0) - target
        step = np.einsum("ia,qav->qiv", uv, nxt) - np.einsum("ia,qav->qiv", rot_step, now)
        return _weighted_rms(fwd), _weighted_rms(cen), _weighted_rms(step)

    fwd, cen, step = residuals(profile)
    floor, _, _ = residuals(single_point_profile())
    return GeneratorCheck(
        qbar=profile.support_radius,
        n_norm=b.lam,
        fd_forward_residual=fwd,
        fd_central_residual=cen,
        rotation_step_residual=step,
        discretization_floor=floor,
    )
