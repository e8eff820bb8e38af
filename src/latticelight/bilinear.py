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

Every per-grid-point quantity comes from one kernel, ``_kernel``, written
with ``math`` on the step of ``latticelight._bloch``; the
residuals stream through it one grid point at a time.  The module runs on
the standard library and never imports numpy; ``tilt_angle``, the exact
tilt at one wavevector, serves the ``tilt`` subcommand and the emergence
report alike.  All functions are pure and every
reduction runs in a fixed order, so results are deterministic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, filterfalse

from . import (
    _AXIS_TOL,
    _FRAME_TOL,
    MAX_STEPS,
    DegeneratePointError,
    _axis_undefined,
    _bloch,
    _check_sign,
    _cross,
    _dot,
    _wavevector,
)

# largest enclosing cube (2m+1)^3, m = floor(radius / grid_spacing), that
# make_uniform_profile will enumerate: at m = 50 (spacing_factor 0.02) the ball
# holds 523,305 points, about 42 MB as offset tuples, and a maxwell-convergence
# run at that size, one level's profile at a time, peaks at 61 MB
MAX_PROFILE_CUBE = 2**20


class SmearingProfile(namedtuple("SmearingProfile", "offsets weights")):
    """Normalized weight function f(q) on a finite grid of momentum offsets.

    ``offsets`` is a tuple of N (q_x, q_y, q_z) triples and ``weights`` a
    tuple of N complex numbers (any sequences of these are converted), all
    finite, with sum |f(q)|^2 = 1.  Immutable.
    """

    __slots__ = ()

    def __new__(cls, offsets, weights):
        try:
            offsets = tuple([(float(x), float(y), float(z)) for x, y, z in offsets])
            weights = tuple(map(complex, weights))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"profile needs numeric offsets (N,3) and weights (N,): {exc}") from None
        if len(offsets) != len(weights):
            raise ValueError("profile needs offsets (N,3) and weights (N,)")
        bad = next(filterfalse(math.isfinite, chain.from_iterable(offsets)), None)
        if bad is not None:
            raise ValueError(f"profile offsets must be finite, got {bad!r}")
        try:
            total = math.fsum(abs(w) ** 2 for w in weights)
        except OverflowError:  # a weight past about 1e154
            total = math.inf
        if not abs(total - 1.0) <= 1e-12:  # refuses a NaN or infinite weight too
            raise ValueError(f"profile not normalized: sum|f|^2 = {total!r}")
        return super().__new__(cls, offsets, weights)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def support_radius(self) -> float:
        """Largest |q| carrying weight (the qbar of the profile)."""
        r2 = max(x * x + y * y + z * z for x, y, z in self.offsets)
        if 1e-290 < r2 < math.inf:
            return math.sqrt(r2)
        return max(math.hypot(x, y, z) for x, y, z in self.offsets)  # where the squares overflow or underflow


def single_point_profile() -> SmearingProfile:
    """The q = 0 delta profile (one grid point, unit weight)."""
    return SmearingProfile([(0.0, 0.0, 0.0)], [1.0])


def make_uniform_profile(radius: float, grid_spacing: float) -> SmearingProfile:
    """Uniform weights 1/sqrt(N) on the cubic-grid points inside the ball |q| <= radius.

    The grid is the cubic lattice of the given spacing centered on q = 0;
    points are enumerated in a fixed lexicographic order.  The origin is
    always inside, so the support is never empty.  Raises ValueError, before
    allocating, when the enclosing (2m+1)^3 cube exceeds MAX_PROFILE_CUBE.
    """
    if not (0.0 < radius < math.inf and 0.0 < grid_spacing < math.inf):
        raise ValueError(f"radius and grid_spacing must be positive and finite, got {radius!r} and {grid_spacing!r}")
    m = math.floor(min(radius / grid_spacing + 1e-12, MAX_PROFILE_CUBE))  # finite for a ratio that overflows
    if (2 * m + 1) ** 3 > MAX_PROFILE_CUBE:
        raise ValueError(
            f"radius / grid_spacing = {radius / grid_spacing:.6g} needs more than"
            f" MAX_PROFILE_CUBE = {MAX_PROFILE_CUBE} grid points"
        )
    # the point (i, j, l) * grid_spacing is inside when i^2 + j^2 + l^2 <= R^2 with R = (radius / grid_spacing)
    # (1 + 1e-12): integer indices alone decide, so the ball is scale-free; a row (i, j) holds the z indices -l..l
    r2 = (radius / grid_spacing * (1.0 + 1e-12)) ** 2
    axis = [i * grid_spacing for i in range(-m, m + 1)]
    rows = [
        (x, y, min(math.isqrt(math.floor(r2 - i * i - j * j)), m))
        for i, x in enumerate(axis, -m) for j, y in enumerate(axis, -m) if i * i + j * j <= r2
    ]
    count = sum(2 * l + 1 for _, _, l in rows)
    # a generator: SmearingProfile's float copy is the only list of offsets held
    offsets = ((x, y, z) for x, y, l in rows for z in axis[m - l : m + l + 1])
    return SmearingProfile(offsets, (complex(1.0 / math.sqrt(count)),) * count)


# ---------------------------------------------------------------------------
# the per-grid-point kernel


def _power(x, y, z, s, t: int):
    """(c, v_x, v_y, v_z) with A(k)^t = c I - i v.sigma at the wavevector k = (x, y, z): the step-power rule.

    A power is a rotation by t*lam about the fixed axis n_tilde/|n_tilde|, with
    t*lam reduced mod 2*pi before the trig evaluation.  Every entry of the
    power is within 1e-15 (1 + |t|) of the exact one (50-digit mpmath, in the
    tests) for |t| up to MAX_STEPS = 10**6; a larger |t| raises ValueError.
    Negative t gives inverse steps.  Where |n_tilde| < _AXIS_TOL, A = d I with
    d = +-1 and the power is d^t I.
    """
    if abs(t) > MAX_STEPS:
        raise ValueError(f"t must satisfy |t| <= {MAX_STEPS}, got {t}")
    d, (nx, ny, nz), norm, lam = _bloch(x, y, z, s)
    if norm < _AXIS_TOL:
        return (1.0 if d > 0.0 else (-1.0) ** (t % 2)), 0.0, 0.0, 0.0
    angle = math.fmod(t * lam, 2.0 * math.pi)
    f = math.sin(angle) / norm
    return math.cos(angle), f * nx, f * ny, f * nz


def _kernel(profile: SmearingProfile, k, sign, t: int):
    """Yield the evolved kernel of each grid point of the profile, in order, without f(q): a tuple of 12 reals.

    Entry T[4a + nu], for channel a = x, y, z and nu = 0..3, is the
    sigma-basis coefficient c_nu = tr(sigma_nu M) / 2 of
    M = (A(k/2-q)^t)^dag sigma^a A(k/2+q)^t, with c_0 (which is imaginary)
    given as c_0 / i.  With A(k/2-q)^t = a0 - i a.sigma and A(k/2+q)^t =
    b0 - i b.sigma from _power, the quaternion product (a0 + i a.sigma)
    sigma^a (b0 - i b.sigma) gives c_0 = i (b0 a - a0 b + b x a)_a and
    c_nu = (a0 b0 - a.b) delta_{a,nu} + a_a b_nu + b_a a_nu
    - eps_{a,nu,m} (b0 a + a0 b)_m for nu = 1..3.
    """
    s = _check_sign(sign)
    hx, hy, hz = (float(c) / 2.0 for c in k)
    for qx, qy, qz in profile.offsets:
        yield _table(_power(hx - qx, hy - qy, hz - qz, s, t), _power(hx + qx, hy + qy, hz + qz, s, t))


def _table(minus, plus):
    """The 12 kernel coefficients of _kernel from the SU(2) coefficients of A(k/2-q)^t and A(k/2+q)^t."""
    a0, ax, ay, az = minus
    b0, bx, by, bz = plus
    g = a0 * b0 - (ax * bx + ay * by + az * bz)
    wx, wy, wz = b0 * ax + a0 * bx, b0 * ay + a0 * by, b0 * az + a0 * bz
    sxy, sxz, syz = ax * by + bx * ay, ax * bz + bx * az, ay * bz + by * az
    return (
        b0 * ax - a0 * bx + (by * az - bz * ay), g + 2.0 * ax * bx, sxy - wz, sxz + wy,
        b0 * ay - a0 * by + (bz * ax - bx * az), sxy + wz, g + 2.0 * ay * by, syz - wx,
        b0 * az - a0 * bz + (bx * ay - by * ax), sxz - wy, syz + wx, g + 2.0 * az * bz,
    )


def _project(rows, table):
    """The 4 coefficients of sum_a r_a T[a] for each 3-vector r of ``rows``, concatenated."""
    x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3 = table
    out = ()
    for r0, r1, r2 in rows:
        out += (r0 * x0 + r1 * y0 + r2 * z0, r0 * x1 + r1 * y1 + r2 * z1,
                r0 * x2 + r1 * y2 + r2 * z2, r0 * x3 + r1 * y3 + r2 * z3)
    return out


# ---------------------------------------------------------------------------
# rotations, frames and angles


def rotation_generator(v):
    """Real orthogonal rotation reassembling a conjugated Pauli vector, as a tuple of 3 rows.

    Returns the 3x3 matrix R(v) with

        exp(-i v.sigma / 2) sigma_a exp(+i v.sigma / 2) = sum_b R(v)_ab sigma_b,

    i.e. the Rodrigues rotation by angle |v| about v/|v| in the orientation
    fixed by that identity (R(v) = expm(-[v]_x)).  Identity at v = 0.
    """
    x, y, z = map(float, v)
    theta = math.sqrt(x * x + y * y + z * z)
    if theta < 1e-300:
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    x, y, z = x / theta, y / theta, z / theta
    s, c = math.sin(theta), 1.0 - math.cos(theta)
    # I - sin(theta) [e]_x + (1 - cos(theta)) [e]_x^2, with [e]_x^2 = e e^T - I
    return (
        (1.0 + c * (x * x - 1.0), s * z + c * x * y, -s * y + c * x * z),
        (-s * z + c * x * y, 1.0 + c * (y * y - 1.0), s * x + c * y * z),
        (s * y + c * x * z, -s * x + c * y * z, 1.0 + c * (z * z - 1.0)),
    )


def predicted_rotation(n, t):
    """Rotation advancing the vector of sigma-channel kernels by t steps, as a tuple of 3 rows.

    The (F_x, F_y, F_z) channel vector evolves, exactly at q = 0, as
    F(t) = predicted_rotation(n, t) @ F(0) with n = n(k/2).  Equivalently a
    single kernel's coefficient 3-vector evolves by the transpose.  The
    circular mode (u1 + i u2)/sqrt(2) of a right-handed frame about n picks
    up the positive-frequency phase exp(-2i|n|t) under this matrix.
    """
    return rotation_generator([-2.0 * float(t) * float(c) for c in n])


PolarizationFrame = namedtuple("PolarizationFrame", "e u1 u2")
PolarizationFrame.__doc__ = "Right-handed orthonormal triple (u1, u2, e) of 3-tuples with e along the rotation axis."


def polarization_frame(n) -> PolarizationFrame:
    """Deterministic frame transverse to n: u1 = normalize(e x a), u2 = e x u1.

    ``a`` is the coordinate axis least aligned with e (ties broken by lowest
    axis index), making the frame reproducible across runs.  Raises
    DegeneratePointError for |n| below tolerance.
    """
    n = tuple(map(float, n))
    norm = math.sqrt(_dot(n, n))
    if norm < _FRAME_TOL:
        raise DegeneratePointError(f"no transverse frame: |n| = {norm:.3e}")
    e = tuple(c / norm for c in n)
    axis = min(range(3), key=lambda i: abs(e[i]))
    u1 = _cross(e, [1.0 if i == axis else 0.0 for i in range(3)])
    norm = math.sqrt(_dot(u1, u1))
    u1 = tuple(c / norm for c in u1)
    return PolarizationFrame(e=e, u1=u1, u2=_cross(e, u1))


def _half_axis(k, sign):
    """(lam, n) of n(k/2) at one wavevector of floats, with math: walk.bloch_data(k / 2).lam and .n.

    Raises DegeneratePointError at lam = pi, where the axis is undefined.
    """
    x, y, z = k
    d, (nx, ny, nz), norm, lam = _bloch(x / 2.0, y / 2.0, z / 2.0, _check_sign(sign))
    if _axis_undefined(norm, d):
        raise DegeneratePointError(f"rotation axis undefined at k={list(k)} / 2 (lam=pi, n_tilde=0)")
    # lam/sin(lam) = 1 + lam^2/6 + ...; below _AXIS_TOL the series collapses to n = n_tilde
    scale = 1.0 + lam * lam / 6.0 if norm < _AXIS_TOL else lam / norm
    return lam, (scale * nx, scale * ny, scale * nz)


def _angle(n, a):
    """Angle in [0, pi] between the 3-vectors n and a.

    ``a`` is first scaled by the power of 2 that puts its largest component in
    [0.5, 1): that changes no bit of the angle where |n x a|^2 is finite, and
    keeps the square finite for any finite ``a`` (unscaled, it overflows from
    |a| of about 1e154).
    """
    x, y, z = a
    scale = -math.frexp(max(abs(x), abs(y), abs(z)))[1]
    a = (math.ldexp(x, scale), math.ldexp(y, scale), math.ldexp(z, scale))
    # atan2(|n x a|, n . a) keeps its relative precision at small angles, where arccos of the cosine has an
    # absolute error of about sqrt(eps) = 1e-8
    c = _cross(n, a)
    return math.atan2(math.sqrt(_dot(c, c)), _dot(n, a))


def tilt_angle(k, sign) -> float:
    """Exact polarization tilt at one wavevector k, in [0, pi/2].

    The angle between the rotation axis n(k/2) and the branch's small-k axis,
    folded into [0, pi/2]: k on the minus branch, and (k_x, -k_y, k_z) on the
    plus branch, since n(k, +) = n((k_x, -k_y, k_z), -).  It is the angle
    between the polarization plane (normal to n) and the plane orthogonal to
    that axis.  Raises DegeneratePointError where |n(k/2)| < _FRAME_TOL (no
    axis, as in polarization_frame), and ValueError where k is not three finite numbers.
    """
    x, y, z = k = _wavevector(k)
    _, n = _half_axis(k, sign)
    if math.sqrt(_dot(n, n)) < _FRAME_TOL:
        raise DegeneratePointError(f"no rotation axis: |n(k/2)| < {_FRAME_TOL} at k={list(k)}")
    tilt = _angle(n, (x, y * -float(sign), z))
    return min(tilt, math.pi - tilt)


# ---------------------------------------------------------------------------
# the emergent Maxwell rotation


MaxwellReport = namedtuple("MaxwellReport", "qbar residual_transverse tilt_angle axis_angle_to_k")
MaxwellReport.__doc__ = "Result of undoing the predicted rotation on an evolved kernel."


def maxwell_emergence_report(profile: SmearingProfile, k, sign, t: int) -> MaxwellReport:
    """Quantify how exactly the evolved transverse kernel is a pure rotation.

    Evolves the three vector kernels to time t, applies the inverse of the
    predicted rotation about n(k/2), and reports the profile-weighted RMS
    deviation of the back-rotated transverse table from its t = 0 value:
    zero, to rounding, for a single-point profile, else O(qbar/|n|) while t
    qbar is small (at the CLI defaults the fitted slope reads 1.001, 1.050,
    1.752, 1.998 at t = 10^3, 3000, 10^4, 10^6).  Also reports the static
    tilt of tilt_angle and the raw angle between the rotation axis and k.
    The kernel streams one grid point at a time; no table is held.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    k = _wavevector(k)
    _, n = _half_axis(k, sign)
    frame = polarization_frame(n)
    rot = predicted_rotation(n, t)
    # u . (rot^T F) = (rot u) . F, and the t = 0 table is delta_{a, nu-1}, whose projection on u is (0, u)
    rows = [tuple(_dot(row, u) for row in rot) for u in (frame.u1, frame.u2)]
    start = (0.0, *frame.u1, 0.0, *frame.u2)
    total = 0.0
    for w, table in zip(profile.weights, _kernel(profile, k, sign, t)):
        total += abs(w) ** 2 * math.dist(_project(rows, table), start) ** 2
    return MaxwellReport(
        qbar=profile.support_radius,
        residual_transverse=math.sqrt(total),
        tilt_angle=tilt_angle(k, sign),
        axis_angle_to_k=_angle(n, k),
    )


GeneratorCheck = namedtuple(
    "GeneratorCheck",
    "qbar n_norm fd_forward_residual fd_central_residual rotation_step_residual discretization_floor",
)
GeneratorCheck.__doc__ = "Finite-difference vs generator comparison for the transverse kernel."


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
    k = _wavevector(k)
    lam, n = _half_axis(k, sign)
    frame = polarization_frame(n)
    # u . (M F) = (u M) . F: each term is a projection of one table on the rows (u1, u2) M
    uv = (frame.u1, frame.u2)
    two_n = tuple(2.0 * c for c in n)
    gen = [_cross(u, two_n) for u in uv]  # u [2n]_x = u x 2n
    step = predicted_rotation(n, 1)
    rot_step = [tuple(_dot(u, col) for col in zip(*step)) for u in uv]

    def residuals(prof):
        sums = [0.0, 0.0, 0.0]
        for w, prev, now, nxt in zip(prof.weights, *(_kernel(prof, k, sign, s) for s in (t - 1, t, t + 1))):
            before, at, after = (_project(uv, table) for table in (prev, now, nxt))
            target = _project(gen, now)
            devs = (
                [a - b - c for a, b, c in zip(after, at, target)],
                [(a - b) / 2.0 - c for a, b, c in zip(after, before, target)],
                [a - b for a, b in zip(after, _project(rot_step, now))],
            )
            for i, dev in enumerate(devs):
                sums[i] += abs(w) ** 2 * sum(x * x for x in dev)
        return [math.sqrt(x) for x in sums]

    fwd, cen, rest = residuals(profile)
    floor, _, _ = residuals(single_point_profile())
    return GeneratorCheck(
        qbar=profile.support_radius,
        n_norm=lam,
        fd_forward_residual=fwd,
        fd_central_residual=cen,
        rotation_step_residual=rest,
        discretization_floor=floor,
    )
