"""Unit tests for the bilinear kernel evolution and the emergent rotation."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from latticelight.bilinear import (
    MAX_PROFILE_CUBE,
    SmearingProfile,
    make_uniform_profile,
    maxwell_emergence_report,
    maxwell_generator_check,
    polarization_frame,
    predicted_rotation,
    rotation_generator,
    single_point_profile,
    tilt_angle,
)
from latticelight.walk import (
    MINUS,
    PLUS,
    DegeneratePointError,
    bloch_data,
)
from walk_oracles import PAULI, approx_interp_unitary, step_power, vector_tables

K_REF = np.array([0.4, 0.3, 0.2])


def tilts(k, sign):
    """bilinear.tilt_angle at each wavevector of ``k[..., 3]``."""
    k = np.asarray(k, dtype=float)
    return np.array([tilt_angle(row, sign) for row in k.reshape(-1, 3).tolist()]).reshape(k.shape[:-1])


def pauli_dot(v):
    return v[0] * PAULI[1] + v[1] * PAULI[2] + v[2] * PAULI[3]


# ---------------------------------------------------------------------------
# profiles


def test_single_point_and_small_ball():
    p = make_uniform_profile(radius=0.5, grid_spacing=1.0)
    assert len(p.weights) == 1
    assert p.weights[0] == pytest.approx(1.0)


def test_seven_point_ball():
    p = make_uniform_profile(radius=1.0, grid_spacing=1.0)
    assert len(p.weights) == 7  # origin plus six axis neighbors
    assert np.allclose(np.abs(p.weights), 1.0 / math.sqrt(7.0))
    assert abs(np.sum(np.abs(p.weights) ** 2) - 1.0) <= 1e-12


def test_profile_normalization_and_concentration():
    p = make_uniform_profile(radius=3.0, grid_spacing=1.0)
    assert abs(np.sum(np.abs(p.weights) ** 2) - 1.0) <= 1e-12
    radii = np.linalg.norm(p.offsets, axis=1)
    assert radii.max() == p.support_radius
    assert 0.0 < np.sum(np.abs(np.asarray(p.weights)[radii > 1.5]) ** 2) < 1.0


@pytest.mark.parametrize("factor,count", [(0.5, 33), (0.125, 2109)])
def test_profile_point_count_is_scale_free(factor, count):
    # the ball test is relative to the radius: a tiny ball is not its whole enclosing cube
    for radius in (1.0, 1e-6, 1e-13):
        assert len(make_uniform_profile(radius, radius * factor).weights) == count


def ball_indices(radius, spacing):
    """The integer grid indices of make_uniform_profile(radius, spacing), checked to be its offsets / spacing."""
    offsets = make_uniform_profile(radius, spacing).offsets
    indices = [tuple(round(c / spacing) for c in q) for q in offsets]
    assert offsets == tuple(tuple(i * spacing for i in q) for q in indices)
    return indices


def test_profile_ball_is_scale_free_down_to_the_smallest_radii():
    # the ball is decided on integer indices: squared float offsets underflow below radii of about 1e-154
    assert ball_indices(1e-300, 5e-301) == ball_indices(1.0, 0.5)
    assert len(ball_indices(1e-300, 5e-301)) == 33
    for ratio in (2, 8, 16):
        want = ball_indices(1.0, 1.0 / ratio)
        for radius in (1e-300, 1e-200, 1e-154, 1e-100, 1e-13, 1e-6, 1e2):
            assert ball_indices(radius, radius / ratio) == want, (ratio, radius)


def test_profile_input_validation():
    with pytest.raises(ValueError):
        make_uniform_profile(radius=-1.0, grid_spacing=1.0)
    with pytest.raises(ValueError):
        make_uniform_profile(radius=1.0, grid_spacing=0.0)
    for radius, spacing in [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf), (-math.inf, 0.1)]:
        with pytest.raises(ValueError, match="positive and finite, got"):
            make_uniform_profile(radius, spacing)


@pytest.mark.parametrize(
    "offsets,weights,message",
    [
        ([(0.0, 0.0, 0.0)], [math.nan], "sum|f|^2 = nan"),
        ([(0.0, 0.0, 0.0)], [complex(math.inf, 0.0)], "sum|f|^2 = inf"),
        ([(0.0, 0.0, 0.0)], [complex(0.0, math.nan)], "sum|f|^2 = nan"),
        ([(0.0, math.inf, 0.0)], [1.0], "offsets must be finite, got inf"),
        ([(0.0, 0.0, 0.0), (0.0, 0.0, -math.inf)], [0.6, 0.8], "offsets must be finite, got -inf"),
        ([(math.nan, 0.0, 0.0)], [1.0], "offsets must be finite, got nan"),
    ],
)
def test_profile_refuses_non_finite_values(offsets, weights, message):
    # a NaN weight passes a normalization check written `abs(total - 1) > tol` and gives a NaN residual,
    # and an infinite offset would fail only in the kernel's trigonometry
    with pytest.raises(ValueError) as err:
        SmearingProfile(offsets, weights)
    assert message in str(err.value)
    with pytest.raises(ValueError) as err:
        single_point_profile()._replace(offsets=offsets, weights=weights)
    assert message in str(err.value)


@pytest.mark.parametrize("weight", [1e200, 1.5e154, complex(0.0, 1e200), complex(1e308, 1e308), -1e300])
def test_profile_refuses_a_huge_weight_with_a_value_error(weight):
    # abs(w) ** 2 raised OverflowError past about 1e154, and abs() of a complex past about 1.3e308 does too
    with pytest.raises(ValueError, match=r"sum\|f\|\^2 = inf"):
        SmearingProfile([(0.0, 0.0, 0.0)], [weight])


@pytest.mark.parametrize("offset", [1e300, -1.3e154, 1.7976931348623157e308, 1e-160, -1e-200, 5e-324])
def test_support_radius_where_the_squared_offsets_overflow_or_underflow(offset):
    # x*x + y*y + z*z read inf for SmearingProfile([(1e300, 0, 0)], [1]) and 0.0 below about 1e-154
    profile = SmearingProfile([(0.0, 0.0, 0.0), (0.0, offset, 0.0)], [0.6, 0.8])
    assert profile.support_radius == abs(offset)
    both = SmearingProfile([(offset, -offset, 0.0), (0.0, 0.0, offset / 2.0)], [0.6, 0.8])
    assert both.support_radius == math.hypot(offset, offset)


def test_profile_refuses_non_numeric_offsets():
    for offsets in (["abc"], [None], [1.0]):
        with pytest.raises(ValueError):
            SmearingProfile(offsets, [1.0])
    with pytest.raises(ValueError):
        single_point_profile()._replace(offsets=["abc"])
    offsets = SmearingProfile([(0, 0, 1)], [1]).offsets
    assert offsets == ((0.0, 0.0, 1.0),) and all(type(c) is float for c in offsets[0])


def test_profile_cube_cap():
    # m = 51 gives 103^3 > 2^20 points, the first half-width over the cap
    assert (2 * 50 + 1) ** 3 <= MAX_PROFILE_CUBE < (2 * 51 + 1) ** 3
    for radius, spacing in [(51.0, 1.0), (1.0, 0.005), (1.0, 1e-300), (1.0, 5e-324)]:
        with pytest.raises(ValueError, match="MAX_PROFILE_CUBE"):
            make_uniform_profile(radius, spacing)


# ---------------------------------------------------------------------------
# kernel evolution


def test_kernel_at_t0_is_profile_times_delta():
    profile = make_uniform_profile(radius=1.0, grid_spacing=1.0)
    tables = vector_tables(profile, K_REF, MINUS, 0)
    expected = np.zeros((len(profile.weights), 3, 4), dtype=complex)
    for a in range(3):
        expected[:, a, a + 1] = profile.weights
    assert np.max(np.abs(tables - expected)) <= 1e-14


def test_kernel_decomposition_is_exact():
    profile = make_uniform_profile(radius=0.3, grid_spacing=0.15)
    t = 9
    tables = vector_tables(profile, K_REF, MINUS, t)
    for iq, (q, w) in enumerate(zip(profile.offsets, profile.weights)):
        a_minus = step_power(K_REF / 2.0 - q, MINUS, t)
        a_plus = step_power(K_REF / 2.0 + q, MINUS, t)
        for a in range(3):
            direct = a_minus.conj().T @ PAULI[a + 1] @ a_plus * w
            rebuilt = sum(tables[iq, a, nu] * PAULI[nu] for nu in range(4))
            assert np.max(np.abs(rebuilt - direct)) <= 1e-12


def test_vector_channel_norm_preserved_per_point():
    profile = make_uniform_profile(radius=0.2, grid_spacing=0.1)
    tables = vector_tables(profile, K_REF, MINUS, 50)
    norms = np.linalg.norm(tables, axis=2)  # per (q, channel) coefficient norm
    expected = np.abs(profile.weights)[:, None]
    assert np.max(np.abs(norms - expected)) <= 1e-12


def test_z_kernel_follows_rotation_oracle():
    k = np.array([0.3, 0.2, 0.1])
    t = 10
    z_kernel = vector_tables(single_point_profile(), k, MINUS, t)[0, 2]
    n = bloch_data(k / 2.0, MINUS).n
    predicted = np.asarray(predicted_rotation(n, t)).T @ np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(z_kernel[1:] - predicted)) <= 1e-12
    assert abs(z_kernel[0]) <= 1e-13


# ---------------------------------------------------------------------------
# rotations and frames


def test_rotation_generator_trivial_values():
    assert np.allclose(rotation_generator(np.zeros(3)), np.eye(3), atol=1e-15)
    assert np.allclose(
        rotation_generator(np.array([math.pi, 0.0, 0.0])), np.diag([1.0, -1.0, -1.0]), atol=1e-12
    )


def test_rotation_generator_matches_spin_conjugation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        u = expm(-0.5j * pauli_dot(v))
        rot = np.asarray(rotation_generator(v))
        for a in range(3):
            lhs = u @ PAULI[a + 1] @ u.conj().T
            rhs = sum(rot[a, b] * PAULI[b + 1] for b in range(3))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_frame_orthonormal_right_handed():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = rng.standard_normal(3)
        f = polarization_frame(n)
        for pair in ((f.u1, f.e), (f.u2, f.e), (f.u1, f.u2)):
            assert abs(np.dot(*pair)) <= 1e-12
        assert np.linalg.norm(f.u1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(f.u2) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(np.cross(f.u1, f.u2), f.e) > 0.0
    with pytest.raises(DegeneratePointError):
        polarization_frame(np.zeros(3))


# ---------------------------------------------------------------------------
# emergent Maxwell rotation


def test_single_point_residual_is_zero():
    profile = single_point_profile()
    for t in (1, 100, 1000):
        report = maxwell_emergence_report(profile, K_REF, MINUS, t)
        assert report.residual_transverse <= 1e-10
        assert report.qbar == 0.0


def test_residual_scales_linearly_in_support_radius():
    radii = [4e-4, 2e-4, 1e-4, 5e-5]
    residuals = []
    for r in radii:
        profile = make_uniform_profile(r, r / 2.0)
        residuals.append(
            maxwell_emergence_report(profile, K_REF, MINUS, 20).residual_transverse
        )
    slope = np.polyfit(np.log(radii), np.log(residuals), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_rotation_axis_aligns_with_k_at_small_k():
    # minus branch: 2 n(k/2) -> k/sqrt3, so the axis angle to k vanishes
    direction = np.array([0.3, 0.8, 0.5])
    direction /= np.linalg.norm(direction)
    profile = single_point_profile()
    angles = [
        maxwell_emergence_report(profile, mag * direction, MINUS, 0).axis_angle_to_k
        for mag in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(angles, angles[1:]))
    assert angles[-1] <= 0.01


TILT_DIRECTION = np.array([0.3, 0.5, 0.81]) / np.linalg.norm([0.3, 0.5, 0.81])


@pytest.mark.parametrize("kmag", [1e-8, 1e-10, 1e-11])
def test_tilt_keeps_its_slope_at_small_k(kmag):
    # arccos of the cosine read 2.58 |k| at 1e-8 and 0 at 1e-10 here; the slope is 0.1392134
    def slope(k):
        return tilt_angle(k * TILT_DIRECTION, MINUS) / k

    assert slope(kmag) == pytest.approx(slope(1e-6), rel=1e-5)
    assert slope(1e-6) == pytest.approx(0.1392134, rel=1e-6)


def test_plus_tilt_is_the_mirrored_minus_tilt():
    # n(k, +) = n((k_x, -k_y, k_z), -) exactly, so the plus axis tends to the mirrored k
    rng = np.random.default_rng(43)
    k = rng.standard_normal((4000, 3)) * np.exp(rng.uniform(-23.0, 1.5, (4000, 1)))
    mirror = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(tilts(k, PLUS), tilts(k * mirror, MINUS))
    # the raw angle to k stays what it is: about 1.17 rad here on the plus branch
    report = maxwell_emergence_report(single_point_profile(), K_REF, PLUS, 1)
    assert report.tilt_angle == maxwell_emergence_report(single_point_profile(), K_REF * mirror, MINUS, 1).tilt_angle
    assert report.tilt_angle < 0.1 < 1.0 < report.axis_angle_to_k


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_tilt_vanishes_on_the_coordinate_axes(sign):
    magnitudes = np.array([1e-11, 1e-8, 1e-3, 0.05, 0.7, -0.4, 2.5, -5.0])
    for axis in np.eye(3):
        assert np.all(tilts(magnitudes[:, None] * axis, sign) == 0.0)


@pytest.mark.parametrize("kmag", [1e-3, 1e-6, 1e-8, 1e-10])
def test_tilt_on_the_minus_diagonal_follows_the_leading_law(kmag):
    diagonal = np.ones(3) / math.sqrt(3.0)
    assert tilt_angle(kmag * diagonal, MINUS) / kmag == pytest.approx(math.sqrt(2.0) / 9.0, rel=1e-4)


def test_leading_tilt_law_from_the_series():
    """n(k/2) = (sqrt3/6) k + (1/12)(k_y k_z, -k_x k_z, k_x k_y) + O(k^3) on the minus branch.

    n = lam n_tilde / |n_tilde| with lam = atan2(|n_tilde|, d), and d = 1 + O(k^2), so
    n = n_tilde (1 + O(k^2)).  The tilt is then |w x k^| / (2 sqrt3) |k| + O(k^2) with
    w = (k_y k_z, -k_x k_z, k_x k_y) / |k|^2, whose maximum over directions, at the
    diagonal, is sqrt2/9 |k|.  Criterion 6a quotes 2k: 9 sqrt2 times this law.
    """
    import sympy as sp

    t = sp.symbols("t", positive=True)
    u = sp.symbols("u_x u_y u_z", real=True)
    a = [t * c / (2 * sp.sqrt(3)) for c in u]
    cx, cy, cz = (1 - x**2 / 2 for x in a)
    sx, sy, sz = (x - x**3 / 6 for x in a)
    s = MINUS
    d = cx * cy * cz + s * sx * sy * sz
    n_tilde = (sx * cy * cz - s * cx * sy * sz, -s * cx * sy * cz - sx * cy * sz, cx * cy * sz - s * sx * sy * cz)
    w = (u[1] * u[2], -u[0] * u[2], u[0] * u[1])
    for component, c, wc in zip(n_tilde, u, w):
        poly = sp.Poly(sp.expand(component), t)
        assert [poly.coeff_monomial(t**j) for j in range(3)] == [0, sp.sqrt(3) * c / 6, wc / 12]
    d_poly = sp.Poly(sp.expand(d), t)
    assert [d_poly.coeff_monomial(t**j) for j in range(2)] == [1, 0]

    diagonal = [1 / sp.sqrt(3)] * 3
    w_diag = [wc.subs(dict(zip(u, diagonal))) for wc in w]
    cross = sp.Matrix(w_diag).cross(sp.Matrix(diagonal))
    law = sp.nsimplify(sp.sqrt(cross.dot(cross)) / (2 * sp.sqrt(3)))
    assert law == sp.sqrt(2) / 9
    assert sp.nsimplify(2 / law) == 9 * sp.sqrt(2)

    # the diagonal is the maximum over directions, and the code follows the law at small k
    dirs = np.random.default_rng(38).standard_normal((100_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    w_num = np.stack([dirs[:, 1] * dirs[:, 2], -dirs[:, 0] * dirs[:, 2], dirs[:, 0] * dirs[:, 1]], axis=1)
    leading = np.linalg.norm(np.cross(w_num, dirs), axis=1) / (2 * math.sqrt(3))
    assert math.sqrt(2) / 9 * (1 - 1e-3) <= leading.max() <= math.sqrt(2) / 9 * (1 + 1e-12)
    np.testing.assert_allclose(tilts(1e-6 * dirs[:1000], MINUS) / 1e-6, leading[:1000], rtol=1e-4, atol=1e-9)


def test_report_requires_frame():
    with pytest.raises(DegeneratePointError):
        maxwell_emergence_report(single_point_profile(), np.zeros(3), MINUS, 1)
    with pytest.raises(ValueError):
        maxwell_emergence_report(single_point_profile(), K_REF, MINUS, -1)


BILINEAR_AT_ONE_K = {
    "tilt_angle": lambda k: tilt_angle(k, MINUS),
    "maxwell_emergence_report": lambda k: maxwell_emergence_report(single_point_profile(), k, MINUS, 1),
    "maxwell_generator_check": lambda k: maxwell_generator_check(single_point_profile(), k, MINUS, 1),
}


@pytest.mark.parametrize("route", BILINEAR_AT_ONE_K)
@pytest.mark.parametrize(
    "k,message",
    [
        ((math.nan, 0.1, 0.2), "a wavevector must be finite, got k=[nan, 0.1, 0.2]"),
        ((math.inf, 0.1, 0.2), "a wavevector must be finite, got k=[inf, 0.1, 0.2]"),
        (("0.1", "0.2", "0.3"), "a wavevector must have 3 components, got ('0.1', '0.2', '0.3')"),
        ({0.1, 0.2, 0.3}, "a wavevector must have 3 components, got {"),
    ],
    ids=["nan", "inf", "text", "set"],
)
def test_bilinear_refuses_a_wavevector_as_dispersion_does(route, k, message):
    # before the shared check: NaN results, "math domain error", a TypeError, or a set read in its hash order
    with pytest.raises(ValueError) as refused:
        BILINEAR_AT_ONE_K[route](k)
    assert str(refused.value).startswith(message)


def test_generator_check_components():
    check0 = maxwell_generator_check(single_point_profile(), K_REF, MINUS, 40)
    # a single-point kernel advances by exactly one rotation step
    assert check0.rotation_step_residual <= 1e-10
    assert check0.fd_forward_residual == pytest.approx(check0.discretization_floor, rel=1e-12)

    radius = 2e-4
    profile = make_uniform_profile(radius, radius / 2.0)
    check = maxwell_generator_check(profile, K_REF, MINUS, 40)
    ratio = radius / check.n_norm
    assert check.rotation_step_residual <= 0.5 * ratio
    assert check.fd_forward_residual <= check.discretization_floor + 1.0 * ratio
    assert check.fd_central_residual < check.fd_forward_residual


def test_generator_step_residual_slope():
    radii = [4e-4, 1e-4, 2.5e-5]
    values = [
        maxwell_generator_check(make_uniform_profile(r, r / 2.0), K_REF, MINUS, 40).rotation_step_residual
        for r in radii
    ]
    slope = np.polyfit(np.log(radii), np.log(values), 1)[0]
    assert slope >= 0.85


# ---------------------------------------------------------------------------
# circular modes


def circular_modes(n):
    """(u1 +- i u2)/sqrt2 of polarization_frame(n)."""
    frame = polarization_frame(n)
    u1, u2 = np.asarray(frame.u1), np.asarray(frame.u2)
    return (u1 + 1j * u2) / math.sqrt(2.0), (u1 - 1j * u2) / math.sqrt(2.0)


def test_eigenmodes_standard_circular_pair():
    k = np.array([0.0, 0.0, 0.6])  # n(k/2) is along z here
    u_plus, u_minus = circular_modes(bloch_data(k / 2.0, MINUS).n)
    targets = [np.array([1.0, 1j, 0.0]) / math.sqrt(2.0), np.array([1.0, -1j, 0.0]) / math.sqrt(2.0)]
    for u in (u_plus, u_minus):
        matched = False
        for tgt in targets:
            phase = np.vdot(tgt, u)
            matched = matched or np.linalg.norm(u - phase * tgt) <= 1e-12
        assert matched
    assert abs(np.sum(u_plus * np.conj(u_minus))) <= 1e-14  # orthogonal pair


def test_eigenmodes_eigenrelation():
    # predicted_rotation(n, 1) takes the circular modes to exp(-+2i|n|) times themselves
    rng = np.random.default_rng(24)
    for _ in range(20):
        k = rng.uniform(-1.5, 1.5, 3)
        b = bloch_data(k / 2.0, MINUS)
        if b.lam < 0.05:
            continue
        u_plus, u_minus = circular_modes(b.n)
        rot = predicted_rotation(b.n, 1)
        omega = 2.0 * b.lam
        assert np.linalg.norm(rot @ u_plus - np.exp(-1j * omega) * u_plus) <= 1e-10
        assert np.linalg.norm(rot @ u_minus - np.exp(1j * omega) * u_minus) <= 1e-10
        assert np.linalg.norm(u_plus) == pytest.approx(1.0, abs=1e-12)


def test_surrogate_kernel_is_time_invariant():
    # (a.sigma)(b.sigma)(a.sigma) = -b.sigma for orthonormal a, b makes the
    # surrogate rotation factors cancel around a transverse sigma
    k = K_REF
    b = bloch_data(k / 2.0, MINUS)
    frame = polarization_frame(b.n)
    rng = np.random.default_rng(25)
    for t in (1, 50, 400):
        q = 1e-3 * rng.standard_normal(3)
        u_minus_dag = approx_interp_unitary(k, -q, MINUS, t).conj().T
        u_plus = approx_interp_unitary(k, q, MINUS, t)
        for u_vec in (frame.u1, frame.u2):
            now = u_minus_dag @ pauli_dot(u_vec) @ u_plus
            assert np.max(np.abs(now - pauli_dot(u_vec))) <= 1e-10
