"""Unit tests for the dispersion relation and phenomenology."""

import itertools
import math
import re

import numpy as np
import pytest

from latticelight import dispersion
from latticelight.dispersion import (
    PLANCK_UNITS,
    EnergyOutOfRangeError,
    UnitSystem,
    energy_to_wavevector,
    group_velocity_analytic,
    omega,
    saturation_estimate,
    speed_deviation,
    tilt_angle_estimate,
    time_of_flight_delta,
)
from latticelight.walk import MINUS, PLUS, SQRT3, DegeneratePointError, bloch_data
from walk_oracles import group_velocity

# an array, so that ``float * DIAGONAL`` scales it; the library's tuple is the flight route's direction
DIAGONAL = np.array(dispersion.DIAGONAL)


def test_omega_trivial_and_hand_values():
    assert omega(np.zeros(3), PLUS) == pytest.approx(0.0, abs=1e-15)
    k = np.array([math.pi * SQRT3, 0.0, 0.0])
    assert omega(k, PLUS) == pytest.approx(math.pi, abs=1e-13)
    assert omega(k, MINUS) == pytest.approx(math.pi, abs=1e-13)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_omega_small_k_linear(sign):
    rng = np.random.default_rng(31)
    for _ in range(50):
        u = rng.standard_normal(3)
        k = 1e-3 * u / np.linalg.norm(u)
        value = omega(k, sign)
        assert abs(value - 1e-3 / SQRT3) / (1e-3 / SQRT3) <= 1e-4


def test_group_velocity_small_k_diagonal_speed():
    vg = group_velocity(1e-4 * DIAGONAL, MINUS)
    assert np.linalg.norm(vg) == pytest.approx(1.0 / SQRT3, rel=2e-2)


def test_group_velocity_dual_route_agreement():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 100:
        k = rng.uniform(-2.0, 2.0, 3)
        lam = bloch_data(k / 2.0, MINUS).lam
        if lam < 0.05 or math.pi - lam < 0.05:
            continue
        fd = group_velocity(k, MINUS)
        analytic = group_velocity_analytic(k, MINUS)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-6
        checked += 1


def test_group_velocity_not_parallel_to_k_at_large_k():
    k = 0.8 * np.array([0.9, 0.35, 0.25]) / np.linalg.norm([0.9, 0.35, 0.25])
    vg = group_velocity(k, MINUS)
    cosang = np.dot(vg, k) / (np.linalg.norm(vg) * np.linalg.norm(k))
    assert math.acos(min(1.0, cosang)) > 1e-3


def test_group_velocity_degenerate_point():
    with pytest.raises(DegeneratePointError):
        group_velocity(np.zeros(3), MINUS)


def test_speed_of_light_relativistic_limit():
    assert 1.0 + speed_deviation(1e-7 * DIAGONAL, MINUS) == pytest.approx(1.0, abs=1e-6)
    assert 1.0 + speed_deviation(1e-7 * DIAGONAL, PLUS) == pytest.approx(1.0, abs=1e-6)


def test_speed_split_opposite_signs_and_equal_magnitude():
    k = 1e-2
    dev_plus = speed_deviation(k * DIAGONAL, PLUS)
    dev_minus = speed_deviation(k * DIAGONAL, MINUS)
    assert dev_plus < 0.0 < dev_minus
    assert abs(abs(dev_plus) - abs(dev_minus)) <= 0.1 * abs(dev_minus)
    # the closed forms give a diagonal split of magnitude k/9 at leading order
    assert dev_minus == pytest.approx(k / 9.0, rel=2e-2)


def test_speed_matches_gradient_route():
    for kmag in (0.05, 0.5, 1.5):
        via_gradient = SQRT3 * np.linalg.norm(group_velocity(kmag * DIAGONAL, MINUS))
        assert 1.0 + speed_deviation(kmag * DIAGONAL, MINUS) == pytest.approx(via_gradient, abs=1e-8)


def test_speed_deviation_stable_at_astrophysical_k():
    dev = speed_deviation(1e-19 * DIAGONAL, MINUS)
    assert isinstance(dev, float)
    assert dev == pytest.approx(1e-19 / 9.0, rel=1e-6)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_speed_deviation_vanishes_along_the_axes(sign):
    ks = np.concatenate([m * np.eye(3) for m in (1e-19, 1e-3, 0.7, -1.5)])
    assert np.all(np.array([speed_deviation(k, sign) for k in ks]) == 0.0)


def test_speed_deviation_branches_have_opposite_signs():
    rng = np.random.default_rng(35)
    ks = rng.uniform(-2.0, 2.0, (200, 3))
    plus, minus = (np.array([speed_deviation(k, sign) for k in ks]) for sign in (PLUS, MINUS))
    assert np.all(plus != 0.0)
    assert np.array_equal(np.sign(plus), -np.sign(minus))


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_speed_deviation_anisotropy_law_at_astrophysical_k(sign):
    # -sign k_x k_y k_z / (sqrt3 |k|^2): the law a direction-resolved delay integrates, k/9 on the diagonal
    rng = np.random.default_rng(36)
    dirs = rng.standard_normal((500, 3))
    ks = 1e-19 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    law = -sign * np.prod(ks, axis=1) / (SQRT3 * np.sum(ks**2, axis=1))
    np.testing.assert_allclose([speed_deviation(k, sign) for k in ks], law, rtol=1e-6, atol=0.0)


def mp_speed_deviation(k, sign):
    """sqrt3 |grad omega| - 1 at 80 digits: omega = 2 atan2(|n_tilde(k/2)|, d(k/2)) from the trigonometric
    closed forms, differentiated by mpmath.diff; the speed identity behind speed_deviation is not used."""
    from mpmath import mp

    def omega_mp(*kk):
        a = [c / (2 * mp.sqrt(3)) for c in kk]
        cx, cy, cz = (mp.cos(x) for x in a)
        sx, sy, sz = (mp.sin(x) for x in a)
        d = cx * cy * cz + sign * sx * sy * sz
        n = (sx * cy * cz - sign * cx * sy * sz, -sign * cx * sy * cz - sx * cy * sz, cx * cy * sz - sign * sx * sy * cz)
        return 2 * mp.atan2(mp.sqrt(sum(c * c for c in n)), d)

    with mp.workdps(80):
        point = [mp.mpf(float(c)) for c in k]
        grad = [mp.diff(omega_mp, point, tuple(int(i == j) for j in range(3))) for i in range(3)]
        return mp.sqrt(3 * sum(g * g for g in grad)) - 1


@pytest.mark.parametrize("kmag", [1e-28, 1e-19, 1e-10, 1e-3, 0.5])
def test_speed_deviation_matches_an_80_digit_oracle(kmag):
    # worst relative error measured over these 40 rows: about 6e-16
    dirs = np.random.default_rng(37).standard_normal((20, 3))
    ks = kmag * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    for sign in (PLUS, MINUS):
        for k in ks:
            got, want = speed_deviation(k, sign), mp_speed_deviation(k, sign)
            assert abs(float((got - want) / want)) <= 1e-14, (k, sign)


def taylor_coefficients(expr, variables, t, order):
    """Coefficients of t^0..t^order of ``expr`` with each variable v replaced by t * u_v."""
    import sympy as sp

    units = sp.symbols("u_x u_y u_z", real=True)
    poly = sp.Poly(sp.expand(expr.subs(dict(zip(variables, [t * u for u in units])), simultaneous=True)), t)
    return units, [poly.coeff_monomial(t**j) for j in range(order + 1)]


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_speed_anisotropy_law_from_the_series(sign):
    """sqrt3 |grad omega| = 1 - sign k_x k_y k_z / (sqrt3 |k|^2) + O(k^2), exactly: |k|/9 on the diagonal.

    omega = 2 arccos d(k/2), so 3 |grad omega|^2 = 12 |grad d(k/2)|^2 / (1 - d(k/2)^2); with cos and
    sin replaced by their Taylor polynomials through third order, both sides are exact through k^3,
    and the ratio through k.  Criterion 5b quotes k/sqrt3 on the diagonal: 3 sqrt3 times this law.
    """
    import sympy as sp

    t = sp.symbols("t", positive=True)
    k = sp.symbols("k_x k_y k_z", real=True)
    a = [c / (2 * sp.sqrt(3)) for c in k]
    cx, cy, cz = (1 - x**2 / 2 for x in a)
    sx, sy, sz = (x - x**3 / 6 for x in a)
    d = cx * cy * cz + sign * sx * sy * sz
    u, num = taylor_coefficients(12 * sum(sp.diff(d, c) ** 2 for c in k), k, t, 3)
    _, den = taylor_coefficients(1 - d**2, k, t, 3)
    assert num[:2] == den[:2] == [0, 0]
    assert sp.cancel(num[2] / den[2]) == 1
    slope = sp.cancel((num[3] * den[2] - num[2] * den[3]) / den[2] ** 2)  # of 3 |grad omega|^2, per |k|
    law = -sign * u[0] * u[1] * u[2] / (sp.sqrt(3) * (u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
    assert sp.cancel(slope / 2 - law) == 0
    diagonal = law.subs({c: 1 / sp.sqrt(3) for c in u})
    assert sp.nsimplify(diagonal) == -sign * sp.Rational(1, 9)
    assert sp.nsimplify((1 / sp.sqrt(3)) / abs(diagonal)) == 3 * sp.sqrt(3)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_tuples_lists_and_arrays_give_the_same_floats(sign):
    rng = np.random.default_rng(37)
    ks = np.concatenate([rng.uniform(-2.0, 2.0, (10_000, 3)), np.geomspace(1e-28, 1.0, 281)[:, None] * DIAGONAL])
    for f in (omega, group_velocity_analytic, speed_deviation):
        singles = [f(tuple(k), sign) for k in ks.tolist()]
        assert all(type(value) is (tuple if f is group_velocity_analytic else float) for value in singles)
        # int64 views compare bit patterns, so -0.0 and 0.0 stay apart
        bits = np.array(singles).view(np.int64)
        assert np.array_equal(np.array([f(k, sign) for k in ks.tolist()]).view(np.int64), bits)
        assert np.array_equal(np.array([f(k, sign) for k in ks]).view(np.int64), bits)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_speed_deviation_tuple_and_array_agree_at_the_special_points(sign):
    half = math.pi * SQRT3
    # the cell's corner (lam(k/2) = pi on the minus branch), the zero-speed point (h/2)(1, 1, 1)
    # of the plus branch, where rounding puts 1 + g below 0, and points on the faces and axes
    for k in [(half,) * 3, (half / 2.0,) * 3, (half, 0.0, 0.0), (half, half, 0.0), (-half, 0.3, 1.0), (0.0, 1e-19, 0.0)]:
        try:
            want = speed_deviation(np.array(k), sign)
        except DegeneratePointError:
            with pytest.raises(DegeneratePointError):
                speed_deviation(k, sign)
            continue
        got = speed_deviation(k, sign)
        assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("k", [(math.inf, 0.1, 0.2), [0.1, -math.inf, 0.2], (0.1, 0.2, math.nan)])
def test_speed_deviation_refuses_a_component_that_is_not_finite(k):
    with pytest.raises(ValueError, match="must be finite"):
        speed_deviation(k, PLUS)
    with pytest.raises(ValueError, match="must be finite"):
        speed_deviation(np.array(k), MINUS)


@pytest.mark.parametrize("k", [(math.inf, 0.1, 0.2), [0.1, -math.inf, 0.2], (0.1, 0.2, math.nan)])
def test_omega_and_group_velocity_refuse_a_component_that_is_not_finite(k):
    # numpy's batch gave NaN for these; math.cos(inf) raises "math domain error", which names no wavevector
    for f in (omega, group_velocity_analytic):
        with pytest.raises(ValueError, match=re.escape(f"a wavevector must be finite, got k={list(k)}")):
            f(np.array(k), MINUS)


@pytest.mark.parametrize("k", [(0.0, 0.0, 0.0), (2.0 * math.pi * SQRT3, 0.0, 0.0), (1e-200, 0.0, 1e-200)])
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_speed_deviation_refuses_degenerate_points(k, sign):
    with pytest.raises(DegeneratePointError):
        speed_deviation(np.array(k), sign)
    with pytest.raises(DegeneratePointError):
        speed_deviation(k, sign)


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, "plus", None])
def test_speed_deviation_refuses_a_bad_sign(sign):
    with pytest.raises(ValueError, match="chirality sign must be"):
        speed_deviation((0.1, 0.2, 0.3), sign)
    with pytest.raises(ValueError, match="chirality sign must be"):
        speed_deviation(np.array([0.1, 0.2, 0.3]), sign)


@pytest.mark.parametrize(
    "k",
    [
        (0.1, 0.2), [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2]] * 3, 0.5, [[0.1, 0.2, 0.3]], np.zeros((2, 3)), np.zeros((3, 1)), None,
        ("0.1", "0.2", "0.3"), {1.0, 2.0, 3.0}, (b"0.1", 0.2, 0.3),
    ],
)
def test_speed_deviation_needs_three_components(k):
    # one wavevector per call: omega and group_velocity_analytic share the check, which refuses text that float()
    # would parse and a set, whose components have no order
    for f in (speed_deviation, omega, group_velocity_analytic):
        with pytest.raises(ValueError, match="3 components"):
            f(k, MINUS)


def edge_energy(u):
    """The largest photon energy whose wavevector component k u stays <= pi sqrt3, and the next float above it."""
    half = math.pi * SQRT3
    ev = half / (u * energy_to_wavevector(1.0))
    while energy_to_wavevector(ev) * u > half:
        ev = math.nextafter(ev, 0.0)
    while energy_to_wavevector(math.nextafter(ev, math.inf)) * u <= half:
        ev = math.nextafter(ev, math.inf)
    return ev, math.nextafter(ev, math.inf)


@pytest.mark.parametrize(
    "direction, u, sign", [((1.0, 0.0, 0.0), 1.0, MINUS), ((0, 2, 0), 1.0, PLUS), (dispersion.DIAGONAL, 1.0 / SQRT3, PLUS)]
)
def test_flight_photon_at_the_cell_edge(direction, u, sign):
    inside, outside = edge_energy(u)
    rows = time_of_flight_delta(1e25, [["lo", 1e6], ["edge", inside]], sign, direction=direction)
    assert math.isfinite(rows[0][6])
    with pytest.raises(EnergyOutOfRangeError, match="'edge'"):
        time_of_flight_delta(1e25, [["lo", 1e6], ["edge", outside]], sign, direction=direction)


@pytest.mark.parametrize(
    "direction",
    [[0, 0, 0], [0.0, -0.0, 0.0], [math.nan, 1.0, 1.0], [1.0, math.inf, 0.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0], []],
)
def test_flight_refuses_a_direction_without_a_length(direction):
    # a zero direction used to give a NaN delay with only numpy's RuntimeWarning
    with pytest.raises(ValueError, match="direction must be a finite nonzero 3-vector"):
        time_of_flight_delta(1e25, [["a", 1e9], ["b", 1e6]], MINUS, direction=direction)


def test_flight_refuses_a_photon_at_the_zero_speed_point():
    # |k| = 3 pi/2 along the diagonal: the plus branch's group speed vanishes and rounding makes its deviation NaN
    assert math.isnan(speed_deviation(energy_to_wavevector(3.3216742665956816e28) * DIAGONAL, PLUS))
    with pytest.raises(EnergyOutOfRangeError, match="'b' .* no positive group speed"):
        time_of_flight_delta(1e25, [["a", 1e9], ["b", 3.3216742665956816e28]], PLUS)


def test_flight_along_an_axis_has_no_delay():
    rows = time_of_flight_delta(1e25, [["a", 1e9], ["b", 1e6]], MINUS, direction=np.array([0.0, 3.0, 0.0]))
    assert rows[0][6] == 0.0


def test_superluminal_branch_uniformly_bounded():
    mags = np.linspace(1e-3, math.pi * SQRT3, 400)
    speeds = [1.0 + speed_deviation(k, MINUS) for k in mags[:, None] * DIAGONAL]
    assert max(speeds) > 1.0  # superluminal branch exists
    assert max(speeds) < 2.0  # but uniformly bounded


def test_isotropy_violation_bounded():
    rng = np.random.default_rng(33)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    values = np.array([omega(0.5 * d, MINUS) for d in dirs])
    assert values.max() - values.min() > 0.0
    dense = [
        omega(np.array([x, y, z]), MINUS)
        for x in np.linspace(-2, 2, 7)
        for y in np.linspace(-2, 2, 7)
        for z in np.linspace(-2, 2, 7)
    ]
    assert values.max() <= max(dense) + 1e-12


def test_tilt_estimate_values():
    assert tilt_angle_estimate(0.0) == 0.0
    k_gamma = energy_to_wavevector(3.5e12)  # TeV-scale photon
    estimate = tilt_angle_estimate(k_gamma)
    assert 1e-16 <= estimate <= 1e-14
    with pytest.raises(ValueError):
        tilt_angle_estimate(-1.0)


def test_unit_system_consistency():
    u = UnitSystem()
    assert u.c == pytest.approx(2.9979e8, rel=1e-3)
    assert u.link_length == pytest.approx(SQRT3 * u.planck_length, rel=1e-15)


def test_flight_equal_energies():
    rows = time_of_flight_delta(3.0857e25, [["a", 1e9], ["b", 1e9]], MINUS)
    assert len(rows) == 1
    assert rows[0][:4] == ("a", "b", 1e9, 1e9)
    assert rows[0][6] == 0.0


def test_flight_linear_in_distance():
    energies = [["hi", 1e9], ["lo", 1e6]]
    r1 = time_of_flight_delta(1e25, energies, MINUS)[0][6]
    r2 = time_of_flight_delta(2e25, energies, MINUS)[0][6]
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_flight_first_order_agreement():
    # Delta t ~= (D/c) (k2 - k1) * slope with the diagonal slope dev = k/9
    distance = 3.0857e25
    full = time_of_flight_delta(distance, [["GeV", 1e9], ["MeV", 1e6]], MINUS)[0][6]
    k1 = energy_to_wavevector(1e9)
    k2 = energy_to_wavevector(1e6)
    first_order = distance / PLANCK_UNITS.c * (k2 - k1) / 9.0
    assert abs(full - first_order) <= 0.01 * abs(first_order)


def test_flight_out_of_range_energy():
    with pytest.raises(EnergyOutOfRangeError, match="'planck'"):
        time_of_flight_delta(1e25, [["lo", 1e6], ["planck", 1e29]], MINUS)


def test_flight_refuses_an_infinite_wavevector():
    # 1e308 eV overflows k to inf; the old cell test let it through as a NaN delay
    with pytest.raises(EnergyOutOfRangeError, match="'huge'"):
        time_of_flight_delta(1e25, [["lo", 1e6], ["huge", 1e308]], MINUS)


def test_flight_validation():
    with pytest.raises(ValueError, match="distance_m must be positive"):
        time_of_flight_delta(-1.0, [["a", 1e9], ["b", 1e6]], MINUS)
    with pytest.raises(ValueError):
        time_of_flight_delta(1.0, [["a", -1e9], ["b", 1e6]], MINUS)
    with pytest.raises(ValueError, match="energies must have distinct labels"):
        time_of_flight_delta(1e25, [["a", 1e9], ["a", 1e6]], MINUS)


def test_saturation_estimate():
    avogadro = 6.02214076e23
    modes, ratio = saturation_estimate(avogadro, 1e-15)
    cell = (SQRT3 * PLANCK_UNITS.planck_length) ** 3
    assert modes == pytest.approx(4.0 * 1e-21 / cell, rel=1e-12)
    assert ratio < 1e-50  # far below any saturation scale
    modes0, ratio0 = saturation_estimate(0.0, 1e-15)
    assert ratio0 == 0.0
    _, ratio2 = saturation_estimate(2.0 * avogadro, 1e-15)
    assert ratio2 == pytest.approx(2.0 * ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# the streamed dispersion table


SUBNORMAL_KMAX = [5e-324, 1e-323, 2.5e-323, 1e-321, 1e-310, 2.2250738585072014e-308]


@pytest.mark.parametrize("kmax", [1.0, 0.3, 1.0 / 3.0, math.pi, 7.0, 1e-13, 1e300, *SUBNORMAL_KMAX])
def test_grid_axis_is_numpy_linspace_bit_for_bit(kmax):
    # the subnormal kmax values reach numpy's branch for a step that underflows to 0
    for points in range(1, 102):
        cube_axis = [z for _, _, (z, _, _) in itertools.islice(dispersion.grid(kmax, points), points)]
        assert np.array(cube_axis).tobytes() == np.linspace(-kmax, kmax, points).tobytes(), (kmax, points)
        diagonal = [x for (x, _, _), _, _ in dispersion.grid(kmax, points, diagonal=True)]
        want = np.linspace(0.0, kmax, points) * dispersion.DIAGONAL[0]
        assert np.array(diagonal).tobytes() == want.tobytes(), (kmax, points)


@pytest.mark.parametrize("kmax", [1.0, 0.7, 5e-324])
@pytest.mark.parametrize("points", [1, 2, 3, 8, 21])
def test_grid_is_the_numpy_grid_of_the_artifact(kmax, points):
    axis = np.linspace(-kmax, kmax, points)
    cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    diagonal = np.linspace(0.0, kmax, points)[:, None] * np.array(dispersion.DIAGONAL)
    for want, is_diagonal in ((cube, False), (diagonal, True)):
        triples = list(dispersion.grid(kmax, points, is_diagonal))
        got = np.array([[x for x, _, _ in triple] for triple in triples])
        assert got.tobytes() == want.tobytes()
        # each cosine and sine is that of k/(2 sqrt3) at its own coordinate
        for triple in triples[:50]:
            for x, c, s in triple:
                assert (c, s) == (math.cos(x / 2.0 / SQRT3), math.sin(x / 2.0 / SQRT3))


def numpy_table(grid):
    """omega and |v_g| of both branches from the batched walk.bloch_data at k/2: NaN where sin lam(k/2) < 1e-12."""
    columns = []
    for sign in (PLUS, MINUS):
        b = bloch_data(grid / 2.0, sign)
        sin_lam = np.sin(b.lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.linalg.norm(b.grad_d, axis=-1) / sin_lam
        columns.append((2.0 * b.lam, np.where(sin_lam < 1e-12, np.nan, speed)))
    (om_plus, vg_plus), (om_minus, vg_minus) = columns
    return np.column_stack([grid, om_plus, om_minus, vg_plus, vg_minus])


@pytest.mark.parametrize("diagonal,points,kmax", [(False, 9, 2.0), (False, 7, 6.0), (True, 40, 10.0), (True, 5, 0.04)])
def test_streamed_table_matches_the_batched_walk(diagonal, points, kmax):
    # the tolerances of perfbench's check_dispersion: omega to 1e-12 absolute, |v_g| to 1e-9 relative
    rows = np.array(list(map(dispersion.branches, dispersion.grid(kmax, points, diagonal))))
    want = numpy_table(rows[:, :3])
    assert np.all(np.abs(rows[:, 3:5] - want[:, 3:5]) <= 1e-12)
    got_vg, want_vg = rows[:, 5:], want[:, 5:]
    assert np.array_equal(np.isnan(got_vg), np.isnan(want_vg))
    assert np.isnan(got_vg[0 if diagonal else len(rows) // 2]).all()  # the origin
    finite = ~np.isnan(want_vg)
    assert np.all(np.abs(got_vg[finite] - want_vg[finite]) <= 1e-15 + 1e-9 * np.abs(want_vg[finite]))


def test_wave_is_the_row_of_omega_and_group_velocity():
    rng = np.random.default_rng(34)
    ks = rng.uniform(-4.0, 4.0, (40, 3))
    for sign in (PLUS, MINUS):
        for k in ks:
            o, v = omega(k, sign), group_velocity_analytic(k, sign)
            row = dispersion.branches(tuple(dispersion._trig(k.tolist())))
            assert row[:3] == tuple(k)
            assert row[3 if sign == PLUS else 4] == o
            assert row[5 if sign == PLUS else 6] == math.hypot(*v)
