"""Property tests: the batched closed-form kernels against per-point scalar references.

The ``reference_*`` functions are the per-point loops the batched kernels
replaced, kept here verbatim in substance as the oracle.  Tolerances were
fixed before the batched code was written: d, n_tilde and lam to 1e-13
absolute, step powers to 1e-14 (1 + |t|), kernel tables to 1e-12.  The
``matmul_*`` functions are the batched 2x2-matrix route that the kernel
tables and the emergence residual took before they were written as products
of SU(2) coefficients.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifacts import read_table
from latticelight.bilinear import (
    SmearingProfile,
    _half_axis,
    make_uniform_profile,
    maxwell_emergence_report,
    polarization_frame,
    predicted_rotation,
    single_point_profile,
    tilt_angle,
)
from latticelight.cli import EXIT_OK, main
from latticelight.dispersion import group_velocity_analytic, omega
from latticelight.walk import (
    MINUS,
    PLUS,
    SQRT3,
    DegeneratePointError,
    bloch_data,
)
from walk_oracles import AXIS_PERIOD, PAULI, group_velocity, step_power, vector_tables
from walk_oracles import tilt_angle as batched_tilt

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
BLOCH_ATOL = 1e-13
TABLE_ATOL = 1e-12


# ---------------------------------------------------------------------------
# scalar references


def reference_bloch(k, sign):
    """(d, n_tilde, lam, n, grad d) at one wavevector, one point at a time."""
    s = float(sign)
    a = np.asarray(k, dtype=float) / SQRT3
    cx, cy, cz = np.cos(a)
    sx, sy, sz = np.sin(a)
    d = cx * cy * cz + s * sx * sy * sz
    n_tilde = np.array(
        [
            sx * cy * cz - s * cx * sy * sz,
            -s * cx * sy * cz - sx * cy * sz,
            cx * cy * sz - s * sx * sy * cz,
        ]
    )
    grad_d = (
        np.array(
            [
                -sx * cy * cz + s * cx * sy * sz,
                -cx * sy * cz + s * sx * cy * sz,
                -cx * cy * sz + s * sx * sy * cz,
            ]
        )
        / SQRT3
    )
    nt_norm = float(np.linalg.norm(n_tilde))
    lam = math.atan2(nt_norm, d)
    if nt_norm >= 1e-14:
        n = (lam / nt_norm) * n_tilde
    elif lam < math.pi / 2.0:
        n = n_tilde * (1.0 + lam * lam / 6.0)
    else:
        raise DegeneratePointError(f"rotation axis undefined at k={k}")
    return float(d), n_tilde, lam, n, grad_d


def _rodrigues_su2(angle, axis):
    c = math.cos(angle)
    s = math.sin(angle)
    return c * np.eye(2, dtype=complex) - 1j * s * (
        axis[0] * PAULI[1] + axis[1] * PAULI[2] + axis[2] * PAULI[3]
    )


def reference_step_power(k, sign, t):
    """A(k)^t at one wavevector: d^t I where |n_tilde| vanishes, else a rotation by t*lam."""
    s = float(sign)
    a = np.asarray(k, dtype=float) / SQRT3
    cx, cy, cz = np.cos(a)
    sx, sy, sz = np.sin(a)
    d = cx * cy * cz + s * sx * sy * sz
    n_tilde = np.array(
        [
            sx * cy * cz - s * cx * sy * sz,
            -s * cx * sy * cz - sx * cy * sz,
            cx * cy * sz - s * sx * sy * cz,
        ]
    )
    nt_norm = float(np.linalg.norm(n_tilde))
    if nt_norm < 1e-14:
        val = 1.0 if d > 0.0 else (-1.0) ** (int(t) % 2)
        return val * np.eye(2, dtype=complex)
    lam = math.atan2(nt_norm, d)
    angle = math.fmod(t * lam, 2.0 * math.pi)
    return _rodrigues_su2(angle, n_tilde / nt_norm)


def reference_vector_tables(profile, k, sign, t):
    """The per-grid-point loop of (A(k/2-q)^t)^dag sigma^a A(k/2+q)^t f(q)."""
    k_half = np.asarray(k, dtype=float) / 2.0
    out = np.zeros((len(profile.weights), 3, 4), dtype=complex)
    for iq, (q, w) in enumerate(zip(profile.offsets, profile.weights)):
        a_minus_dag = reference_step_power(k_half - q, sign, t).conj().T
        a_plus = reference_step_power(k_half + q, sign, t)
        for a in range(3):
            m = a_minus_dag @ PAULI[a + 1] @ a_plus
            out[iq, a] = np.einsum("mij,ji->m", PAULI, m) / 2.0 * w
    return out


def pauli_coefficients(matrix):
    """Expand 2x2 matrices ``[..., 2, 2]`` in the sigma^mu basis: c_mu = tr(sigma_mu M) / 2."""
    return np.einsum("mij,...ji->...m", PAULI, matrix) / 2.0


def matmul_vector_tables(profile, k, sign, t):
    """(A(k/2-q)^t)^dag sigma^a A(k/2+q)^t f(q) as batched 2x2 products, expanded by trace."""
    k_half = np.asarray(k, dtype=float) / 2.0
    a_minus = step_power(k_half - profile.offsets, sign, t)
    a_plus = step_power(k_half + profile.offsets, sign, t)
    products = np.conj(a_minus.swapaxes(-1, -2))[:, None] @ PAULI[1:] @ a_plus[:, None]
    return pauli_coefficients(products) * np.asarray(profile.weights)[:, None, None]


def matmul_emergence_residual(profile, k, sign, t):
    """Back-rotate the evolved tables, subtract the evolved t = 0 tables, project on u1 and u2.

    n(k/2) is the library's own: at t = 10^6 the predicted rotation turns a change of n in its
    last bit into a change of 1e-7 in the residual, so both routes rotate by the same n
    (test_half_axis_matches_bloch_data holds it to walk.bloch_data).
    """
    n = _half_axis(k, sign)[1]
    frame = polarization_frame(n)
    back = np.einsum("ba,qbv->qav", predicted_rotation(n, t), matmul_vector_tables(profile, k, sign, t))
    dev = back - matmul_vector_tables(profile, k, sign, 0)
    trans = np.stack([np.einsum("a,qav->qv", frame.u1, dev), np.einsum("a,qav->qv", frame.u2, dev)], axis=1)
    return math.sqrt(np.sum(np.abs(trans) ** 2))


def reference_uniform_profile(radius, grid_spacing):
    """Offsets of the lexicographic triple loop with the |q| <= radius (1 + 1e-12) test.

    The slack is relative, as the library's ball is, so the reference holds at any radius whose squared
    offsets stay normal floats (above about 1e-150).
    """
    m = int(math.floor(radius / grid_spacing + 1e-12))
    points = []
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            for l in range(-m, m + 1):
                q = np.array([i, j, l], dtype=float) * grid_spacing
                if np.linalg.norm(q) <= radius * (1.0 + 1e-12):
                    points.append(q)
    return np.array(points)


def reference_tilt(k, sign):
    """Angle between n(k/2) and the small-k axis folded into [0, pi/2], one wavevector.

    The small-k axis is k on the minus branch and (k_x, -k_y, k_z) on the plus branch.
    """
    n = reference_bloch(np.asarray(k, dtype=float) / 2.0, sign)[3]
    e = n / np.linalg.norm(n)
    axis = k * np.array([1.0, 1.0 if sign == MINUS else -1.0, 1.0])
    angle = math.acos(min(1.0, max(-1.0, float(np.dot(e, axis / np.linalg.norm(axis))))))
    return min(angle, math.pi - angle)


# ---------------------------------------------------------------------------
# strategies

signs = st.sampled_from([PLUS, MINUS])
generic = st.lists(
    st.floats(-3.0 * AXIS_PERIOD, 3.0 * AXIS_PERIOD, allow_nan=False), min_size=3, max_size=3
)
# every component a multiple of pi*sqrt3/2: n_tilde vanishes and d = +-1, so
# these are the lam = 0 identity points and the lam = pi degeneracies
half_lattice = st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(
    lambda m: [math.pi * SQRT3 / 2.0 * i for i in m]
)
wavevector = st.one_of(generic, generic, half_lattice)  # one in three degenerate-prone
batches = st.lists(wavevector, min_size=1, max_size=6).map(lambda ks: np.array(ks))
powers = st.one_of(st.integers(-200, 200), st.integers(-(10**6), 10**6))


def scalar_or_degenerate(fn, ks, *args):
    """Per-point reference results, or None if any point raises DegeneratePointError."""
    try:
        return [fn(k, *args) for k in ks]
    except DegeneratePointError:
        return None


# ---------------------------------------------------------------------------
# walk


@PROPERTY
@given(ks=batches, sign=signs)
def test_bloch_data_batch_matches_scalar(ks, sign):
    refs = scalar_or_degenerate(reference_bloch, ks, sign)
    if refs is None:
        with pytest.raises(DegeneratePointError):
            bloch_data(ks, sign)
        return
    b = bloch_data(ks[None], sign)  # extra batch axis: shapes follow k[..., 3]
    assert b.d.shape == b.lam.shape == (1, len(ks))
    assert b.n_tilde.shape == b.n.shape == b.grad_d.shape == (1, len(ks), 3)
    for i, (d, n_tilde, lam, n, grad_d) in enumerate(refs):
        assert abs(b.d[0, i] - d) <= BLOCH_ATOL
        assert np.max(np.abs(b.n_tilde[0, i] - n_tilde)) <= BLOCH_ATOL
        assert abs(b.lam[0, i] - lam) <= BLOCH_ATOL
        assert np.max(np.abs(b.n[0, i] - n)) <= BLOCH_ATOL
        assert np.max(np.abs(b.grad_d[0, i] - grad_d)) <= BLOCH_ATOL


def test_bloch_data_single_point_gives_scalars():
    b = bloch_data(np.array([0.3, -0.2, 0.5]), MINUS)
    assert isinstance(b.d, float) and isinstance(b.lam, float)
    assert b.n.shape == b.n_tilde.shape == b.grad_d.shape == (3,)
    with pytest.raises(ValueError):
        bloch_data(np.zeros((4, 2)), MINUS)


def test_bloch_data_degenerate_point_anywhere_in_batch_raises():
    ks = np.array([[0.3, 0.1, -0.2], [math.pi * SQRT3, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DegeneratePointError):
        bloch_data(ks, PLUS)
    # lam = 0 is removable: the identity points of the batch are fine
    b = bloch_data(ks[[0, 2]], PLUS)
    assert np.all(b.n[1] == 0.0)


@PROPERTY
@given(ks=batches, sign=signs, t=powers)
def test_step_power_batch_matches_scalar(ks, sign, t):
    got = step_power(ks, sign, t)
    assert got.shape == (len(ks), 2, 2)
    for k, a in zip(ks, got):
        assert np.max(np.abs(a - reference_step_power(k, sign, t))) <= 1e-14 * (1 + abs(t))


@PROPERTY
@given(
    ks=batches,
    sign=signs,
    t=st.integers(-50, 50),
    shift=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
def test_step_power_periodic_unitary_and_mirrored(ks, sign, t, shift):
    a = step_power(ks, sign, t)
    shifted = step_power(ks + AXIS_PERIOD * np.array(shift, dtype=float), sign, t)
    assert np.max(np.abs(shifted - a)) <= 1e-12 * (1 + abs(t))
    identity = np.conj(a.swapaxes(-1, -2)) @ a
    assert np.max(np.abs(identity - np.eye(2))) <= 1e-13
    # sigma_y conjugation: conj(A) = sigma_y A sigma_y
    assert np.max(np.abs(np.conj(a) - PAULI[2] @ a @ PAULI[2])) <= 1e-13
    # the two branches are mirror images through k_y -> -k_y
    mirrored = step_power(ks * np.array([1.0, -1.0, 1.0]), -sign, t)
    assert np.max(np.abs(mirrored - a)) <= 1e-15


# ---------------------------------------------------------------------------
# dispersion


@PROPERTY
@given(ks=batches, sign=signs)
def test_group_velocity_analytic_batch_matches_scalar(ks, sign):
    ks = 2.0 * ks  # degenerate half-lattice points of k/2
    for k in ks:
        half = scalar_or_degenerate(reference_bloch, [k / 2.0], sign)
        if half is None:
            with pytest.raises(DegeneratePointError):
                group_velocity_analytic(k, sign)
            continue
        _, _, lam, _, grad_d = half[0]
        got = group_velocity_analytic(k, sign)
        assert len(got) == 3
        assert abs(omega(k, sign) - 2.0 * lam) <= 2.0 * BLOCH_ATOL
        sin_lam = math.sin(lam)
        if sin_lam < 1e-12:
            assert np.all(np.isnan(got))
        elif sin_lam > 1e-6:  # nearer 0, one ulp of lam moves 1/sin lam by ulp/sin^2
            want = -grad_d / sin_lam
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * np.max(np.abs(want)) + 1e-15


def test_dispersion_artifact_matches_finite_differences(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dispersion", "--points", "5", "--out", str(out)]) == EXIT_OK
    _, _, rows = read_table(out)
    table = np.array(rows, dtype=float)
    assert len(table) == 125
    for row in table:
        k = row[:3]
        for sign, om_col, vg_col in ((PLUS, 3, 5), (MINUS, 4, 6)):
            assert abs(row[om_col] - 2.0 * reference_bloch(k / 2.0, sign)[2]) <= 2.0 * BLOCH_ATOL
            if np.all(k == 0.0):
                assert math.isnan(row[vg_col])
                continue
            fd = np.linalg.norm(group_velocity(k, sign))
            assert abs(row[vg_col] - fd) <= 1e-9 * fd


# ---------------------------------------------------------------------------
# bilinear


@PROPERTY
@given(
    k=generic,
    sign=signs,
    t=st.one_of(st.just(0), st.integers(-300, 300)),
    radius=st.floats(0.01, 0.3),
    cells=st.integers(1, 3),
)
def test_kernel_tables_match_scalar_loop(k, sign, t, radius, cells):
    profile = make_uniform_profile(radius, radius / cells)
    want = reference_vector_tables(profile, k, sign, t)
    got = vector_tables(profile, k, sign, t)
    assert got.shape == (len(profile.weights), 3, 4)
    assert np.max(np.abs(got - want)) <= TABLE_ATOL


@pytest.mark.parametrize("sign", [PLUS, MINUS])
@pytest.mark.parametrize("t", [0, 1, 100, 10**6])
def test_kernel_tables_match_matmul_oracle(sign, t):
    rng = np.random.default_rng(42)
    profile = make_uniform_profile(0.3, 0.1)
    for k in rng.uniform(-2.0 * AXIS_PERIOD, 2.0 * AXIS_PERIOD, (5, 3)):
        got = vector_tables(profile, k, sign, t)
        assert np.max(np.abs(got - matmul_vector_tables(profile, k, sign, t))) <= TABLE_ATOL


@pytest.mark.parametrize("sign", [PLUS, MINUS])
@pytest.mark.parametrize("factor", [0.5, 0.125])
def test_emergence_residual_matches_matmul_route(sign, factor):
    # the levels of a default maxwell-convergence run, at a short and a long evolution
    k = np.array([0.4, 0.3, 0.2])
    radii = [4e-4 * 0.5**i for i in range(5)]
    for t in (100, 10**6):
        point = maxwell_emergence_report(single_point_profile(), k, sign, t).residual_transverse
        assert point <= 1e-10 and matmul_emergence_residual(single_point_profile(), k, sign, t) <= 1e-10
        for r in radii:
            profile = make_uniform_profile(r, r * factor)
            want = matmul_emergence_residual(profile, k, sign, t)
            got = maxwell_emergence_report(profile, k, sign, t).residual_transverse
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
@pytest.mark.parametrize("t", [1, 100, 10**6])
def test_emergence_residual_matches_matmul_route_off_the_uniform_ball(sign, t):
    # complex weights of varying modulus, and a half ball that holds no pair (q, -q) but the origin
    rng = np.random.default_rng(44)
    radius = 2e-4
    ball = make_uniform_profile(radius, radius / 2.0).offsets
    offsets = [q for q in ball if q >= (0.0, 0.0, 0.0)]  # lexicographically
    weights = rng.standard_normal(len(offsets)) + 1j * rng.standard_normal(len(offsets))
    profile = SmearingProfile(offsets, weights / np.linalg.norm(weights))
    for k in (np.array([0.4, 0.3, 0.2]), np.array([-0.7, 0.1, 0.35])):
        want = matmul_emergence_residual(profile, k, sign, t)
        assert maxwell_emergence_report(profile, k, sign, t).residual_transverse == pytest.approx(want, rel=1e-12)
        assert np.max(np.abs(vector_tables(profile, k, sign, t) - matmul_vector_tables(profile, k, sign, t))) <= TABLE_ATOL


@PROPERTY
@given(k=generic, sign=signs)
def test_half_axis_matches_bloch_data(k, sign):
    # the report's math route to n(k/2) and the batched numpy one; np.arctan2 and math.atan2 may differ in the last bit
    try:
        b = bloch_data(np.array(k) / 2.0, sign)
    except DegeneratePointError:
        with pytest.raises(DegeneratePointError):
            _half_axis(k, sign)
        return
    lam, n = _half_axis(k, sign)
    assert abs(lam - b.lam) <= 4e-16 * max(1.0, b.lam)
    assert np.max(np.abs(np.array(n) - b.n)) <= 1e-15


def test_pauli_coefficients_batched():
    rng = np.random.default_rng(40)
    mats = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    coeffs = pauli_coefficients(mats)
    assert coeffs.shape == (5, 4)
    assert np.allclose(np.einsum("qm,mij->qij", coeffs, PAULI), mats, atol=1e-15)


@pytest.mark.parametrize(
    "radius,spacing",
    [
        (r, r * f)
        for r in (1e-150, 1e-100, 1e-40, 1e-13, 1e-4, 4e-4, 0.3, 1.0, 2.5, 7.0)
        for f in (1.0, 0.5, 0.2, 1.0 / 3.0)
    ],
)
def test_uniform_profile_matches_loop(radius, spacing):
    profile = make_uniform_profile(radius, spacing)
    want = reference_uniform_profile(radius, spacing)
    assert np.array_equal(profile.offsets, want)
    weights = np.full(len(want), 1.0 / math.sqrt(len(want)), dtype=complex)
    assert np.array_equal(profile.weights, weights)


@PROPERTY
@given(
    k=generic.filter(lambda k: np.linalg.norm(k) > 1e-3),
    sign=signs,
)
def test_tilt_matches_scalar_reference(k, sign):
    k = np.array(k)
    try:
        want = reference_tilt(k, sign)
    except DegeneratePointError:
        return
    if np.linalg.norm(reference_bloch(k / 2.0, sign)[3]) < 1e-6 or want < 1e-3:
        # a short axis, or an arccos near 1 that turns each rounding of the
        # cosine into ~1e-16/angle: neither route fixes the angle to 1e-12
        return
    assert abs(tilt_angle(k, sign) - want) <= 1e-12
    assert abs(float(batched_tilt(k, sign)) - want) <= 1e-12


# a direction times a magnitude from 1e-11, where |n(k/2)| nears the frame tolerance, to 1e250
scaled = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda u: max(map(abs, u)) > 1e-3),
    st.floats(-11.0, 250.0),
).map(lambda p: [c * 10.0 ** p[1] for c in p[0]])


@PROPERTY
@given(k=st.one_of(generic, scaled), sign=signs)
def test_float_tilt_matches_the_batched_oracle(k, sign):
    try:
        want = float(batched_tilt(np.array(k), sign))
    except DegeneratePointError:
        with pytest.raises(DegeneratePointError):
            tilt_angle(k, sign)
        return
    if np.linalg.norm(bloch_data(np.array(k) / 2.0, sign).n) < 1e-6 * min(1.0, max(map(abs, k))):
        # an axis short against its O(1) trigonometric products (not the short axis of a small k, whose products
        # are as small): a rounding of n_tilde turns the angle by up to 1e-16 / |n|
        return
    assert abs(tilt_angle(k, sign) - want) <= 1e-15


@PROPERTY
@given(k=st.one_of(generic, scaled))
def test_plus_float_tilt_is_the_mirrored_minus_tilt(k):
    x, y, z = k
    try:
        want = tilt_angle([x, -y, z], MINUS)
    except DegeneratePointError:
        return
    assert tilt_angle(k, PLUS) == want


def test_tilt_batch_matches_report():
    rng = np.random.default_rng(41)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    profile = single_point_profile()
    for kmag in (0.05, 0.1, 1.3):
        tilts = batched_tilt(kmag * dirs, MINUS)
        assert tilts.shape == (200,)
        assert np.all((tilts >= 0.0) & (tilts <= math.pi / 2.0))
        for d, tilt in zip(dirs, tilts):
            report = maxwell_emergence_report(profile, kmag * d, MINUS, 0)
            assert report.tilt_angle == tilt_angle(kmag * d, MINUS)
            assert abs(tilt - report.tilt_angle) <= 1e-12
            assert abs(tilt - reference_tilt(kmag * d, MINUS)) <= 1e-12


def test_tilt_degenerate_axis_raises():
    with pytest.raises(DegeneratePointError):
        batched_tilt(np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]), MINUS)
    for k, sign in (([0.0, 0.0, 0.0], MINUS), ([1e-13, 0.0, 0.0], PLUS)):
        with pytest.raises(DegeneratePointError):
            batched_tilt(np.array(k), sign)
        with pytest.raises(DegeneratePointError):
            tilt_angle(k, sign)

