"""Unit tests for the closed-form walk unitaries."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from latticelight.walk import (
    MINUS,
    PLUS,
    SQRT3,
    DegeneratePointError,
    bloch_data,
)
from walk_oracles import AXIS_PERIOD, PAULI, approx_interp_unitary, canonical_wavevector, interp_unitary, step_power

SIGMA_X, SIGMA_Y, SIGMA_Z = PAULI[1], PAULI[2], PAULI[3]
HAND_K = np.array([math.pi * SQRT3 / 2.0, 0.0, 0.0])


def pauli_dot(v):
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def bloch_matrix(k, sign):
    """The walk step A(k) = d I - i n_tilde.sigma at one wavevector, from its Bloch data."""
    b = bloch_data(k, sign)
    return b.d * np.eye(2) - 1j * pauli_dot(b.n_tilde)


def random_wavevectors(n, seed=0, scale=None):
    rng = np.random.default_rng(seed)
    scale = AXIS_PERIOD / 2.0 if scale is None else scale
    return rng.uniform(-scale, scale, size=(n, 3))


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_bloch_identity_at_origin(sign):
    b = bloch_data(np.zeros(3), sign)
    assert b.d == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(b.n_tilde, 0.0, atol=1e-15)
    assert b.lam == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(b.n, 0.0, atol=1e-15)


def test_bloch_hand_value_quarter_turn():
    # c_x = 0, s_x = 1, c_y = c_z = 1, s_y = s_z = 0 in the closed forms
    for sign in (PLUS, MINUS):
        b = bloch_data(HAND_K, sign)
        assert b.d == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(b.n_tilde, [1.0, 0.0, 0.0], atol=1e-15)
        assert b.lam == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert np.allclose(b.n, [math.pi / 2.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_bloch_unitarity_identity(sign):
    for k in random_wavevectors(1000, seed=1):
        b = bloch_data(k, sign)
        assert abs(b.d**2 + np.sum(b.n_tilde**2) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(b.n) - b.lam) <= 1e-12


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_bloch_periodicity(sign):
    for k in random_wavevectors(50, seed=2):
        ref = bloch_data(k, sign)
        for axis in range(3):
            shifted = k.copy()
            shifted[axis] += AXIS_PERIOD
            b = bloch_data(shifted, sign)
            assert abs(b.d - ref.d) <= 1e-12
            assert np.max(np.abs(b.n_tilde - ref.n_tilde)) <= 1e-12


def test_bloch_degenerate_point_raises():
    # arguments (pi, 0, 0): d = -1, n_tilde = 0, axis undefined
    with pytest.raises(DegeneratePointError):
        bloch_data(np.array([math.pi * SQRT3, 0.0, 0.0]), PLUS)


def test_weyl_step_identity_and_hand_value():
    assert np.allclose(bloch_matrix(np.zeros(3), PLUS), np.eye(2), atol=1e-15)
    assert np.allclose(bloch_matrix(HAND_K, PLUS), -1j * SIGMA_X, atol=1e-14)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_weyl_step_unitary_and_both_constructions(sign):
    for k in random_wavevectors(200, seed=3):
        a = bloch_matrix(k, sign)
        assert np.linalg.norm(a.conj().T @ a - np.eye(2), 2) <= 1e-12
        b = bloch_data(k, sign)
        via_exp = expm(-1j * pauli_dot(b.n))
        assert np.linalg.norm(a - via_exp, 2) <= 1e-11


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_weyl_step_matches_exponential_form(sign):
    # the Bloch form d I - i n_tilde.sigma against cos(lam) I - i sin(lam) (n/lam).sigma;
    # below lam ~ 1e-14 the latter is I
    ks = np.vstack([random_wavevectors(200, seed=12), 1e-16 * random_wavevectors(4, seed=13), HAND_K])
    for k in ks:
        b = bloch_data(k, sign)
        if b.lam >= 1e-14:
            via_exp = math.cos(b.lam) * np.eye(2) - 1j * math.sin(b.lam) * pauli_dot(b.n / b.lam)
        else:
            via_exp = np.eye(2)
        assert np.max(np.abs(bloch_matrix(k, sign) - via_exp)) <= 1e-11


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_conjugate_step_identity(sign):
    for k in random_wavevectors(200, seed=4):
        a = bloch_matrix(k, sign)
        assert np.linalg.norm(a.conj() - SIGMA_Y @ a @ SIGMA_Y, 2) <= 1e-12


def test_small_k_limit_minus_branch_quadratic():
    # the minus branch approaches exp(-i k/sqrt3 . sigma); fit the quadratic
    # constant at |k| = 1e-2 and check it bounds the deviation at 1e-3
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    def worst_dev(mag):
        worst = 0.0
        for u in dirs:
            k = mag * u
            target = expm(-1j * pauli_dot(k / SQRT3))
            worst = max(worst, np.linalg.norm(bloch_matrix(k, MINUS) - target, 2))
        return worst

    c_fit = worst_dev(1e-2) / 1e-4
    assert worst_dev(1e-3) <= 2.0 * c_fit * 1e-6


def test_small_k_limit_plus_branch_is_y_mirror():
    # the plus branch approaches the same generator with k_y reflected
    rng = np.random.default_rng(6)
    for _ in range(32):
        u = rng.standard_normal(3)
        k = 1e-3 * u / np.linalg.norm(u)
        mirrored = k * np.array([1.0, -1.0, 1.0])
        target = expm(-1j * pauli_dot(mirrored / SQRT3))
        assert np.linalg.norm(bloch_matrix(k, PLUS) - target, 2) <= 1e-5
        # A+(k) = A-(k with k_y reflected), exactly
        assert np.allclose(bloch_matrix(k, PLUS), bloch_matrix(mirrored, MINUS), atol=1e-15)


def test_step_power_trivial_and_hand_values():
    k = random_wavevectors(1, seed=7)[0]
    assert np.allclose(step_power(k, PLUS, 0), np.eye(2), atol=1e-15)
    assert np.allclose(step_power(k, PLUS, 1), bloch_matrix(k, PLUS), atol=1e-13)
    assert np.allclose(step_power(HAND_K, PLUS, 2), -np.eye(2), atol=1e-13)


def test_step_power_at_degenerate_point():
    k = np.array([math.pi * SQRT3, 0.0, 0.0])  # A = -I exactly
    assert np.allclose(step_power(k, PLUS, 3), -np.eye(2), atol=1e-15)
    assert np.allclose(step_power(k, PLUS, 4), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_step_power_matches_repeated_multiplication(sign):
    for i, k in enumerate(random_wavevectors(5, seed=8)):
        a = bloch_matrix(k, sign)
        prod = np.eye(2, dtype=complex)
        t = [10, 100, 1000, 37, 250][i]
        for _ in range(t):
            prod = a @ prod
        assert np.linalg.norm(step_power(k, sign, t) - prod, 2) <= 1e-10
        inv = np.linalg.inv(prod)
        assert np.linalg.norm(step_power(k, sign, -t) - inv, 2) <= 1e-10


def test_step_power_group_property():
    rng = np.random.default_rng(9)
    for k in random_wavevectors(50, seed=10):
        t1, t2 = rng.integers(-500, 500, size=2)
        lhs = step_power(k, MINUS, int(t1 + t2))
        rhs = step_power(k, MINUS, int(t1)) @ step_power(k, MINUS, int(t2))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


def test_step_power_rejects_steps_beyond_documented_range():
    k = np.array([0.7, -0.4, 1.1])
    for t in (10**6, -(10**6)):
        a = step_power(k, MINUS, t)
        assert np.linalg.norm(a.conj().T @ a - np.eye(2), 2) <= 1e-12
    for t in (10**6 + 1, -(10**6) - 1, 10**8):
        with pytest.raises(ValueError, match=r"t must satisfy \|t\| <= 1000000"):
            step_power(k, MINUS, t)


def mp_step_power(k, sign, t):
    """A(k)^t at 50 digits from the trigonometric closed forms, as a 2x2 nested list of mpc."""
    from mpmath import mp

    with mp.workdps(50):
        a = [mp.mpf(float(c)) / mp.sqrt(3) for c in k]
        cx, cy, cz = (mp.cos(x) for x in a)
        sx, sy, sz = (mp.sin(x) for x in a)
        d = cx * cy * cz + sign * sx * sy * sz
        n = (sx * cy * cz - sign * cx * sy * sz, -sign * cx * sy * cz - sx * cy * sz, cx * cy * sz - sign * sx * sy * cz)
        norm = mp.sqrt(sum(c * c for c in n))
        angle = t * mp.atan2(norm, d)
        c = mp.cos(angle)
        vx, vy, vz = (mp.sin(angle) * x / norm for x in n)
        return [[mp.mpc(c, -vz), mp.mpc(-vy, -vx)], [mp.mpc(vy, -vx), mp.mpc(c, vz)]]


@pytest.mark.parametrize("sign", [PLUS, MINUS])
@pytest.mark.parametrize("t", [1, -1, 10**3, -(10**3), 10**6, -(10**6)])
def test_step_power_within_documented_bound_of_mpmath(sign, t):
    """The float rounding of t*lam grows with |t|: over these wavevectors and both branches the
    worst entry errors of the library's step-power rule (bilinear._power, which the CLI runs)
    were 4.6e-16, 5.3e-13 and 4.0e-10 at |t| = 1, 1e3 and 1e6."""
    from mpmath import mp

    ks = random_wavevectors(40, seed=11)
    got = step_power(ks, sign, t)
    with mp.workdps(50):
        worst = max(
            abs(complex(g) - want)
            for k, a in zip(ks, got)
            for g, want in zip(a.ravel(), (x for row in mp_step_power(k, sign, t) for x in row))
        )
    assert worst <= 1e-15 * (1 + abs(t))


def test_interp_unitary_trivial_cases():
    k = np.array([0.7, -0.4, 1.1])
    for t in (0, 1, 17, -23):
        assert np.allclose(interp_unitary(k, k / 2.0, MINUS, t), np.eye(2), atol=1e-13)
    q = np.array([0.2, 0.5, -0.1])
    assert np.allclose(interp_unitary(k, q, MINUS, 0), np.eye(2), atol=1e-15)


def test_interp_unitary_against_repeated_multiplication():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.uniform(-2, 2, 3)
        q = rng.uniform(-2, 2, 3)
        u = interp_unitary(k, q, MINUS, 5)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) <= 1e-12
        a_half = step_power(k / 2.0, MINUS, 1)
        a_q = step_power(q, MINUS, 1)
        direct = np.linalg.matrix_power(np.linalg.inv(a_half), 5) @ np.linalg.matrix_power(a_q, 5)
        assert np.linalg.norm(u - direct, 2) <= 1e-10


def test_surrogate_rate_matches_lam_differences():
    # c = e . J_n(k/2) q is the rate of |n| = lam along q: the surrogate at t = 1
    # must be exp(-i c e.sigma) with c from central differences of lam
    rng = np.random.default_rng(12)
    step = 1e-5
    for sign in (PLUS, MINUS):
        for _ in range(10):
            k = rng.uniform(-1.5, 1.5, 3)
            q = rng.standard_normal(3)
            b = bloch_data(k / 2.0, sign)
            if b.lam < 0.05:
                continue
            c = (bloch_data(k / 2.0 + step * q, sign).lam - bloch_data(k / 2.0 - step * q, sign).lam) / (2.0 * step)
            expected = math.cos(c) * np.eye(2) - 1j * math.sin(c) * pauli_dot(b.n / b.lam)
            assert np.max(np.abs(approx_interp_unitary(k, q, sign, 1) - expected)) <= 1e-8


def test_approx_interp_unitary_trivial_cases():
    k = np.array([0.4, 0.3, 0.2])
    assert np.allclose(approx_interp_unitary(k, np.zeros(3), MINUS, 50), np.eye(2), atol=1e-12)
    q = np.array([1e-3, -2e-3, 5e-4])
    assert np.allclose(approx_interp_unitary(k, q, MINUS, 0), np.eye(2), atol=1e-15)
    with pytest.raises(DegeneratePointError):
        approx_interp_unitary(np.zeros(3), q, MINUS, 10)


def test_approx_interp_unitary_error_law():
    # deviation ~ C1*qbar at fixed t; the secular t-coefficient ~ C2*qbar^2
    k = np.array([0.4, 0.3, 0.2])
    rng = np.random.default_rng(13)
    qhat = rng.standard_normal(3)
    qhat /= np.linalg.norm(qhat)

    def dev(qbar, t):
        exact = interp_unitary(k, k / 2.0 + qbar * qhat, MINUS, t)
        approx = approx_interp_unitary(k, qbar * qhat, MINUS, t)
        return np.linalg.norm(exact - approx, 2)

    qbars = np.array([1e-4, 3e-4, 1e-3, 3e-3])
    fixed_t = np.array([dev(qb, 50) for qb in qbars])
    slope = np.polyfit(np.log(qbars), np.log(fixed_t), 1)[0]
    assert abs(slope - 1.0) <= 0.15

    # secular part: affine fit of dev(t) over a window long enough that the
    # drift dominates the bounded oscillating term
    qbars2 = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    ts = np.arange(0, 20001, 500)
    coeffs = []
    for qb in qbars2:
        devs = [dev(qb, int(t)) for t in ts]
        coeffs.append(np.polyfit(ts, devs, 1)[0])
    t_slope = np.polyfit(np.log(qbars2), np.log(coeffs), 1)[0]
    assert abs(t_slope - 2.0) <= 0.35


def test_canonical_wavevector():
    half = AXIS_PERIOD / 2.0
    inside = canonical_wavevector(np.array([100.0, -50.0, 0.3]))
    assert np.all(inside > -half) and np.all(inside <= half)
    # half-open boundary: -half maps to +half
    edges = canonical_wavevector(np.array([-half, half, 0.0]))
    assert edges[0] == pytest.approx(half)
    assert edges[1] == pytest.approx(half)
    for k in random_wavevectors(20, seed=14, scale=40.0):
        b1 = bloch_data(k, MINUS)
        b2 = bloch_data(canonical_wavevector(k), MINUS)
        assert abs(b1.d - b2.d) <= 1e-11
        assert np.max(np.abs(b1.n_tilde - b2.n_tilde)) <= 1e-11


def test_sign_validation():
    with pytest.raises(ValueError):
        bloch_data(np.zeros(3), 0)
    with pytest.raises(ValueError):
        bloch_data(np.zeros(3), "plus")
