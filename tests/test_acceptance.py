"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ...: PASS/FAIL`` line (visible with
``pytest -s``; captured output is also shown for failures).  Two criteria
encode literature-quoted coefficients that the closed forms themselves do
not reproduce (the diagonal speed-split magnitude k/sqrt3, and the tilt
magnitude 2k); they are asserted as stated and fail honestly, with the
measured values printed.  The closed forms give k/9 and ~0.16 k instead;
the opposite-sign structure and all scaling exponents do hold.
"""

import math
import time

import numpy as np

from fock_oracles import pair_commutator_sweep
from latticelight.bilinear import (
    make_uniform_profile,
    maxwell_emergence_report,
    maxwell_generator_check,
    single_point_profile,
)
from latticelight.cli import EXIT_OK, main as cli_main
from latticelight.dispersion import (
    DIAGONAL,
    energy_to_wavevector,
    group_velocity_analytic,
    omega,
    speed_deviation,
    tilt_angle_estimate,
)
from latticelight.fock import (
    FockSpace,
    composite_boson,
    composite_boson_suite,
    pair_condensate,
    purity,
    schwartz_exhaustive,
)
from latticelight.onebody import available_profiles, default_pairs
from latticelight.walk import MINUS, PLUS, SQRT3, bloch_data
from walk_oracles import PAULI, group_velocity

SIGMA_Y = PAULI[2]
K_SWEEP = np.array([0.4, 0.3, 0.2])


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def pauli_dot(v):
    return v[0] * PAULI[1] + v[1] * PAULI[2] + v[2] * PAULI[3]


def test_criterion_1_unitarity_and_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_unitary = worst_bloch = worst_conj = 0.0
    for _ in range(10_000):
        k = rng.uniform(-math.pi * SQRT3, math.pi * SQRT3, 3)
        for sign in (PLUS, MINUS):
            b = bloch_data(k, sign)
            a = b.d * np.eye(2) - 1j * pauli_dot(b.n_tilde)
            worst_unitary = max(worst_unitary, np.linalg.norm(a.conj().T @ a - np.eye(2), 2))
            worst_bloch = max(worst_bloch, abs(b.d**2 + float(np.sum(b.n_tilde**2)) - 1.0))
            worst_conj = max(worst_conj, np.linalg.norm(a.conj() - SIGMA_Y @ a @ SIGMA_Y, 2))
    elapsed = time.perf_counter() - start
    ok = worst_unitary <= 1e-12 and worst_bloch <= 1e-12 and worst_conj <= 1e-12 and elapsed < 5.0
    report(
        "1 unitarity+algebra",
        ok,
        f"unitary={worst_unitary:.2e} bloch={worst_bloch:.2e} conj={worst_conj:.2e} t={elapsed:.1f}s",
    )
    assert worst_unitary <= 1e-12
    assert worst_bloch <= 1e-12
    assert worst_conj <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_relativistic_limit_slope():
    start = time.perf_counter()
    from scipy.linalg import expm

    rng = np.random.default_rng(101)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mags = np.logspace(-4, -1, 7)
    deviations = []
    for mag in mags:
        worst = 0.0
        for u in dirs:
            k = mag * u
            b = bloch_data(k, MINUS)
            a = b.d * np.eye(2) - 1j * pauli_dot(b.n_tilde)
            worst = max(worst, np.linalg.norm(a - expm(-1j * pauli_dot(k / SQRT3)), 2))
        deviations.append(worst)
    slope = float(np.polyfit(np.log(mags), np.log(deviations), 1)[0])
    elapsed = time.perf_counter() - start
    ok = slope >= 2.0 - 0.1 and elapsed < 5.0
    report("2 relativistic limit", ok, f"slope={slope:.3f} t={elapsed:.1f}s")
    assert slope >= 2.0 - 0.1
    assert elapsed < 5.0


def test_criterion_3_maxwell_emergence():
    start = time.perf_counter()
    worst_single = 0.0
    for t in (1, 10, 100, 1000):
        r = maxwell_emergence_report(single_point_profile(), K_SWEEP, MINUS, t)
        worst_single = max(worst_single, r.residual_transverse)
    radii = [4e-4 * 0.5**i for i in range(5)]
    residuals = [
        maxwell_emergence_report(make_uniform_profile(r, r / 2.0), K_SWEEP, MINUS, 100).residual_transverse
        for r in radii
    ]
    slope = float(np.polyfit(np.log(radii), np.log(residuals), 1)[0])
    elapsed = time.perf_counter() - start
    ok = worst_single <= 1e-10 and abs(slope - 1.0) <= 0.15 and elapsed < 120.0
    report(
        "3 maxwell emergence",
        ok,
        f"single_point={worst_single:.2e} slope={slope:.3f} t={elapsed:.1f}s",
    )
    assert worst_single <= 1e-10
    assert abs(slope - 1.0) <= 0.15
    assert elapsed < 120.0


def test_criterion_4_maxwell_generator():
    start = time.perf_counter()
    single = maxwell_generator_check(single_point_profile(), K_SWEEP, MINUS, 40)
    radii = [4e-4 * 0.5**i for i in range(4)]
    checks = [
        maxwell_generator_check(make_uniform_profile(r, r / 2.0), K_SWEEP, MINUS, 40)
        for r in radii
    ]
    floor = single.fd_forward_residual
    excess_ok = all(
        c.fd_forward_residual <= floor + 1.0 * (c.qbar / c.n_norm) for c in checks
    )
    step_ok = all(c.rotation_step_residual <= 0.5 * (c.qbar / c.n_norm) for c in checks)
    slope = float(
        np.polyfit(np.log(radii), np.log([c.rotation_step_residual for c in checks]), 1)[0]
    )
    elapsed = time.perf_counter() - start
    ok = (
        single.rotation_step_residual <= 1e-10
        and excess_ok
        and step_ok
        and slope >= 0.85
        and elapsed < 60.0
    )
    report(
        "4 maxwell generator",
        ok,
        f"single_step={single.rotation_step_residual:.2e} slope={slope:.3f} t={elapsed:.1f}s",
    )
    assert single.rotation_step_residual <= 1e-10
    assert excess_ok
    assert step_ok
    assert slope >= 0.85
    assert elapsed < 60.0


def test_criterion_5a_dispersion_small_k():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(3)
        k = 1e-3 * u / np.linalg.norm(u)
        for sign in (PLUS, MINUS):
            worst = max(worst, abs(omega(k, sign) - 1e-3 / SQRT3) / (1e-3 / SQRT3))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report("5a omega small-k", ok, f"rel_err={worst:.2e} t={elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_5b_diagonal_speed_split_quoted_magnitude():
    # The quoted first-order coefficient for the diagonal split is 1/sqrt3;
    # the closed forms give 1/9 (measured below), so the magnitude clause
    # fails while the opposite-sign clause holds.
    k = 1e-2
    dev_plus = speed_deviation(k * np.array(DIAGONAL), PLUS)
    dev_minus = speed_deviation(k * np.array(DIAGONAL), MINUS)
    target = k / SQRT3
    opposite = dev_plus < 0.0 < dev_minus
    within = (
        abs(abs(dev_plus) - target) <= 0.1 * target
        and abs(abs(dev_minus) - target) <= 0.1 * target
    )
    ok = opposite and within
    report(
        "5b diagonal speed split",
        ok,
        f"dev+={dev_plus:.3e} dev-={dev_minus:.3e} quoted={target:.3e} (measured ~ k/9 = {k/9:.3e})",
    )
    assert opposite
    assert within


def test_criterion_5c_gradient_routes():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    worst = 0.0
    while checked < 1000:
        k = rng.uniform(-2.0, 2.0, 3)
        lam = bloch_data(k / 2.0, MINUS).lam
        if lam < 0.05 or math.pi - lam < 0.05:
            continue
        fd = group_velocity(k, MINUS)
        analytic = group_velocity_analytic(k, MINUS)
        worst = max(worst, float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report("5c gradient dual route", ok, f"rel_err={worst:.2e} t={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_6a_exact_tilt_vs_quoted_estimate():
    # The quoted tilt magnitude 2k exceeds the closed-form tilt (~0.16 k at
    # its directional maximum) by more than a factor of 10; asserted as
    # stated, measured values printed.
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    dirs = rng.standard_normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    profile = single_point_profile()
    ratios = {}
    for kmag in (0.05, 0.1):
        tilt = max(
            maxwell_emergence_report(profile, kmag * d, MINUS, 0).tilt_angle for d in dirs
        )
        ratios[kmag] = tilt_angle_estimate(kmag) / tilt
    elapsed = time.perf_counter() - start
    ok = all(0.5 <= r <= 2.0 for r in ratios.values()) and elapsed < 60.0
    report(
        "6a exact tilt vs 2k",
        ok,
        " ".join(f"k={k}: 2k/exact={r:.1f}" for k, r in ratios.items()) + f" t={elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert all(0.5 <= r <= 2.0 for r in ratios.values())


def test_criterion_6b_gamma_ray_tilt_order():
    k_gamma = energy_to_wavevector(3.5e12)  # TeV-scale photon
    estimate = tilt_angle_estimate(k_gamma)
    ok = 1e-16 <= estimate <= 1e-14
    report("6b gamma-ray tilt order", ok, f"k={k_gamma:.2e} estimate={estimate:.2e} rad")
    assert ok


def _lattice(n):
    if n % 2 == 1:
        return list(range(-(n // 2), n - n // 2))
    return [2 * j + 1 - n for j in range(n)]


def test_criterion_7_fock_exact_algebra():
    start = time.perf_counter()
    worst = worst_gamma_gamma = 0.0
    pairs_checked = 0
    for n in (1, 2, 3):
        space = FockSpace(_lattice(n))  # anticommutators verified at build
        profiles = available_profiles(space.momenta)
        specs = [
            (a, b, p) for a in ("R", "L") for b in ("R", "L") for p in profiles.values()
        ]
        sweep = pair_commutator_sweep(space, specs)
        worst = max(worst, sweep.max_assembly_deviation)
        worst_gamma_gamma = max(worst_gamma_gamma, sweep.max_gamma_gamma)
        pairs_checked += sweep.label_pairs
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_gamma_gamma <= 1e-12 and elapsed < 120.0
    report(
        "7 fock exact algebra",
        ok,
        f"label_pairs={pairs_checked} worst={worst:.2e} [g,g]={worst_gamma_gamma:.2e} t={elapsed:.1f}s",
    )
    assert worst <= 1e-12
    assert worst_gamma_gamma <= 1e-12
    assert elapsed < 120.0


def test_criterion_8_fock_bounds():
    start = time.perf_counter()
    # Schwartz bound, exhaustive over all basis states at M = 12
    space3 = FockSpace(_lattice(3))
    sweep = schwartz_exhaustive(space3, available_profiles(space3.momenta).values())
    schwartz_ok = sweep.holds

    # sandwich P <= <N|Gamma_psi|N> <= N P on a uniform profile over 4 modes
    space2 = FockSpace(_lattice(2))
    pairs = default_pairs(space2)
    uniform = np.full(len(pairs), 1.0 / math.sqrt(len(pairs)))
    suite = composite_boson_suite(space2, pairs, uniform, 3)
    sandwich_ok = all(row[4] for row in suite.sandwich_rows)

    # |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2) on 1000 random orthogonal pairs
    rng = np.random.default_rng(105)
    conjecture_ok = True
    worst_slack = math.inf
    for _ in range(1000):
        w1 = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        w1 /= np.linalg.norm(w1)
        w2 = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        w2 -= w1 * np.sum(w2 * np.conj(w1))
        w2 /= np.linalg.norm(w2)
        c1 = composite_boson(space2, pairs, w1)
        c2d = composite_boson(space2, pairs, w2).conj().T.tocsr()
        comm = c1 @ c2d - c2d @ c1
        p_max = max(purity(w1), purity(w2))
        for n in (1, 2):
            state = pair_condensate(space2, c1, n)
            value = abs(np.vdot(state, comm @ state))
            worst_slack = min(worst_slack, 2.0 * n * p_max - value)
            conjecture_ok = conjecture_ok and value <= 2.0 * n * p_max + 1e-10
    elapsed = time.perf_counter() - start
    ok = schwartz_ok and sandwich_ok and conjecture_ok and elapsed < 180.0
    report(
        "8 fock bounds",
        ok,
        f"schwartz_margin={sweep.worst_margin:.2e} conjecture_slack={worst_slack:.2e} t={elapsed:.1f}s",
    )
    assert schwartz_ok
    assert sandwich_ok
    assert conjecture_ok
    assert elapsed < 180.0


def test_criterion_9_pauli_saturation():
    start = time.perf_counter()
    space = FockSpace(_lattice(2))
    pairs = default_pairs(space)
    # full support: saturates just above the pair count
    weights = np.full(len(pairs), 0.5)
    c = composite_boson(space, pairs, weights)
    v = space.vacuum()
    cd = c.conj().T.tocsr()
    for _ in range(len(pairs)):
        v = cd @ v
    above = cd @ v
    full_ok = np.linalg.norm(v) > 0.0 and np.linalg.norm(above) == 0.0
    # partial support: the shared-mode count is what saturates
    weights3 = np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)
    c3 = composite_boson(space, pairs, weights3)
    v3 = space.vacuum()
    c3d = c3.conj().T.tocsr()
    for _ in range(3):
        v3 = c3d @ v3
    partial_ok = np.linalg.norm(v3) > 0.0 and np.linalg.norm(c3d @ v3) == 0.0
    elapsed = time.perf_counter() - start
    ok = full_ok and partial_ok and elapsed < 10.0
    report("9 pauli saturation", ok, f"t={elapsed:.1f}s")
    assert full_ok
    assert partial_ok
    assert elapsed < 10.0


def test_criterion_10_determinism(tmp_path):
    runs = [
        ["dispersion", "--points", "3", "--kmax", "0.6", "--seed", "5"],
        ["fock-suite", "--momenta", "2", "--conjecture-samples", "10", "--seed", "5"],
    ]
    ok = True
    for i, args in enumerate(runs):
        out1 = tmp_path / f"run{i}_a.out"
        out2 = tmp_path / f"run{i}_b.out"
        assert cli_main(args + ["--out", str(out1)]) == EXIT_OK
        assert cli_main(args + ["--out", str(out2)]) == EXIT_OK
        ok = ok and out1.read_bytes() == out2.read_bytes()
    report("10 determinism", ok)
    assert ok
