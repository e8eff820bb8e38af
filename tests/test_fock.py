"""Unit tests for the exact Fock-space oracle."""

import math

import numpy as np
import pytest
from scipy import sparse

from fock_oracles import (
    cross_commutator_values,
    frame_rows,
    h_operator,
    pair_commutator_sweep,
    pair_stack,
    polarization_boson_check,
    polarization_diagonals,
    polarization_gamma,
)
from latticelight import fock, onebody
from latticelight.fock import (
    FIELDS,
    SPINS,
    FockSizeError,
    FockSpace,
    LatticeProfile,
    SaturationError,
    composite_boson,
    composite_boson_suite,
    gamma_ab,
    gamma_for_profile,
    pair_condensate,
    purity,
    schwartz_exhaustive,
)
from latticelight.onebody import UnresolvedMomentumError, available_profiles, default_pairs, uniform_profile


@pytest.fixture(scope="module")
def two_momentum_space(fock_space):
    return fock_space([-1, 1])


@pytest.fixture(scope="module")
def profiles(two_momentum_space):
    return available_profiles(two_momentum_space.momenta)


def max_abs(matrix):
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    return float(np.max(np.abs(matrix.data))) if matrix.nnz else 0.0


def weighted_numbers(space, terms):
    """sum_j w_j n_j as CSR over (w_j, (field, spin, momentum)) terms, from the number operators."""
    zero = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    return sum((w * space.number_operator(*mode) for w, mode in terms), zero)


def gamma_reference(space, profile, field, spin, branch):
    """Gamma^branch = sum_q |f(q)|^2 n_{field,spin}(k/2 + branch*q)."""
    return weighted_numbers(
        space, [(abs(w) ** 2, (field, spin, profile.half + branch * q)) for q, w in profile.weights]
    )


def pair_number_reference(space, pairs, weights):
    """(Gamma_psi, Gamma_phi) = sum_i |f(i)|^2 n of the pair's psi (phi) mode."""
    return tuple(
        weighted_numbers(space, [(abs(w) ** 2, (field, *pair[side])) for pair, w in zip(pairs, weights)])
        for side, field in enumerate(FIELDS)
    )


# ---------------------------------------------------------------------------
# space construction


def test_single_momentum_space_size():
    space = FockSpace([0])
    assert space.mode_count == 4
    assert space.dim == 16


def test_size_cap():
    with pytest.raises(FockSizeError):
        FockSpace(range(6))
    with pytest.raises(FockSizeError):
        FockSpace([])


def test_anticommutator_spot_checks(two_momentum_space):
    space = two_momentum_space
    a0, a1 = space.lowering[0], space.lowering[1]
    zero = a0 @ a1.T.tocsr() + a1.T.tocsr() @ a0
    zero.eliminate_zeros()
    assert zero.nnz == 0
    same = a0 @ a0.T.tocsr() + a0.T.tocsr() @ a0
    diff = same - sparse.identity(space.dim)
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_vacuum_annihilated(two_momentum_space):
    space = two_momentum_space
    vacuum = space.vacuum()
    for op in space.lowering:
        assert np.linalg.norm(op @ vacuum) == 0.0


def test_unknown_momentum_raises(two_momentum_space):
    with pytest.raises(UnresolvedMomentumError):
        two_momentum_space.annihilator("psi", "R", 7)
    with pytest.raises(ValueError):
        two_momentum_space.annihilator("chi", "R", 1)


# ---------------------------------------------------------------------------
# pair operators


def test_gamma_single_term_is_plain_product(two_momentum_space):
    space = two_momentum_space
    g = gamma_ab(space, "R", "L", [(-1, 1)], [1.0])
    direct = space.annihilator("phi", "R", -1) @ space.annihilator("psi", "L", 1)
    assert max_abs(g - direct) == 0.0


def test_gamma_annihilates_psi_empty_states(two_momentum_space, profiles):
    space = two_momentum_space
    g = gamma_for_profile(space, "R", "L", profiles[0])
    # a state with only phi particles occupied
    state = space.vacuum()
    state = space.creator("phi", "R", -1) @ state
    state = space.creator("phi", "L", 1) @ state
    assert np.linalg.norm(g @ state) == 0.0


def test_gamma_norm_at_most_one(two_momentum_space, profiles):
    g = gamma_for_profile(two_momentum_space, "R", "R", profiles[0])
    norm = np.linalg.norm(g.toarray(), 2)
    assert norm <= 1.0 + 1e-12


def test_gamma_changes_each_species_count_by_one(two_momentum_space, profiles):
    space = two_momentum_space
    n_psi = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    n_phi = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for spin in ("R", "L"):
        for p in space.momenta:
            n_psi = n_psi + space.number_operator("psi", spin, p)
            n_phi = n_phi + space.number_operator("phi", spin, p)
    g = gamma_for_profile(space, "L", "R", profiles[0])
    for total in (n_psi, n_phi):
        assert max_abs(total @ g - g @ total + g) <= 1e-14  # [N, gamma] = -gamma


def test_gamma_gamma_commute_exactly(two_momentum_space, profiles):
    space = two_momentum_space
    specs = [(a, b, p) for a in ("R", "L") for b in ("R", "L") for p in profiles.values()]
    for s1 in specs[:6]:
        g1 = gamma_for_profile(space, *s1)
        for s2 in specs[:6]:
            g2 = gamma_for_profile(space, *s2)
            assert max_abs(g1 @ g2 - g2 @ g1) == 0.0


def test_commutator_assembly_all_labels(two_momentum_space, profiles):
    space = two_momentum_space
    specs = [(a, b, p) for a in ("R", "L") for b in ("R", "L") for p in profiles.values()]
    sweep = pair_commutator_sweep(space, specs)
    assert sweep.label_pairs == len(specs) ** 2
    assert sweep.max_assembly_deviation <= 1e-12


def test_same_label_commutator_vacuum_expectation(two_momentum_space, profiles):
    space = two_momentum_space
    spec = ("R", "L", profiles[0])
    g = gamma_for_profile(space, *spec)
    gd = fock._dagger(g)
    vacuum = space.vacuum()
    value = np.vdot(vacuum, (g @ gd - gd @ g) @ vacuum)
    assert value == pytest.approx(1.0, abs=1e-13)
    coefficient, terms = onebody._assembly_terms(space, spec, spec)
    assert coefficient == pytest.approx(1.0, abs=1e-13)
    # the hopping part is a pure occupancy operator: zero on the vacuum
    assert np.linalg.norm(fock._quadratic(space, terms) @ vacuum) <= 1e-14


def test_profile_normalization_enforced():
    with pytest.raises(ValueError):
        uniform_profile(1, [0])  # odd total momentum
    with pytest.raises(ValueError):
        # manual weights that are not normalized
        from latticelight.fock import LatticeProfile

        LatticeProfile(total=0, weights=((0, 0.5),))


def test_h_operator_skips_zero_weight_and_raises_when_unresolved(two_momentum_space, profiles):
    space = two_momentum_space
    # k=0 against k=2 on the two-point lattice resolves with zero weight only
    h = h_operator(space, -1, "phi", "R", "R", profiles[2], profiles[0])
    assert h.shape == (space.dim, space.dim)
    with pytest.raises(UnresolvedMomentumError):
        bad = uniform_profile(6, [0])  # needs momentum 3
        gamma_for_profile(space, "R", "R", bad)


# ---------------------------------------------------------------------------
# Schwartz bound


def test_schwartz_on_vacuum(two_momentum_space, profiles):
    space = two_momentum_space
    h = h_operator(space, +1, "psi", "R", "R", profiles[0], profiles[0])
    g = gamma_reference(space, profiles[0], "psi", "R", +1)
    vacuum = space.vacuum()
    lhs = abs(np.vdot(vacuum, h @ vacuum))
    ga = gb = float(np.vdot(vacuum, g @ vacuum).real)
    rhs = math.sqrt(max(ga, 0.0) * max(gb, 0.0))
    holds = lhs <= rhs + 1e-10
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_schwartz_exhaustive(two_momentum_space, profiles):
    sweep = schwartz_exhaustive(two_momentum_space, profiles.values())
    assert sweep.holds
    assert sweep.states == two_momentum_space.dim
    assert sweep.worst_margin >= -1e-10


def test_uniform_gamma_counts_occupancy(two_momentum_space, profiles):
    # uniform |f|^2 = 1/N over the support: <Gamma> = (particles inside)/N
    space = two_momentum_space
    prof = profiles[0]  # two q points, N = 2
    gamma = gamma_reference(space, prof, "psi", "R", +1)
    state = space.creator("psi", "R", 1) @ space.vacuum()
    assert np.vdot(state, gamma @ state).real == pytest.approx(0.5, abs=1e-14)
    state2 = space.creator("psi", "R", -1) @ state
    assert np.vdot(state2, gamma @ state2).real == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# polarization modes


def test_polarization_vacuum_commutators(two_momentum_space, profiles):
    space = two_momentum_space
    vacuum = space.vacuum()
    gammas = [polarization_gamma(space, profiles[0], frame_rows([0.0, 0.0, 1.0]), i) for i in range(4)]
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            gjd = gj.conj().T.tocsr()
            comm = gi @ gjd - gjd @ gi
            value = np.vdot(vacuum, comm @ vacuum)
            assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_polarization_report(two_momentum_space, profiles):
    report = polarization_boson_check(two_momentum_space, profiles.values())
    assert report.vacuum_deviation <= 1e-12
    # one added Fermion raises the deviation to O(1/N): N = 2 for the k=0 profile
    assert 0.0 < report.deviation_by_particles[1] <= 0.5 + 1e-12
    assert report.deviation_by_particles[2] >= report.deviation_by_particles[1]


# ---------------------------------------------------------------------------
# composite bosons


def test_uniform_composite_equalities(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    n = len(pairs)
    weights = np.full(n, 1.0 / math.sqrt(n))
    assert purity(weights) == pytest.approx(1.0 / n, rel=1e-12)
    c = composite_boson(space, pairs, weights)
    g_psi, _ = pair_number_reference(space, pairs, weights)
    one = pair_condensate(space, c, 1)
    assert np.vdot(one, g_psi @ one).real == pytest.approx(1.0 / n, abs=1e-13)


def test_composite_commutator_identity(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    rng = np.random.default_rng(41)
    weights = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    weights /= np.linalg.norm(weights)
    c = composite_boson(space, pairs, weights)
    cd = c.conj().T.tocsr()
    g_psi, g_phi = pair_number_reference(space, pairs, weights)
    identity = sparse.identity(space.dim, dtype=complex, format="csr")
    assert max_abs((c @ cd - cd @ c) - (identity - g_psi - g_phi)) <= 1e-14


def test_pauli_saturation_exact(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    weights = np.full(len(pairs), 0.5)
    c = composite_boson(space, pairs, weights)
    pair_condensate(space, c, len(pairs))  # constructible
    with pytest.raises(SaturationError):
        pair_condensate(space, c, len(pairs) + 1)


def test_composite_suite_report(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    weights = np.full(len(pairs), 0.5)
    rng = np.random.default_rng(42)
    second = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    second -= weights * np.sum(second * np.conj(weights))
    second /= np.linalg.norm(second)
    report = composite_boson_suite(space, pairs, weights, 3, second_weights=second)
    assert report.commutator_identity_deviation <= 1e-12
    assert report.cross_identity_deviation <= 1e-12
    assert all(row[4] for row in report.sandwich_rows)
    assert report.saturation_order == len(pairs) + 1
    assert all(row[3] for row in report.cross_rows)
    # N = 2 conjecture bound with a single purity scale
    n2 = [row for row in report.cross_rows if row[0] == 2][0]
    assert n2[1] <= 4.0 * max(purity(weights), purity(second)) + 1e-12


def test_composite_suite_saturation_error(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    weights = np.full(len(pairs), 0.5)
    with pytest.raises(SaturationError):
        composite_boson_suite(space, pairs, weights, len(pairs) + 1)


# ---------------------------------------------------------------------------
# one-pass operator assembly against products of the ladder matrices

CLI_MOMENTA = {1: [0], 2: [-1, 1], 3: [-1, 0, 1]}


@pytest.fixture(scope="module", params=sorted(CLI_MOMENTA))
def sized_space(request, fock_space):
    return fock_space(CLI_MOMENTA[request.param])


def ladder(space, field, spin, momentum, raising):
    return (space.creator if raising else space.annihilator)(field, spin, momentum)


def reference_sum(space, terms):
    """sum_j w_j A_j B_j by repeated CSR addition, ladders as (field, spin, momentum, raising)."""
    out = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for weight, first, second in terms:
        out = out + weight * (ladder(space, *first) @ ladder(space, *second))
    return out


def random_weights(rng, n, unit):
    if unit:
        return rng.choice([-1.0, 1.0], size=n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_profiles(space, rng, unit):
    """Every supported total momentum with random (or equal-magnitude +-) weights."""
    out = []
    for total, prof in available_profiles(space.momenta).items():
        w = random_weights(rng, len(prof.weights), unit)
        w = w / np.linalg.norm(w)
        out.append(LatticeProfile(total=total, weights=tuple(zip((q for q, _ in prof.weights), w))))
    return out


def assert_same_operator(got, want, exact):
    assert got.shape == want.shape
    diff = max_abs(got - want)
    assert diff == 0.0 if exact else diff <= 1e-15


@pytest.mark.parametrize("unit", [False, True])
def test_gamma_ab_matches_ladder_products(sized_space, unit):
    space = sized_space
    rng = np.random.default_rng(11)
    pairing = [(p1, p2) for p1 in space.momenta for p2 in space.momenta]
    for alpha in SPINS:
        for beta in SPINS:
            w = random_weights(rng, len(pairing), unit)
            want = reference_sum(
                space,
                [(wj, ("phi", alpha, m, False), ("psi", beta, p, False)) for (m, p), wj in zip(pairing, w)],
            )
            assert_same_operator(gamma_ab(space, alpha, beta, pairing, w), want, unit)


@pytest.mark.parametrize("unit", [False, True])
def test_h_operator_matches_ladder_products(sized_space, unit):
    space = sized_space
    profiles = random_profiles(space, np.random.default_rng(12), unit)
    for branch in (+1, -1):
        for field in ("psi", "phi"):
            for prof_dag in profiles:
                for prof_in in profiles:
                    shift = (prof_dag.total - prof_in.total) // 2
                    for spin_dag in SPINS:
                        for spin_in in SPINS:
                            terms = [
                                (
                                    w * np.conj(prof_dag.weight(q + branch * shift)),
                                    (field, spin_dag, prof_dag.total - prof_in.half + branch * q, True),
                                    (field, spin_in, prof_in.half + branch * q, False),
                                )
                                for q, w in prof_in.weights
                                if prof_dag.weight(q + branch * shift) != 0.0
                            ]
                            got = h_operator(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)
                            assert_same_operator(got, reference_sum(space, terms), unit)


@pytest.mark.parametrize("unit", [False, True])
def test_composite_boson_matches_ladder_products(sized_space, unit):
    space = sized_space
    modes = [(spin, p) for spin in SPINS for p in space.momenta]
    pairs = [(a, b) for a in modes for b in modes]
    w = random_weights(np.random.default_rng(13), len(pairs), unit)
    want = reference_sum(
        space, [(wj, ("psi", *a, False), ("phi", *b, False)) for (a, b), wj in zip(pairs, w)]
    )
    assert_same_operator(composite_boson(space, pairs, w), want, unit)


@pytest.mark.parametrize("unit", [False, True])
def test_number_operators_match_ladder_products(sized_space, unit):
    space = sized_space
    rng = np.random.default_rng(14)
    for prof in random_profiles(space, rng, unit):
        for field in ("psi", "phi"):
            for spin in SPINS:
                for branch in (+1, -1):
                    modes = [(w, (field, spin, prof.half + branch * q)) for q, w in prof.weights]
                    terms = [(abs(w) ** 2, (*mode, True), (*mode, False)) for w, mode in modes]
                    got = sparse.diags(fock._gamma_diagonal(space, prof, field, spin, branch), format="csr")
                    assert_same_operator(got, reference_sum(space, terms), unit)
    pairs = default_pairs(space)
    w = random_weights(rng, len(pairs), unit)
    got = fock._pair_number_diagonals(space, pairs, w)
    for side, field in enumerate(("psi", "phi")):
        terms = [
            (abs(wj) ** 2, (field, *pair[side], True), (field, *pair[side], False))
            for pair, wj in zip(pairs, w)
        ]
        assert_same_operator(sparse.diags(got[side], format="csr"), reference_sum(space, terms), unit)


def test_zero_weight_terms_skipped_and_unresolved_momenta_raise(two_momentum_space):
    space = two_momentum_space
    # momentum 7 is not in the space: harmless with zero weight, an error otherwise
    g = gamma_ab(space, "R", "L", [(-1, 1), (7, 1)], [1.0, 0.0])
    assert_same_operator(g, gamma_ab(space, "R", "L", [(-1, 1)], [1.0]), True)
    with pytest.raises(UnresolvedMomentumError):
        gamma_ab(space, "R", "L", [(-1, 1), (7, 1)], [1.0, 0.5])
    pairs = [(("R", 1), ("R", 1)), (("R", 7), ("L", 1))]
    c = composite_boson(space, pairs, [1.0, 0.0])
    assert_same_operator(c, composite_boson(space, pairs[:1], [1.0]), True)
    with pytest.raises(UnresolvedMomentumError):
        composite_boson(space, pairs, [1.0, 1.0])
    with pytest.raises(UnresolvedMomentumError):
        fock._pair_number_diagonals(space, pairs, [1.0, 0.0])
    with pytest.raises(UnresolvedMomentumError):
        fock._gamma_diagonal(space, uniform_profile(6, [0]), "psi", "R", +1)


# ---------------------------------------------------------------------------
# Schwartz bound beyond basis-state diagonals


def test_schwartz_bound_on_sector_superpositions(two_momentum_space, profiles):
    """|<H>| <= sqrt(<Gamma_a><Gamma_b>) on random states inside each (N_psi, N_phi) sector.

    The exhaustive sweep compares diagonals only; most hopping operators have
    a zero diagonal, so superpositions are what exercise their off-diagonal part.
    """
    space = two_momentum_space
    rng = np.random.default_rng(15)
    psi_bits = sum(1 << i for i, mode in enumerate(space.modes) if mode.field == "psi")
    sector = [(bin(s & psi_bits).count("1"), bin(s & ~psi_bits).count("1")) for s in range(space.dim)]
    columns = []
    for key in sorted(set(sector)):
        support = [s for s in range(space.dim) if sector[s] == key]
        for _ in range(4):
            v = np.zeros(space.dim, dtype=complex)
            v[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
            columns.append(v / np.linalg.norm(v))
    states = np.array(columns).T

    def expect(op):
        return np.sum(np.conj(states) * (op @ states), axis=0)

    cases = 0
    off_diagonal_worst = 0.0
    for field in ("psi", "phi"):
        for branch in (+1, -1):
            for prof_in in profiles.values():
                for prof_dag in profiles.values():
                    for spin_in in SPINS:
                        for spin_dag in SPINS:
                            h = h_operator(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)
                            g_a = gamma_reference(space, prof_dag, field, spin_dag, branch)
                            g_b = gamma_reference(space, prof_in, field, spin_in, branch)
                            lhs = np.abs(expect(h))
                            rhs = np.sqrt(np.maximum(expect(g_a).real, 0.0) * np.maximum(expect(g_b).real, 0.0))
                            assert np.all(lhs <= rhs + 1e-12)
                            if not np.any(h.diagonal()):
                                off_diagonal_worst = max(off_diagonal_worst, float(np.max(lhs)))
                            cases += 1
    assert cases == schwartz_exhaustive(space, profiles.values()).cases
    # the states reach hopping operators whose diagonal the sweep sees as zero
    assert off_diagonal_worst > 0.01


# ---------------------------------------------------------------------------
# the oracles that fock-suite runs: cross values from state vectors, batched pair sweep


def matrix_route_cross_values(space, pairs, w1, w2, n_max):
    """|<N|[c1, c2^dag]|N>| with the commutator formed as a sparse operator product."""
    c1 = composite_boson(space, pairs, w1)
    c2d = composite_boson(space, pairs, w2).conj().T.tocsr()
    commutator = c1 @ c2d - c2d @ c1
    states = [pair_condensate(space, c1, n) for n in range(1, n_max + 1)]
    return np.array([abs(np.vdot(s, commutator @ s)) for s in states])


def seeded_weight_pair(n, seed):
    """A random normalized complex w1 and a w2 orthogonal to it, as fock-suite draws them."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w1 /= np.linalg.norm(w1)
    w2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w2 -= w1 * np.sum(w2 * np.conj(w1))
    return w1, w2 / np.linalg.norm(w2)


@pytest.mark.parametrize("seed", [3, 17])
def test_cross_values_match_matrix_route(sized_space, seed):
    space = sized_space
    pairs = default_pairs(space)
    stack = pair_stack(space, pairs)
    w1, w2 = seeded_weight_pair(len(pairs), seed)
    got = cross_commutator_values(stack, w1, w2, len(pairs))
    want = matrix_route_cross_values(space, pairs, w1, w2, len(pairs))
    assert got.shape == (len(pairs),)
    assert np.max(np.abs(got - want)) <= 1e-14
    # not orthogonal, not normalized: still the same expectation values
    rng = np.random.default_rng(seed + 1)
    w3 = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    got = cross_commutator_values(stack, w1, w3, len(pairs))
    want = matrix_route_cross_values(space, pairs, w1, w3, len(pairs))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(want))


def test_cross_values_saturate_like_the_chain(two_momentum_space):
    space = two_momentum_space
    pairs = default_pairs(space)
    w1, w2 = seeded_weight_pair(len(pairs), 5)
    with pytest.raises(SaturationError):
        cross_commutator_values(pair_stack(space, pairs), w1, w2, len(pairs) + 1)


def test_dropped_conjugate_on_w2_changes_cross_values(sized_space):
    # the 1e-14 comparison above can fail: without the conjugate on w2,
    # c2^dag would be sum_i f2(i) b_i^dag, and the values move by far more than that
    space = sized_space
    pairs = default_pairs(space)
    w1, w2 = seeded_weight_pair(len(pairs), 3)
    got = cross_commutator_values(pair_stack(space, pairs), w1, w2, len(pairs))
    c1 = composite_boson(space, pairs, w1)
    c2d_unconjugated = composite_boson(space, pairs, np.conj(w2)).conj().T.tocsr()
    c2 = composite_boson(space, pairs, w2)
    mutant = []
    for n in range(1, len(pairs) + 1):
        s = pair_condensate(space, c1, n)
        c1d_s = c1.conj().T @ s
        mutant.append(abs(np.vdot(c1d_s, c2d_unconjugated @ s) - np.vdot(c2 @ s, c1 @ s)))
    assert np.max(np.abs(got - np.array(mutant))) >= 1e-6


def label_specs(space):
    return [(a, b, p) for a in SPINS for b in SPINS for p in available_profiles(space.momenta).values()]


@pytest.mark.parametrize("labels", [None, 1, 5])
def test_pair_sweep_matches_per_pair_reports(sized_space, labels):
    # the one-body engine batches every second label against one first label;
    # labels: how many of the leading labels are swept (None: all of them),
    # 1 leaves a single pair, 5 cuts through a spin block at m >= 2
    space = sized_space
    specs = label_specs(space)[:labels]
    batched = onebody.pair_commutators(space, specs)
    sweep = pair_commutator_sweep(space, specs)
    assert batched["label_pairs"] == sweep.label_pairs == len(specs) ** 2
    assert batched["max_assembly_deviation"] == pytest.approx(sweep.max_assembly_deviation, abs=1e-15)
    assert sweep.max_assembly_deviation <= 1e-12
    assert batched["max_gamma_gamma"] == sweep.max_gamma_gamma == 0.0


@pytest.mark.parametrize("labels", [None, 1])
def test_pair_sweep_catches_flipped_hopping_sign(fock_space, monkeypatch, labels):
    space = fock_space([-1, 1])
    hopping_terms = onebody._hopping_terms

    def flipped(*args):
        return [(-weight, first, second) for weight, first, second in hopping_terms(*args)]

    # the assembly terms of both engines come from onebody
    monkeypatch.setattr(onebody, "_hopping_terms", flipped)
    specs = label_specs(space)[:labels]
    specs.append(specs[0])  # a repeated label
    sweep = pair_commutator_sweep(space, specs)
    assert sweep.label_pairs == len(specs) ** 2
    assert sweep.max_assembly_deviation >= 1.0
    assert sweep.max_gamma_gamma == 0.0


# ---------------------------------------------------------------------------
# the checks against operators assembled by another route


@pytest.mark.parametrize("table", ["_parity", "_occupied"])
@pytest.mark.parametrize("m", sorted(CLI_MOMENTA))
def test_verification_catches_one_corrupted_table_entry(m, table):
    for pick in range(3):
        space = FockSpace(CLI_MOMENTA[m])  # verified intact
        position = (0, space.mode_count - 1, space.mode_count // 2)[pick]
        state = (0, space.dim - 1, space.dim // 3)[pick]
        getattr(space, table)[position, state] ^= True
        with pytest.raises(RuntimeError):
            space.verify_anticommutators()


def csr_commutator_diagonals(space, profiles, frame):
    """diag [g, g2^dag] for every ordered pair of polarization gammas, each assembled from the gamma_{alpha,beta}."""
    gammas = [
        sum(mat[ia][ib] * gamma_for_profile(space, alpha, beta, prof)
            for ia, alpha in enumerate(SPINS) for ib, beta in enumerate(SPINS))
        for prof in profiles
        for mat in onebody.polarization_matrices(frame)
    ]
    return [
        [(g @ g2.conj().T - g2.conj().T @ g).diagonal() for g2 in gammas]
        for g in gammas
    ]


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.3, -0.5, 0.8)])
def test_polarization_diagonals_match_csr_products(sized_space, axis):
    space = sized_space
    frame = frame_rows(axis)
    profiles = random_profiles(space, np.random.default_rng(16), unit=False)
    diagonals = np.array(csr_commutator_diagonals(space, profiles, frame))
    everything = np.arange(space.dim)
    got = polarization_diagonals(space, profiles, frame, everything)
    assert got.shape == diagonals.shape
    assert np.max(np.abs(got - diagonals)) <= 1e-15
    # the report groups the same deviations by particle number
    report = polarization_boson_check(space, profiles, frame)
    numbers = space.particle_numbers()
    deviation = np.abs(diagonals - np.eye(len(diagonals))[..., None]).max(axis=(0, 1))
    assert report.cases == len(diagonals) ** 2
    assert report.states_checked == int(np.sum(numbers <= 2))
    assert sorted(report.deviation_by_particles) == [n for n in range(3) if np.any(numbers == n)]
    for n, value in report.deviation_by_particles.items():
        assert value == pytest.approx(float(np.max(deviation[numbers == n])), abs=1e-15)


def csr_composite_deviations(space, pairs, w1, w2):
    """max |entries| of [c1, c1^dag] - (I - Gamma_psi - Gamma_phi) and of the cross identity, with CSR."""
    c1 = composite_boson(space, pairs, w1)
    c1d = c1.conj().T.tocsr()
    g_psi, g_phi = pair_number_reference(space, pairs, w1)
    identity = sparse.identity(space.dim, dtype=complex, format="csr")
    own = max_abs((c1 @ c1d - c1d @ c1) - (identity - g_psi - g_phi))
    c2d = composite_boson(space, pairs, w2).conj().T.tocsr()
    coeffs = w1 * np.conj(w2)
    target = weighted_numbers(
        space, [(c, (field, *pair[side])) for pair, c in zip(pairs, coeffs) for side, field in enumerate(FIELDS)]
    )
    cross = max_abs((c1 @ c2d - c2d @ c1) - (np.sum(coeffs) * identity - target))
    return own, cross


@pytest.mark.parametrize("seed", [3, 17])
def test_composite_deviations_match_csr_route(sized_space, seed):
    space = sized_space
    pairs = default_pairs(space)
    w1, w2 = seeded_weight_pair(len(pairs), seed)
    report = composite_boson_suite(space, pairs, w1, len(pairs), second_weights=w2)
    own, cross = csr_composite_deviations(space, pairs, w1, w2)
    assert report.commutator_identity_deviation == pytest.approx(own, abs=1e-15)
    assert report.cross_identity_deviation == pytest.approx(cross, abs=1e-15)
    assert max(own, cross) <= 1e-14
    # the sandwich rows come from the same (c^dag)^N |0> chain as pair_condensate
    c1 = composite_boson(space, pairs, w1)
    g_psi, _ = pair_number_reference(space, pairs, w1)
    for n, expect, *_ in report.sandwich_rows:
        state = pair_condensate(space, c1, n)
        assert expect == pytest.approx(np.vdot(state, g_psi @ state).real, abs=1e-14)


def test_composite_suite_catches_a_dropped_conjugate(sized_space, monkeypatch):
    # an adjoint that keeps the weights unconjugated breaks both identities for complex weights
    space = sized_space
    pairs = default_pairs(space)
    w1, w2 = seeded_weight_pair(len(pairs), 3)
    monkeypatch.setattr(fock, "_dagger", lambda matrix: matrix.T.tocsr())
    report = composite_boson_suite(space, pairs, w1, 1, second_weights=w2)
    assert report.commutator_identity_deviation >= 1e-3
    assert report.cross_identity_deviation >= 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_profile_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        LatticeProfile(total=0, weights=((0, bad),))
    with pytest.raises(ValueError, match="finite"):
        LatticeProfile(total=0, weights=((-1, bad), (1, 1.0)))


# ---------------------------------------------------------------------------
# the 2^P pair register against the Fock space


def full_space_pair_stack(space, pairs):
    """The pair operators b_i as CSR matrices over the whole Fock space: the register's reference."""
    return [composite_boson(space, [pair], [1.0]) for pair in pairs]


def crossed_pairs(space):
    """Disjoint pairs whose phi partner sits at another (spin, momentum), listed in reverse."""
    psi, phi = zip(*default_pairs(space))
    return tuple(zip(psi, phi[1:] + phi[:1]))[::-1]


def register_embedding(space, pairs):
    """(dim, 2^P) matrix whose column S is prod_{i in S} b_i^dag |0> in the Fock basis.

    Each column is asserted to be +-1 at the Fock state whose bits are the
    OR of the pairs' psi and phi bits, and 0 elsewhere.
    """
    creators = [composite_boson(space, [pair], [1.0]).conj().T.tocsr() for pair in pairs]
    positions = [fock._pair_positions(space, pair) for pair in pairs]
    embedding = np.zeros((space.dim, 1 << len(pairs)))
    for s in range(1 << len(pairs)):
        v, index = space.vacuum(), 0
        for i, (b_dag, (psi, phi)) in enumerate(zip(creators, positions)):
            if s >> i & 1:
                v = b_dag @ v
                index |= (1 << psi) | (1 << phi)
        assert np.flatnonzero(v).tolist() == [index] and abs(v[index]) == 1.0
        embedding[:, s] = v.real
    return embedding


def register_chain(stack, weights, n_max):
    """The normalized (c^dag)^N |0>, N = 1..n_max, over the register."""
    cd = sum(np.conj(w) * b.T for w, b in zip(weights, stack))
    v = np.zeros(stack[0].shape[0], dtype=complex)
    v[0] = 1.0
    states = []
    for n in range(1, n_max + 1):
        v = cd @ v
        states.append(fock._unit(v, n))
    return states


def intertwining_error(space, pairs, stack, embedding):
    """Largest |entry| of b E - E b_register over the b_i and the b_i^dag, E the register embedding."""
    worst = 0.0
    for pair, register in zip(pairs, stack):
        b = composite_boson(space, [pair], [1.0])
        for full, small in ((b, register), (b.conj().T.tocsr(), register.T)):
            worst = max(worst, float(np.max(np.abs(full @ embedding - embedding @ small.toarray()))))
    return worst


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("crossed", [False, True])
def test_register_chain_embeds_into_the_fock_chain(sized_space, seed, crossed):
    space = sized_space
    pairs = crossed_pairs(space) if crossed else default_pairs(space)
    stack = pair_stack(space, pairs)
    assert len(stack) == len(pairs) and all(b.shape == (1 << len(pairs),) * 2 for b in stack)
    embedding = register_embedding(space, pairs)
    assert intertwining_error(space, pairs, stack, embedding) == 0.0
    w1, _ = seeded_weight_pair(len(pairs), seed)
    c1 = composite_boson(space, pairs, w1)
    for n, state in enumerate(register_chain(stack, w1, len(pairs)), start=1):
        assert np.max(np.abs(embedding @ state - pair_condensate(space, c1, n))) <= 1e-14


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("crossed", [False, True])
def test_register_cross_values_match_the_full_space_stack(sized_space, seed, crossed):
    space = sized_space
    pairs = crossed_pairs(space) if crossed else default_pairs(space)
    w1, w2 = seeded_weight_pair(len(pairs), seed)
    got = cross_commutator_values(pair_stack(space, pairs), w1, w2, len(pairs))
    want = cross_commutator_values(full_space_pair_stack(space, pairs), w1, w2, len(pairs))
    assert np.max(np.abs(got - want)) <= 1e-15


def parity_below(size, count):
    """(-1)^(set bits of s below bit i) for every pair i and register state s: a Jordan-Wigner sign."""
    states = np.arange(size)
    below = [[bin(s & ((1 << i) - 1)).count("1") for s in states] for i in range(count)]
    return (1 - 2 * (np.array(below) % 2)).astype(np.int8)


def test_a_mutated_register_is_caught(sized_space):
    space = sized_space
    pairs = default_pairs(space)
    stack = pair_stack(space, pairs)
    size = 1 << len(pairs)
    w1, w2 = seeded_weight_pair(len(pairs), 3)
    want = cross_commutator_values(full_space_pair_stack(space, pairs), w1, w2, 1)
    states = np.arange(size)
    signs = parity_below(size, len(pairs))
    mutants = {
        # b_i flips bit i whether it is set or not
        "ignores occupancy": [
            sparse.csr_matrix((np.ones(size), (states, states ^ 1 << i)), shape=(size, size))
            for i in range(len(pairs))
        ],
        "adds a sign": [sparse.diags(sign, dtype=float) @ b for sign, b in zip(signs, stack)],
    }
    embedding = register_embedding(space, pairs)
    for name, mutant in mutants.items():
        assert intertwining_error(space, pairs, mutant, embedding) >= 1.0, name
        got = cross_commutator_values(mutant, w1, w2, 1)
        assert np.max(np.abs(got - want)) >= 1e-6, name


@pytest.mark.parametrize(
    "pairs,mode",
    [
        (((("R", 0), ("R", 0)), (("R", 0), ("L", 0))), r"psi\(R, 0\)"),
        (((("R", 0), ("R", 0)), (("L", 0), ("R", 0))), r"phi\(R, 0\)"),
        (((("R", 0), ("R", 0)), (("L", 0), ("L", 0)), (("R", 0), ("R", 0))), r"psi\(R, 0\)"),
    ],
)
def test_pairs_sharing_a_mode_are_refused_before_anything_is_built(fock_space, monkeypatch, pairs, mode):
    # on shared modes the suite used to report saturation order 3 where the truth is 2, as a physics failure
    space = fock_space([0])
    first, second = (0, 2) if len(pairs) == 3 else (0, 1)
    message = rf"pairs {first} and {second} share the mode {mode}"
    with pytest.raises(ValueError, match=message):
        pair_stack(space, pairs)

    def unbuilt(*args):
        raise AssertionError("an operator was built before the pairs were checked")

    monkeypatch.setattr(fock, "composite_boson", unbuilt)
    monkeypatch.setattr(fock, "_pair_number_diagonals", unbuilt)
    weights = np.full(len(pairs), 1.0 / math.sqrt(len(pairs)))
    with pytest.raises(ValueError, match=message):
        composite_boson_suite(space, pairs, weights, 2, second_weights=np.roll(weights, 1))


def csr_schwartz_margin(space, profiles):
    """min over cases and basis states of rhs - lhs, from CSR h_operator and number-operator Gamma diagonals."""
    worst = math.inf
    for field in ("psi", "phi"):
        for branch in (+1, -1):
            for prof_in in profiles:
                for prof_dag in profiles:
                    for spin_in in SPINS:
                        for spin_dag in SPINS:
                            h = h_operator(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)
                            g_in = gamma_reference(space, prof_in, field, spin_in, branch).diagonal().real
                            g_dag = gamma_reference(space, prof_dag, field, spin_dag, branch).diagonal().real
                            worst = min(worst, float(np.min(np.sqrt(g_in * g_dag) - np.abs(h.diagonal()))))
    return worst


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("uniform", [True, False])
def test_schwartz_margin_matches_csr_diagonals(sized_space, monkeypatch, uniform, scale):
    # the true margin is 0 (the vacuum); hopping weights scaled by 2 break the
    # bound, and the negative margin then depends on which Gamma pairs with which case
    space = sized_space
    if uniform:
        profiles = list(available_profiles(space.momenta).values())
    else:
        profiles = random_profiles(space, np.random.default_rng(23), unit=False)
    hopping_terms, gamma_diagonal = fock._hopping_terms, fock._gamma_diagonal
    builds = []
    monkeypatch.setattr(
        fock, "_hopping_terms", lambda *args: [(scale * w, a, b) for w, a, b in hopping_terms(*args)]
    )
    monkeypatch.setattr(fock, "_gamma_diagonal", lambda *args: builds.append(args) or gamma_diagonal(*args))
    sweep = schwartz_exhaustive(space, profiles)
    # one Gamma diagonal per (profile, field, spin, branch): 24 at m=3, against 288 built per case
    assert len(builds) == len(profiles) * 2 * 2 * 2
    want = csr_schwartz_margin(space, profiles)
    assert sweep.cases == 2 * 2 * len(profiles) ** 2 * 4
    assert sweep.worst_margin == pytest.approx(want, abs=1e-15)
    assert sweep.holds == (scale == 1.0)
    assert (want == 0.0) == (scale == 1.0)
