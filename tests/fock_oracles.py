"""Test oracles in the Jordan-Wigner Fock space of ``latticelight.fock``.

``latticelight.onebody`` computes the fock-suite checks from mode
bookkeeping; these evaluate the same quantities with the scipy CSR operators
of ``latticelight.fock``: the pair-commutator sweep, the hopping and
polarization operators, the polarization diagonals on basis states, and the
composite-boson pair register.  Past the Fock space's 3 momenta, dense n x n
pairing blocks in numpy are the reference for onebody's sparse rows.

The composite-boson states (c^dag)^N |0>, c = sum_i f(i) b_i over disjoint
pairs b_i = psi_i phi_i, lie in the span of the 2^P pair-occupation states
prod_{i in S} b_i^dag |0> (the Schmidt-pair picture of Law, PRA 71, 034306
(2005)).  Each b_i is even, so the b_i commute with each other and square to
zero, and b_i b_i^dag = 1 on states where both of the pair's modes are empty:
that span is invariant under every b_i and b_i^dag, its basis is orthonormal,
and it carries no Jordan-Wigner sign.  cross_commutator_values works on that
P-bit register (pair_stack).
"""

import random
from collections import namedtuple

import numpy as np
from scipy import sparse

from latticelight import fock, onebody
from latticelight.bilinear import polarization_frame
from latticelight.onebody import DEFAULT_FRAME


PairSweep = namedtuple("PairSweep", "label_pairs max_assembly_deviation max_gamma_gamma")
PairSweep.__doc__ = """Worst deviations over every ordered pair of gamma labels.

``label_pairs`` counts the ordered pairs compared, ``max_assembly_deviation``
is that of [gamma_1, gamma_2^dag] from its assembly, and ``max_gamma_gamma``
that of [gamma_1, gamma_2] from 0.
"""


def pair_commutator_sweep(space, specs) -> PairSweep:
    """[gamma_1, gamma_2^dag] against its assembly, and [gamma_1, gamma_2] = 0, over all ordered pairs of ``specs``.

    The assembly is overlap * delta_spin * I - (delta_{alpha,alpha'} H^+_psi +
    delta_{beta,beta'} H^-_phi), from onebody's assembly terms; the overlap
    reduces to 1 for identical normalized profiles and to 0 for k != k'.  Each
    gamma and its adjoint are built once, as CSR, and every comparison is entry
    by entry on a CSR difference.
    """
    specs = list(specs)
    gammas = [fock.gamma_for_profile(space, *spec) for spec in specs]
    adjoints = [fock._dagger(g) for g in gammas]
    identity = sparse.identity(space.dim, dtype=complex, format="csr")
    worst_assembly = worst_plain = 0.0
    for spec1, g1 in zip(specs, gammas):
        for spec2, g2, g2d in zip(specs, gammas, adjoints):
            coefficient, terms = onebody._assembly_terms(space, spec1, spec2)
            assembled = coefficient * identity - fock._quadratic(space, terms)
            worst_assembly = max(worst_assembly, fock._max_abs(g1 @ g2d - g2d @ g1 - assembled))
            worst_plain = max(worst_plain, fock._max_abs(g1 @ g2 - g2 @ g1))
    return PairSweep(
        label_pairs=len(specs) ** 2,
        max_assembly_deviation=worst_assembly,
        max_gamma_gamma=worst_plain,
    )


def dense_matrix(n, terms) -> np.ndarray:
    """M with sum_ij M_ij A_i B_j = sum_j w_j A_j B_j over (w_j, (i_j, _), (k_j, _)) ladder terms."""
    m = np.zeros((n, n), dtype=complex)
    for w, (i, _), (j, _) in terms:
        m[i, j] += w
    return m


def dense_pairing(n, terms) -> np.ndarray:
    """The antisymmetric A = M - M^T with sum_j w_j a_i a_k = 1/2 sum_ij A_ij a_i a_j, M of dense_matrix."""
    m = dense_matrix(n, terms)
    return m - m.T


def dense_block_deviation(a1, a2, coefficient, hopping) -> float:
    """max(|A2^dag A1 - H|, |1/2 tr(A2^dag A1) - c|) on dense blocks."""
    product = np.conj(a2.T) @ a1
    return max(float(np.abs(product - hopping).max()), abs(0.5 * np.trace(product) - coefficient))


def dense_pair_commutators(modes, specs) -> float:
    """The max_assembly_deviation of onebody.pair_commutators, from dense n x n blocks and hopping matrices."""
    n = modes.mode_count
    blocks = [dense_pairing(n, onebody._gamma_terms(modes, a, b, *onebody._profile_pairing(p))) for a, b, p in specs]
    worst = 0.0
    for first, a1 in zip(specs, blocks):
        for second, a2 in zip(specs, blocks):
            coefficient, terms = onebody._assembly_terms(modes, first, second)
            worst = max(worst, dense_block_deviation(a1, a2, coefficient, dense_matrix(n, terms)))
    return worst


def dense_polarization_deviations(modes, profiles, frame) -> list:
    """The 0-, 1- and 2-particle deviations of onebody.polarization_modes, with the slopes of every mode from dense blocks.

    <s|[gamma_g, gamma_h^dag]|s> = constant_gh - sum_i slope_ghi n_i, with products A_g,ij conj(A_h,ij).
    """
    n, mats = modes.mode_count, onebody.polarization_matrices(frame)
    blocks = np.array([dense_pairing(n, onebody._polarization_terms(modes, p, m)) for p in profiles for m in mats])
    upper, worst = np.triu_indices(n, 1), [0.0, 0.0, 0.0]
    for g, block in enumerate(blocks):  # one g against every h
        products = block[None] * np.conj(blocks)
        constant, slope = 0.5 * products.sum(axis=(-2, -1)), products.sum(axis=-1)
        vacuum = constant - (np.arange(len(blocks)) == g)
        one = vacuum[:, None] - slope
        deviations = (vacuum, one, one[:, upper[0]] - slope[:, upper[1]])
        worst = [max(w, float(np.abs(d).max())) for w, d in zip(worst, deviations)]
    return worst


def frame_rows(n) -> np.ndarray:
    """The rows (u1, u2, e) of bilinear.polarization_frame(n), the frame that onebody.polarization_matrices reads."""
    frame = polarization_frame(np.asarray(n, dtype=float))
    return np.array([frame.u1, frame.u2, frame.e])


def h_operator(space, branch, field, spin_dag, spin_in, prof_dag, prof_in):
    """The hopping operator H^branch of onebody._hopping_terms as CSR."""
    return fock._quadratic(space, fock._hopping_terms(space, branch, field, spin_dag, spin_in, prof_dag, prof_in))


def polarization_gamma(space, profile, frame, index):
    """gamma^i(k) = sum_{alpha,beta} M^i_{alpha,beta} gamma_{alpha,beta}(k) as CSR."""
    return fock._quadratic(space, onebody._polarization_terms(space, profile, onebody.polarization_matrices(frame)[index]))


PolarizationReport = namedtuple(
    "PolarizationReport", "cases states_checked deviation_by_particles max_deviation vacuum_deviation"
)
PolarizationReport.__doc__ = "Deviation of [gamma^i(k), gamma^j(k')^dag] from delta_ij delta_kk'."


def polarization_diagonals(space, profiles, frame, rows) -> np.ndarray:
    """<s|[gamma_g, gamma_h^dag]|s> for every pair of polarization gammas g, h and basis state s in ``rows``."""
    gammas = [polarization_gamma(space, prof, frame, i) for prof in profiles for i in range(4)]
    adjoints = [fock._dagger(g) for g in gammas]
    return np.array([[(g @ hd - hd @ g).diagonal()[rows] for hd in adjoints] for g in gammas])


def polarization_boson_check(space, profiles, frame=DEFAULT_FRAME) -> PolarizationReport:
    """Evaluate the four-mode Bose commutators on all low-occupancy basis states.

    Expectations are taken on the vacuum and on every basis state with total
    particle number <= 2; deviations are grouped by particle
    number (they grow with occupancy, vanishing exactly on the vacuum).
    """
    numbers = space.particle_numbers()
    kept = np.flatnonzero(numbers <= 2)
    kept_numbers = numbers[kept]
    values = polarization_diagonals(space, list(profiles), frame, kept)
    deviation = np.abs(values - np.eye(len(values))[..., None]).max(axis=(0, 1), initial=0.0)
    by_particles = {int(n): float(np.max(deviation[kept_numbers == n])) for n in sorted(set(kept_numbers.tolist()))}
    return PolarizationReport(
        cases=len(values) ** 2,
        states_checked=len(kept),
        deviation_by_particles=by_particles,
        max_deviation=max(by_particles.values()),
        vacuum_deviation=by_particles.get(0, 0.0),
    )


def pair_stack(space, pairs) -> list:
    """The b_i of P disjoint ``pairs`` as CSR matrices over the 2^P register states.

    Register state s stands for prod_{i: bit i of s set} b_i^dag |0>, so b_i
    takes each state with bit i set to the same state with bit i cleared.  No
    sign enters because the b_i commute (see the module docstring).  ``space``
    only resolves the pairs; pairs that share a mode raise ValueError.
    """
    count = len(fock._disjoint_positions(space, pairs))
    states = np.arange(1 << count)
    stack = []
    for i in range(count):
        empty = states[(states >> i) & 1 == 0]
        stack.append(sparse.csr_matrix((np.ones(len(empty)), (empty, empty | 1 << i)), shape=(len(states),) * 2))
    return stack


def cross_commutator_values(stack, weights, second_weights, n_max: int) -> np.ndarray:
    """|<N|[c1, c2^dag]|N>| for N = 1..n_max, with |N> the normalized (c1^dag)^N |0>.

    ``stack`` holds the b_i as CSR matrices whose basis state 0 is the vacuum:
    pair_stack's register, or the Fock space itself.  c = sum_i f(i) b_i.
    Raises SaturationError if n_max exceeds the constructible N.
    """
    c1, c2 = (sum(w * b for w, b in zip(f, stack)) for f in (weights, second_weights))
    c1d, c2d = fock._dagger(c1), fock._dagger(c2)
    commutator = c1 @ c2d - c2d @ c1
    u = np.zeros(c1.shape[0], dtype=complex)
    u[0] = 1.0
    values = np.empty(n_max)
    for n in range(1, n_max + 1):
        u = fock._unit(c1d @ u, n)
        values[n - 1] = abs(np.vdot(u, commutator @ u))
    return values


def complex_normals(rng: random.Random, size: int) -> np.ndarray:
    """``size`` complex draws from ``rng.gauss``, the real part of each entry drawn before its imaginary part."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(size)])


def conjecture_worst_slack(stack, rng, samples, n_max):
    """min over random orthonormal (w1, w2) and N = 1, 2 of 2 N max(P1, P2) - |<N|[c1, c2^dag]|N>|, on the pair register.

    The weights come from the ``random.Random`` ``rng`` in onebody's order: w1, then w2, each by complex_normals.
    """
    size = len(stack)
    sample_n = np.arange(1, min(2, n_max) + 1)
    worst = np.inf
    for _ in range(samples):
        w1 = complex_normals(rng, size)
        w1 /= np.linalg.norm(w1)
        w2 = complex_normals(rng, size)
        w2 -= w1 * np.sum(w2 * np.conj(w1))
        w2 /= np.linalg.norm(w2)
        bounds = 2.0 * sample_n * max(fock.purity(w1), fock.purity(w2))
        values = cross_commutator_values(stack, w1, w2, len(sample_n))
        worst = min(worst, float(np.min(bounds - values)))
    return worst


def oracle_report(space, n_max, samples, seed):
    """The "space", "checks" and "passed" of a fock-suite report, every check by brute force in the Fock ``space``."""
    momenta = list(space.momenta)
    profiles = list(onebody.available_profiles(momenta).values())
    rng = random.Random(seed)
    specs = [(alpha, beta, prof) for alpha in fock.SPINS for beta in fock.SPINS for prof in profiles]
    sweep = pair_commutator_sweep(space, specs)
    schwartz = fock.schwartz_exhaustive(space, profiles)
    pol = polarization_boson_check(space, profiles)
    pairs = onebody.default_pairs(space)
    uniform = np.full(len(pairs), 1.0 / np.sqrt(len(pairs)))
    n_max = min(n_max, len(pairs))
    second = complex_normals(rng, len(pairs))
    second -= uniform * np.sum(second * np.conj(uniform))
    second /= np.linalg.norm(second)
    suite = fock.composite_boson_suite(space, pairs, uniform, n_max, second_weights=second)
    slack = conjecture_worst_slack(pair_stack(space, pairs), rng, samples, n_max)
    checks = [
        {"name": "anticommutators", "passed": True, "detail": "verified exactly at build"},
        {
            "name": "pair_commutators",
            "passed": sweep.max_assembly_deviation <= 1e-12 and sweep.max_gamma_gamma == 0.0,
            "max_assembly_deviation": sweep.max_assembly_deviation,
            "max_gamma_gamma": sweep.max_gamma_gamma,
            "label_pairs": sweep.label_pairs,
        },
        {
            "name": "schwartz_bound",
            "passed": schwartz.holds,
            "cases": schwartz.cases,
            "states": schwartz.states,
            "worst_margin": schwartz.worst_margin,
        },
        {
            "name": "polarization_modes",
            "passed": pol.vacuum_deviation <= 1e-12,
            "vacuum_deviation": pol.vacuum_deviation,
            "deviation_by_particles": {str(k): v for k, v in pol.deviation_by_particles.items()},
        },
        {
            "name": "composite_bosons",
            "passed": bool(
                suite.commutator_identity_deviation <= 1e-12
                and all(r[4] for r in suite.sandwich_rows)
                and suite.cross_identity_deviation <= 1e-12
                and all(r[3] for r in suite.cross_rows)
                and slack >= -1e-12
            ),
            "purity": suite.purity,
            "commutator_identity_deviation": suite.commutator_identity_deviation,
            "sandwich": [list(r) for r in suite.sandwich_rows],
            "saturation_order": suite.saturation_order,
            "conjecture_samples": samples,
            "conjecture_worst_slack": slack,
        },
    ]
    return {
        "space": {"momenta": momenta, "modes": space.mode_count, "dimension": space.dim},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
