"""The Jordan-Wigner Fock space over up to 3 momenta: the oracle of ``onebody``.

``onebody`` computes every fock-suite check without a Fock basis, from the
mode table and the ladder terms of the pair operators, hopping operators,
polarization modes and composite bosons.  Here the same terms act on the
2^(4M) basis states, with Jordan-Wigner signs fixed by the mode order (field,
then spin, then momentum), and the identities and bounds are verified by
brute force.  This is a test reference: acceptance criteria 7 to 9 and the
tests use it, no subcommand loads it, and its numpy and scipy come from the
``test`` extra (``pip install '.[test]'``).

Every operator is a scipy CSR matrix over the basis states, and every
identity is compared entry by entry on a CSR difference.  A product of ladder
operators has at most one entry per row, so it is built as a signed map (row
s reads column ``source[s]`` with sign +-1, or 0 where the product
annihilates it) from the occupation and parity tables; a weighted sum of such
products becomes one CSR matrix in one COO pass.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy import sparse

from .onebody import (
    FIELDS,
    SPINS,
    LatticeProfile,
    ModeTable,
    SaturationError,
    _composite_terms,
    _disjoint_positions,
    _gamma_terms,
    _hopping_terms,
    _occupations,
    _pair_positions,
    _profile_pairing,
    purity,
)

MAX_MOMENTA = 3  # the dimension is at most 2**12


class FockSizeError(ValueError):
    """Requested momentum set exceeds the supported space size."""


SignedMap = namedtuple("SignedMap", "source sign")
SignedMap.__doc__ = """An operator with at most one entry per row: row s holds sign[s] in column source[s].

So (A v)[s] = sign[s] * v[source[s]].  For ladder products ``source`` is
the basis with the ladders' bits flipped (a permutation) and ``sign`` is
+-1 where the product survives, 0 where it annihilates; both are numpy arrays.
"""


class FockSpace(ModeTable):
    """Fock space with Jordan-Wigner ladder operators for every mode.

    All anticommutation relations are verified exactly at build time.
    Signed maps of ladder products are built once, on first use; the CSR
    matrices ``lowering`` and ``raising`` are built when first read.
    """

    def __init__(self, momenta):
        momenta = tuple(momenta)
        if not 1 <= len(momenta) <= MAX_MOMENTA:
            raise FockSizeError(f"need 1..{MAX_MOMENTA} momenta, got {len(momenta)}")
        super().__init__(momenta)
        self.dim = 1 << self.mode_count
        self._states = np.arange(self.dim, dtype=np.int32)  # the basis, read-only
        # per mode p: is p occupied, and the parity of the occupied modes below p
        self._occupied = np.array([(self._states >> p) & 1 for p in range(self.mode_count)], dtype=bool)
        self._parity = np.zeros_like(self._occupied)
        np.logical_xor.accumulate(self._occupied[:-1], axis=0, out=self._parity[1:])
        self._terms = {}  # (first, second) ladders -> signed map of their product
        self.verify_anticommutators()

    def _ladder(self, position: int, raising: bool) -> SignedMap:
        """a_p (a_p^dag if raising): row s reads s with bit p flipped, signed by the parity below p."""
        source = self._states ^ (1 << position)
        live = self._occupied[position][source] != raising
        return SignedMap(source, (1 - 2 * self._parity[position][source].astype(np.int8)) * live)

    def _term(self, first, second) -> SignedMap:
        """A_first A_second, built once per space; ladders are (position, raising) pairs."""
        key = (first, second)
        if key not in self._terms:
            self._terms[key] = _product(self._ladder(*first), self._ladder(*second))
        return self._terms[key]

    def _ladders(self, raising: bool) -> list:
        """The a_p (a_p^dag if raising) as scipy CSR matrices, built from the occupation and parity tables."""
        return [_csr(self, [(1.0, self._ladder(p, raising))]) for p in range(self.mode_count)]

    @cached_property
    def lowering(self) -> list:
        """The a_p as scipy CSR matrices."""
        return self._ladders(False)

    @cached_property
    def raising(self) -> list:
        """The a_p^dag as scipy CSR matrices."""
        return self._ladders(True)

    def verify_anticommutators(self):
        """Check {a_i, a_j} = 0 and {a_i, a_j^dag} = delta_ij I exactly.

        The ladders are rebuilt from the tables, not read from ``lowering``
        and ``raising``, so a table corrupted after those are cached is still
        caught.  Their entries are +-1, so every sum is exact.
        """
        lowering, raising = self._ladders(False), self._ladders(True)
        identity = sparse.identity(self.dim, format="csr")
        for i, a_i in enumerate(lowering):
            for j in range(i, self.mode_count):
                if (a_i @ lowering[j] + lowering[j] @ a_i).count_nonzero():
                    raise RuntimeError(f"{{a_{i}, a_{j}}} != 0")
                anti = a_i @ raising[j] + raising[j] @ a_i
                if (anti - identity if i == j else anti).count_nonzero():
                    raise RuntimeError(f"{{a_{i}, a_{j}^dag}} != delta_{{{i}{j}}} I")

    def annihilator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        return self.lowering[self.position(field, spin, momentum)]

    def creator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        return self.raising[self.position(field, spin, momentum)]

    def number_operator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        position = self.position(field, spin, momentum)
        return sparse.diags(self._occupied[position].astype(float), format="csr")

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def particle_numbers(self) -> np.ndarray:
        """Total occupation of every basis state (index = basis state)."""
        return self._occupied.sum(axis=0)


# ---------------------------------------------------------------------------
# pair operators


def _product(a: SignedMap, b: SignedMap) -> SignedMap:
    """A B: row s of A reads row a.source[s] of B, one gather."""
    return SignedMap(b.source[a.source], a.sign * b.sign[a.source])


def _coo(space: FockSpace, weighted_maps):
    """(rows, cols, values) of sum_j w_j A_j over (w_j, signed map A_j) pairs."""
    parts = [
        (space._states[live], m.source[live], weight * m.sign[live])
        for weight, m in weighted_maps
        for live in [m.sign != 0]
    ]
    if not parts:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0, dtype=complex)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _csr(space: FockSpace, weighted_maps) -> sparse.csr_matrix:
    rows, cols, values = _coo(space, weighted_maps)
    return sparse.csr_matrix((values, (rows, cols)), shape=(space.dim, space.dim))


def _quadratic(space: FockSpace, terms) -> sparse.csr_matrix:
    """sum_j w_j A_j B_j over (w_j, A_j, B_j) ladder terms as CSR, assembled in one COO pass."""
    return _csr(space, [(complex(weight), space._term(first, second)) for weight, first, second in terms])


def _number_diagonal(space: FockSpace, terms) -> np.ndarray:
    """Diagonal of sum_j w_j n_j over (w_j, position_j) terms."""
    return sum((weight * space._occupied[position] for weight, position in terms), np.zeros(space.dim))


def gamma_ab(space: FockSpace, alpha: str, beta: str, pairing, weights) -> sparse.csr_matrix:
    """gamma = sum_j w_j phi_alpha(minus_j) psi_beta(plus_j) from an explicit pairing.

    ``pairing`` is a sequence of (minus_momentum, plus_momentum) labels; the
    caller owns the lattice convention behind it.
    """
    return _quadratic(space, _gamma_terms(space, alpha, beta, pairing, weights))


def gamma_for_profile(space: FockSpace, alpha: str, beta: str, profile: LatticeProfile) -> sparse.csr_matrix:
    """gamma_{alpha,beta}(k) with momenta resolved as k/2 -+ q on the lattice."""
    return gamma_ab(space, alpha, beta, *_profile_pairing(profile))


def _gamma_diagonal(space: FockSpace, profile: LatticeProfile, field, spin, branch) -> np.ndarray:
    """Diagonal of Gamma^branch = sum_q |f(q)|^2 n_{field,spin}(k/2 + branch*q)."""
    return _number_diagonal(space, [(g, i) for i, g in _occupations(space, profile, field, spin, branch).items()])


# ---------------------------------------------------------------------------
# Schwartz bound


SchwartzSweep = namedtuple("SchwartzSweep", "cases states worst_margin holds")
SchwartzSweep.__doc__ = "Exhaustive basis-state sweep of the hopping-operator bound; worst_margin is the min over everything of rhs - lhs."


def schwartz_exhaustive(space: FockSpace, profiles) -> SchwartzSweep:
    """Check the bound on every basis state for every label combination.

    Basis-state expectations only see operator diagonals, so each case is a
    vectorized comparison across all 2^M states.  Each Gamma diagonal is
    built once per (profile, field, spin, branch).
    """
    profiles = list(profiles)
    worst = math.inf
    cases = 0
    for field, branch in itertools.product(FIELDS, (+1, -1)):
        gammas = {(p, spin): _gamma_diagonal(space, p, field, spin, branch) for p in profiles for spin in SPINS}
        for p_in, p_dag, spin_in, spin_dag in itertools.product(profiles, profiles, SPINS, SPINS):
            terms = _hopping_terms(space, branch, field, spin_dag, spin_in, p_dag, p_in)
            lhs = np.abs(_quadratic(space, terms).diagonal())
            rhs = np.sqrt(gammas[p_in, spin_in] * gammas[p_dag, spin_dag])
            worst = min(worst, float(np.min(rhs - lhs)))
            cases += 1
    return SchwartzSweep(cases=cases, states=space.dim, worst_margin=worst, holds=worst >= -1e-10)


# ---------------------------------------------------------------------------
# composite bosons


def composite_boson(space: FockSpace, pairs, weights) -> sparse.csr_matrix:
    """c = sum_i f(i) psi_i phi_i over explicit (psi mode, phi mode) pairs."""
    return _quadratic(space, _composite_terms(space, pairs, weights))


def _pair_number_diagonals(space: FockSpace, pairs, weights):
    squares = [abs(w) ** 2 for w in np.asarray(weights, dtype=complex)]
    positions = [_pair_positions(space, pair) for pair in pairs]
    g_psi = _number_diagonal(space, [(w2, psi) for (psi, _), w2 in zip(positions, squares)])
    g_phi = _number_diagonal(space, [(w2, phi) for (_, phi), w2 in zip(positions, squares)])
    return g_psi, g_phi


def pair_condensate(space: FockSpace, c_matrix, n: int) -> np.ndarray:
    """Normalized |N> proportional to (c^dag)^N |0>.

    The normalization is computed numerically from the vector norm.  Raises
    SaturationError when (c^dag)^N |0> vanishes identically (Pauli
    blocking); the vanishing is exact, not a tolerance call.
    """
    cd = _dagger(c_matrix)
    v = space.vacuum()
    for _ in range(n):
        v = cd @ v
    return _unit(v, n)


def _unit(v: np.ndarray, n: int) -> np.ndarray:
    """(c^dag)^n |0> normalized; SaturationError when it vanishes."""
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise SaturationError(f"(c^dag)^{n} |0> = 0: more pairs than modes")
    return v / norm


def _dagger(matrix) -> sparse.csr_matrix:
    return matrix.conj().T.tocsr()


def _max_abs(matrix) -> float:
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    return float(np.max(np.abs(matrix.data))) if matrix.nnz else 0.0


CompositeBosonReport = namedtuple(
    "CompositeBosonReport",
    "purity commutator_identity_deviation sandwich_rows saturation_order cross_rows cross_identity_deviation",
)
CompositeBosonReport.__doc__ = """The composite-boson relations in the Fock space.

``sandwich_rows`` holds (N, <Gamma_psi>, P, N*P, holds) and ``cross_rows``
(N, |<[c1, c2dag]>|, 2*N*Pmax, holds), empty without a second profile.
"""


def composite_boson_suite(space: FockSpace, pairs, weights, n_max: int, second_weights=None) -> CompositeBosonReport:
    """Brute-force verification of the composite-boson relations.

    Checks, entry by entry in the Fock space, [c, c^dag] = I - (Gamma_psi +
    Gamma_phi); for each N = 1..n_max the sandwich P <= <N|Gamma_psi|N> <= N P
    on the Fock-space chain (c^dag)^N |0>; the exact Pauli saturation order;
    and, given a second orthogonal weight vector, the cross-commutator
    identity and |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2)
    on the same chain.  Pairs that share a mode raise ValueError;
    SaturationError if n_max exceeds the constructible N.
    """
    _disjoint_positions(space, pairs)  # refuses pairs that share a mode before anything is built
    weights = np.asarray(weights, dtype=complex)
    c1 = composite_boson(space, pairs, weights)
    c1d = _dagger(c1)
    g_psi, g_phi = _pair_number_diagonals(space, pairs, weights)
    # [c, c^dag] - (I - Gamma_psi - Gamma_phi)
    comm_dev = _max_abs(c1 @ c1d - c1d @ c1 - sparse.diags(1.0 - g_psi - g_phi))
    p1 = purity(weights)

    # one chain (c^dag)^N |0> serves the sandwich and the saturation
    saturation_order = int(np.sum(np.abs(weights) > 0.0)) + 1
    states = []
    v = space.vacuum()
    for n in range(1, max(n_max, saturation_order) + 1):
        v = c1d @ v
        if n <= n_max:
            states.append(_unit(v, n))
    if float(np.linalg.norm(v)) != 0.0:
        raise RuntimeError("expected exact Pauli blocking above the pair count")

    rows = []
    for n, state in enumerate(states, start=1):
        expect = float(np.vdot(state, g_psi * state).real)
        holds = (p1 - 1e-12) <= expect <= (n * p1 + 1e-12)
        rows.append((n, expect, p1, n * p1, holds))

    cross_rows = []
    cross_dev = 0.0
    if second_weights is not None:
        w2 = np.asarray(second_weights, dtype=complex)
        p_max = max(p1, purity(w2))
        c2d = _dagger(composite_boson(space, pairs, w2))
        commutator = c1 @ c2d - c2d @ c1
        for n, u in enumerate(states, start=1):
            value = abs(np.vdot(u, commutator @ u))
            cross_rows.append((n, float(value), 2.0 * n * p_max, value <= 2.0 * n * p_max + 1e-12))
        # [c1, c2^dag] = overlap*I - sum_i f1(i) conj(f2(i)) (n_psi_i + n_phi_i)
        coeffs = weights * np.conj(w2)
        terms = [(c, p) for pair, c in zip(pairs, coeffs) if c != 0.0 for p in _pair_positions(space, pair)]
        cross_dev = _max_abs(commutator - sparse.diags(complex(np.sum(coeffs)) - _number_diagonal(space, terms)))

    return CompositeBosonReport(
        purity=p1,
        commutator_identity_deviation=comm_dev,
        sandwich_rows=tuple(rows),
        saturation_order=saturation_order,
        cross_rows=tuple(cross_rows),
        cross_identity_deviation=cross_dev,
    )
