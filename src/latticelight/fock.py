"""The Jordan-Wigner Fock space over up to 3 momenta: the oracle of ``onebody``.

``onebody`` computes every fock-suite check without a Fock basis, from the
mode table and the ladder terms of the pair operators, hopping operators,
polarization modes and composite bosons.  Here the same terms act on the
2^(4M) basis states, with Jordan-Wigner signs fixed by the mode order (field,
then spin, then momentum), and the identities and bounds are verified by
brute force.  Acceptance criteria 7 to 9 and the tests use it.

Everything is exact and needs numpy alone.  A product of ladder operators
has at most one entry per row over the basis states, so it is a signed map:
row s reads column ``source[s]`` with sign +-1, or 0 where the product
annihilates it.  The checks work on weighted sums of such maps: an operator
product composes maps by gathers, one per term against a whole stack of
terms; an operator identity is compared entry by entry after equal (row,
column) entries are merged by one sort.  The builders that return matrices
(gamma_ab, composite_boson, ...) turn the same maps into scipy CSR, and
import scipy only when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .onebody import (  # noqa: F401  (the names tests and criteria import from here)
    FIELDS,
    SPINS,
    LatticeProfile,
    ModeTable,
    SaturationError,
    UnresolvedMomentumError,
    _assembly_terms,
    _composite_terms,
    _disjoint_positions,
    _gamma_terms,
    _hopping_terms,
    _occupations,
    _pair_positions,
    _profile_pairing,
    available_profiles,
    default_pairs,
    purity,
    uniform_profile,
)

if TYPE_CHECKING:
    from scipy import sparse

MAX_MOMENTA = 3  # the dimension is at most 2**12


class FockSizeError(ValueError):
    """Requested momentum set exceeds the supported space size."""


class SignedMap(NamedTuple):
    """An operator with at most one entry per row: row s holds sign[s] in column source[s].

    So (A v)[s] = sign[s] * v[source[s]].  For ladder products ``source`` is
    the basis with the ladders' bits flipped (a permutation) and ``sign`` is
    +-1 where the product survives, 0 where it annihilates.  Both arrays may
    carry leading axes, which stack maps.
    """

    source: np.ndarray
    sign: np.ndarray


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

    @cached_property
    def lowering(self) -> list:
        """The a_p as scipy CSR matrices."""
        return [_csr(self, [(1.0, self._ladder(p, False))]) for p in range(self.mode_count)]

    @cached_property
    def raising(self) -> list:
        """The a_p^dag as scipy CSR matrices."""
        return [_csr(self, [(1.0, self._ladder(p, True))]) for p in range(self.mode_count)]

    def verify_anticommutators(self):
        """Check {a_i, a_j} = 0 and {a_i, a_j^dag} = delta_ij I exactly.

        Both orders of a product must read the same column in every row (the
        basis state's own, for the identity), so the anticommutator is one
        signed map whose signs must all equal 0 (or 1).
        """
        lowering = [self._ladder(p, False) for p in range(self.mode_count)]
        raising = [self._ladder(p, True) for p in range(self.mode_count)]
        for i, a_i in enumerate(lowering):
            for j in range(i, self.mode_count):
                for partner, target, name in (
                    (lowering[j], 0, f"{{a_{i}, a_{j}}} != 0"),
                    (raising[j], int(i == j), f"{{a_{i}, a_{j}^dag}} != delta_{{{i}{j}}} I"),
                ):
                    ij, ji = _product(a_i, partner), _product(partner, a_i)
                    columns = self._states if target else ji.source
                    same_columns = np.array_equal(ij.source, columns) and np.array_equal(ji.source, columns)
                    if not (same_columns and np.all(ij.sign + ji.sign == target)):
                        raise RuntimeError(name)

    def annihilator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        return self.lowering[self.position(field, spin, momentum)]

    def creator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        return self.raising[self.position(field, spin, momentum)]

    def number_operator(self, field: str, spin: str, momentum) -> sparse.csr_matrix:
        from scipy import sparse

        position = self.position(field, spin, momentum)
        return sparse.diags(self._occupied[position].astype(float), format="csr")

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def particle_numbers(self) -> np.ndarray:
        """Total occupation of every basis state (index = basis state)."""
        return self._occupied.sum(axis=0)


def build_fock(momenta) -> FockSpace:
    """Fock space over 4 * len(momenta) modes with build-time verification."""
    return FockSpace(momenta)


# ---------------------------------------------------------------------------
# signed maps: products, adjoints, sums


def _product(a: SignedMap, b: SignedMap) -> SignedMap:
    """A B: row s of A reads row a.source[s] of B, one gather.

    Stacked maps compose every pair at once; the result's stack axes are
    b's, then a's.
    """
    return SignedMap(b.source[..., a.source], a.sign * b.sign[..., a.source])


def _adjoint(space: FockSpace, m: SignedMap) -> SignedMap:
    """A^dag (signs are real): row source[s] reads column s, one scatter."""
    source, sign = np.empty_like(m.source), np.empty_like(m.sign)
    np.put_along_axis(source, m.source, np.broadcast_to(space._states, m.source.shape), axis=-1)
    np.put_along_axis(sign, m.source, m.sign, axis=-1)
    return SignedMap(source, sign)


def _stacked(space: FockSpace, terms):
    """Weights (n,) and the stacked (n, dim) maps of (w_j, A_j, B_j) ladder terms."""
    maps = [space._term(first, second) for _, first, second in terms]
    source = np.array([m.source for m in maps], dtype=np.int32).reshape(len(maps), space.dim)
    sign = np.array([m.sign for m in maps], dtype=np.int8).reshape(len(maps), space.dim)
    return np.array([w for w, _, _ in terms], dtype=complex), SignedMap(source, sign)


class _Operator(NamedTuple):
    """sum_j weights[j] A_j over stacked signed maps A_j, their adjoints kept alongside."""

    weights: np.ndarray
    maps: SignedMap
    adjoints: SignedMap

    def dagger(self) -> "_Operator":
        return _Operator(np.conj(self.weights), self.adjoints, self.maps)


def _operator(space: FockSpace, terms) -> _Operator:
    weights, maps = _stacked(space, terms)
    return _Operator(weights, maps, _adjoint(space, maps))


def _apply(weights, maps: SignedMap, v: np.ndarray) -> np.ndarray:
    """sum_j w_j A_j v over stacked maps: one gather, contracted with each row of weights."""
    # einsum rather than matmul keeps BLAS, and its buffers, out of it
    return np.einsum("...i,ij->...j", weights, maps.sign * v[maps.source])


def _entries(dim: int, labels, weights, rows, m: SignedMap, transpose: bool = False):
    """Keys label*dim^2 + row*dim + column, and values, of the nonzero entries of stacked map rows.

    ``labels`` and ``weights`` broadcast against m's stack axes; ``rows`` is
    the basis row of each position along its last axis, and ``transpose``
    swaps rows and columns.  The signs may be any coefficients (those of a
    diagonal, say).
    """
    live = np.flatnonzero(m.sign)
    stack, at = np.divmod(live, m.sign.shape[-1])
    label, weight = (np.broadcast_to(x, m.sign.shape[:-1]).ravel()[stack] for x in (labels, weights))
    row, column = rows[at], m.source.ravel()[live]
    if transpose:
        row, column = column, row
    return (label.astype(np.int64) * dim + row) * dim + column, weight * m.sign.ravel()[live]


def _commutator(dim: int, a: _Operator, b: _Operator, labels) -> list:
    """Entries of [A, B], labelled per term of B.

    For each term A_i, A_i B and B A_i = (A_i^dag B^dag)^dag are one gather
    each over B's stack, on only the rows where A_i (or A_i^dag) survives.
    """
    entries = []
    for w, map_i, adjoint_i in zip(a.weights, zip(*a.maps), zip(*a.adjoints)):
        for (source, sign), right, weights, transpose in (
            (map_i, b.maps, w * b.weights, False),
            (adjoint_i, b.adjoints, -w * b.weights, True),
        ):
            rows = np.flatnonzero(sign)
            product = _product(SignedMap(source[rows], sign[rows]), right)
            entries.append(_entries(dim, labels, weights, rows, product, transpose))
    return entries


def _max_entry(entries: list) -> float:
    """Largest |entry| of a sum of (keys, values) entries, equal keys summed.

    One sort brings equal keys together; np.add.reduceat sums them.  The
    list is emptied once its parts are joined, so they are freed before the
    sort.
    """
    if not entries:
        return 0.0
    keys, values = (np.concatenate(part) for part in zip(*entries))
    entries.clear()
    if not keys.size:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return float(np.max(np.abs(np.add.reduceat(values, starts))))


def _diagonal(space: FockSpace, terms) -> np.ndarray:
    """Diagonal of sum_j w_j A_j B_j: the rows whose map reads their own column."""
    weights, maps = _stacked(space, terms)
    return np.einsum("i,ij->j", weights, np.where(maps.source == space._states, maps.sign, 0))


# ---------------------------------------------------------------------------
# pair operators


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
    from scipy import sparse

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
    return _occupations(space, profile, field, spin, branch) @ space._occupied


@dataclass(frozen=True)
class CommutatorReport:
    """Direct [gamma, gamma'^dag] against its identity-minus-hopping assembly."""

    direct: sparse.csr_matrix
    identity_coefficient: complex
    delta_part: sparse.csr_matrix
    max_abs_difference: float


def commutator_report(space: FockSpace, spec1, spec2) -> CommutatorReport:
    """Compare [gamma_1(k), gamma_2(k')^dag] with its assembled decomposition.

    Each spec is (alpha, beta, profile).  The assembly is
    overlap * delta_spin * I - (delta_{alpha,alpha'} H^+_psi +
    delta_{beta,beta'} H^-_phi); the overlap reduces to 1 for identical
    normalized profiles and to 0 for k != k'.
    """
    from scipy import sparse

    g1 = gamma_for_profile(space, *spec1)
    g2d = gamma_for_profile(space, *spec2).conj().T.tocsr()
    direct = (g1 @ g2d - g2d @ g1).tocsr()

    coefficient, terms = _assembly_terms(space, spec1, spec2)
    delta_part = _quadratic(space, terms)
    assembled = (coefficient * sparse.identity(space.dim, dtype=complex, format="csr") - delta_part).tocsr()

    return CommutatorReport(
        direct=direct,
        identity_coefficient=coefficient,
        delta_part=delta_part,
        max_abs_difference=_max_abs(direct - assembled),
    )


# ---------------------------------------------------------------------------
# Schwartz bound


@dataclass(frozen=True)
class SchwartzSweep:
    """Exhaustive basis-state sweep of the hopping-operator bound."""

    cases: int
    states: int
    worst_margin: float  # min over everything of rhs - lhs
    holds: bool


def schwartz_exhaustive(space: FockSpace, profiles) -> SchwartzSweep:
    """Check the bound on every basis state for every label combination.

    Basis-state expectations only see operator diagonals, so each case is a
    vectorized comparison across all 2^M states.  Each Gamma diagonal is
    built once per (profile, field, spin, branch).
    """
    profiles = list(profiles)
    worst = math.inf
    cases = 0
    for field in FIELDS:
        for branch in (+1, -1):
            gammas = {
                (i, spin): _gamma_diagonal(space, prof, field, spin, branch)
                for i, prof in enumerate(profiles)
                for spin in SPINS
            }
            for i_in, prof_in in enumerate(profiles):
                for i_dag, prof_dag in enumerate(profiles):
                    for spin_in in SPINS:
                        for spin_dag in SPINS:
                            terms = _hopping_terms(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)
                            g_in, g_dag = gammas[i_in, spin_in], gammas[i_dag, spin_dag]
                            lhs = np.abs(_diagonal(space, terms))
                            rhs = np.sqrt(g_in * g_dag)
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
    cd = c_matrix.conj().T.tocsr()
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


def _max_abs(matrix) -> float:
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    return float(np.max(np.abs(matrix.data))) if matrix.nnz else 0.0


@dataclass(frozen=True)
class CompositeBosonReport:
    purity: float
    commutator_identity_deviation: float
    sandwich_rows: tuple  # (N, <Gamma_psi>, P, N*P, holds)
    saturation_order: int
    cross_rows: tuple  # (N, |<[c1, c2dag]>|, 2*N*Pmax, holds), empty without a second profile
    cross_identity_deviation: float


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
    c1 = _operator(space, _composite_terms(space, pairs, weights))
    c1d = c1.dagger()
    labels = np.zeros(len(c1.weights), dtype=np.int64)
    g_psi, g_phi = _pair_number_diagonals(space, pairs, weights)
    # [c, c^dag] - (I - Gamma_psi - Gamma_phi)
    target = _entries(space.dim, 0, 1.0, space._states, SignedMap(space._states, g_psi + g_phi - 1.0))
    comm_dev = _max_entry(_commutator(space.dim, c1, c1d, labels) + [target])
    p1 = purity(weights)

    # one chain (c^dag)^N |0> serves the sandwich and the saturation
    saturation_order = int(np.sum(np.abs(weights) > 0.0)) + 1
    states = []
    v = space.vacuum()
    for n in range(1, max(n_max, saturation_order) + 1):
        v = _apply(c1d.weights, c1d.maps, v)
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
        c2 = _operator(space, _composite_terms(space, pairs, w2))
        c2d = c2.dagger()
        for n, u in enumerate(states, start=1):
            # <u|[c1, c2^dag]|u> = <c1^dag u|c2^dag u> - <c2 u|c1 u>
            c1d_u, c2d_u, c1_u, c2_u = (_apply(c.weights, c.maps, u) for c in (c1d, c2d, c1, c2))
            value = abs(np.vdot(c1d_u, c2d_u) - np.vdot(c2_u, c1_u))
            cross_rows.append((n, float(value), 2.0 * n * p_max, value <= 2.0 * n * p_max + 1e-12))
        # [c1, c2^dag] = overlap*I - sum_i f1(i) conj(f2(i)) (n_psi_i + n_phi_i)
        coeffs = weights * np.conj(w2)
        terms = [(c, p) for pair, c in zip(pairs, coeffs) if c != 0.0 for p in _pair_positions(space, pair)]
        diagonal = _number_diagonal(space, terms) - complex(np.sum(coeffs))
        target = _entries(space.dim, 0, 1.0, space._states, SignedMap(space._states, diagonal))
        labels = np.zeros(len(c2.weights), dtype=np.int64)
        cross_dev = _max_entry(_commutator(space.dim, c1, c2d, labels) + [target])

    return CompositeBosonReport(
        purity=p1,
        commutator_identity_deviation=comm_dev,
        sandwich_rows=tuple(rows),
        saturation_order=saturation_order,
        cross_rows=tuple(cross_rows),
        cross_identity_deviation=cross_dev,
    )
