"""Exact Fermionic Fock space over a small discrete momentum set.

The mode set is (field psi/phi) x (spin R/L) x (momentum label); lowering
operators follow Jordan-Wigner with signs fixed by the global ordering
field, then spin, then momentum.  On top of the raw algebra this module
builds the pair operators

    gamma_{alpha,beta}(k) = sum_q f_k(q) phi_alpha(k/2 - q) psi_beta(k/2 + q),

their polarization contractions, and generic composite bosons
c = sum_i f(i) psi_i phi_i, and verifies commutation relations, Schwartz
bounds and composite-boson claims by brute force.

Momentum labels are integers; the k/2 +- q arithmetic presumes an even
total k.  The algebra only sees the resulting index pairing, so any lattice
convention can be supplied through explicit pairings as well.

Everything is exact and needs numpy alone.  A product of ladder operators
has at most one entry per row over the basis states, so it is a signed map:
row s reads column ``source[s]`` with sign +-1, or 0 where the product
annihilates it.  The checks work on weighted sums of such maps: an operator
product composes maps by gathers, one per term against a whole stack of
terms; an operator identity is compared entry by entry after equal (row,
column) entries are merged by one sort.  The
public builders that return matrices (gamma_ab, h_operator,
composite_boson, ...) turn the same maps into scipy CSR, and import scipy
only when called.

The composite-boson states (c^dag)^N |0>, c = sum_i f(i) b_i over disjoint
pairs b_i = psi_i phi_i, lie in the span of the 2^P pair-occupation states
prod_{i in S} b_i^dag |0> (the Schmidt-pair picture of Law, PRA 71, 034306
(2005)).  Each b_i is even, so the b_i commute with each other and square to
zero, and b_i b_i^dag = 1 on states where both of the pair's modes are empty:
that span is invariant under every b_i and b_i^dag, its basis is orthonormal,
and it carries no Jordan-Wigner sign.  cross_commutator_values works on that
P-bit register (pair_stack); composite_boson_suite still checks the operator
identities behind it, entry by entry, in the full Fock space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .walk import PAULI
from .bilinear import PolarizationFrame

if TYPE_CHECKING:
    from scipy import sparse

FIELDS = ("psi", "phi")
SPINS = ("R", "L")

MAX_MOMENTA = 5  # keeps the dimension at or below 2**20


class FockSizeError(ValueError):
    """Requested momentum set exceeds the supported space size."""


class UnresolvedMomentumError(KeyError):
    """A k/2 +- q combination with nonzero weight falls outside the momentum set."""


class SaturationError(RuntimeError):
    """(c^dag)^N annihilates the vacuum: Pauli blocking reached."""


class Mode(NamedTuple):
    field: str
    spin: str
    momentum: int


class SignedMap(NamedTuple):
    """An operator with at most one entry per row: row s holds sign[s] in column source[s].

    So (A v)[s] = sign[s] * v[source[s]].  For ladder products ``source`` is
    the basis with the ladders' bits flipped (a permutation) and ``sign`` is
    +-1 where the product survives, 0 where it annihilates.  Both arrays may
    carry leading axes, which stack maps.
    """

    source: np.ndarray
    sign: np.ndarray


class FockSpace:
    """Fock space with Jordan-Wigner ladder operators for every mode.

    All anticommutation relations are verified exactly at build time.
    Signed maps of ladder products are built once, on first use; the CSR
    matrices ``lowering`` and ``raising`` are built when first read.
    """

    def __init__(self, momenta):
        momenta = tuple(momenta)
        if not 1 <= len(momenta) <= MAX_MOMENTA:
            raise FockSizeError(f"need 1..{MAX_MOMENTA} momenta, got {len(momenta)}")
        if len(set(momenta)) != len(momenta):
            raise ValueError("momentum labels must be distinct")
        self.momenta = momenta
        self.modes = tuple(
            Mode(field, spin, p) for field in FIELDS for spin in SPINS for p in momenta
        )
        self._positions = {mode: i for i, mode in enumerate(self.modes)}
        self.mode_count = len(self.modes)
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

    def position(self, field: str, spin: str, momentum) -> int:
        try:
            return self._positions[Mode(field, spin, momentum)]
        except KeyError:
            if field not in FIELDS or spin not in SPINS:
                raise ValueError(f"unknown mode label ({field!r}, {spin!r})") from None
            raise UnresolvedMomentumError(
                f"momentum {momentum!r} not in space {self.momenta}"
            ) from None

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
# profiles on an integer momentum lattice


@dataclass(frozen=True)
class LatticeProfile:
    """Discrete normalized profile f_k(q) for an even total pair momentum k."""

    total: int
    weights: tuple  # ((q, weight), ...) sorted by q

    def __post_init__(self):
        if self.total % 2 != 0:
            raise ValueError("total pair momentum must be even (k/2 integral)")
        items = tuple(sorted((int(q), complex(w)) for q, w in self.weights))
        if len({q for q, _ in items}) != len(items):
            raise ValueError("duplicate q in profile")
        if not all(math.isfinite(w.real) and math.isfinite(w.imag) for _, w in items):
            raise ValueError(f"profile weights must be finite, got {[w for _, w in items]!r}")
        norm = sum(abs(w) ** 2 for _, w in items)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"profile not normalized: sum|f|^2 = {norm!r}")
        object.__setattr__(self, "weights", items)

    @property
    def half(self) -> int:
        return self.total // 2

    def weight(self, q: int) -> complex:
        for qq, w in self.weights:
            if qq == q:
                return w
        return 0.0

    def overlap(self, other: "LatticeProfile") -> complex:
        return sum(w * np.conj(other.weight(q)) for q, w in self.weights)


def uniform_profile(total: int, qs) -> LatticeProfile:
    qs = tuple(qs)
    w = 1.0 / math.sqrt(len(qs))
    return LatticeProfile(total=total, weights=tuple((q, w) for q in qs))


def available_profiles(momenta) -> dict:
    """Uniform profiles for every total momentum the lattice supports.

    k = p1 + p2 over mode pairs with even difference; q = (p2 - p1)/2.
    """
    table: dict = {}
    for p1 in momenta:
        for p2 in momenta:
            if (p2 - p1) % 2 == 0:
                table.setdefault(p1 + p2, set()).add((p2 - p1) // 2)
    return {k: uniform_profile(k, sorted(qs)) for k, qs in sorted(table.items())}


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


def _gamma_terms(space: FockSpace, alpha: str, beta: str, pairing, weights) -> list:
    weights = np.asarray(weights, dtype=complex)
    if len(weights) != len(pairing):
        raise ValueError("pairing and weights must have equal length")
    return [
        (w, (space.position("phi", alpha, minus), False), (space.position("psi", beta, plus), False))
        for (minus, plus), w in zip(pairing, weights)
        if w != 0.0
    ]


def _profile_pairing(profile: LatticeProfile):
    """(k/2 - q, k/2 + q) momentum pairs and the weights f_k(q) of a profile."""
    pairing = [(profile.half - q, profile.half + q) for q, _ in profile.weights]
    return pairing, [w for _, w in profile.weights]


def gamma_ab(space: FockSpace, alpha: str, beta: str, pairing, weights) -> sparse.csr_matrix:
    """gamma = sum_j w_j phi_alpha(minus_j) psi_beta(plus_j) from an explicit pairing.

    ``pairing`` is a sequence of (minus_momentum, plus_momentum) labels; the
    caller owns the lattice convention behind it.
    """
    return _quadratic(space, _gamma_terms(space, alpha, beta, pairing, weights))


def gamma_for_profile(space: FockSpace, alpha: str, beta: str, profile: LatticeProfile) -> sparse.csr_matrix:
    """gamma_{alpha,beta}(k) with momenta resolved as k/2 -+ q on the lattice."""
    return gamma_ab(space, alpha, beta, *_profile_pairing(profile))


def _hopping_terms(space, branch, field, spin_dag, spin_in, prof_dag, prof_in) -> list:
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    shift = (prof_dag.total - prof_in.total) // 2
    terms = []
    for q, w_in in prof_in.weights:
        weight = w_in * np.conj(prof_dag.weight(q + branch * shift))
        if weight == 0.0:
            continue
        dag = space.position(field, spin_dag, prof_dag.total - prof_in.half + branch * q)
        inn = space.position(field, spin_in, prof_in.half + branch * q)
        terms.append((weight, (dag, True), (inn, False)))
    return terms


def h_operator(
    space: FockSpace,
    branch: int,
    field: str,
    spin_dag: str,
    spin_in: str,
    prof_dag: LatticeProfile,
    prof_in: LatticeProfile,
) -> sparse.csr_matrix:
    """Hopping operator H^branch appearing in the pair commutator.

    With k = prof_in.total, k' = prof_dag.total, s = (k' - k)/2 and
    branch = +-1:

        H = sum_q f_k(q) conj(f_k'(q + branch*s))
            field^dag_{spin_dag}(k' - k/2 + branch*q) field_{spin_in}(k/2 + branch*q)

    Zero-weight terms are skipped; a nonzero-weight term whose momentum is
    not in the space raises UnresolvedMomentumError.
    """
    return _quadratic(space, _hopping_terms(space, branch, field, spin_dag, spin_in, prof_dag, prof_in))


def _gamma_diagonal(space: FockSpace, profile: LatticeProfile, field, spin, branch) -> np.ndarray:
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    return _number_diagonal(
        space,
        [(abs(w) ** 2, space.position(field, spin, profile.half + branch * q)) for q, w in profile.weights],
    )


@dataclass(frozen=True)
class CommutatorReport:
    """Direct [gamma, gamma'^dag] against its identity-minus-hopping assembly."""

    direct: sparse.csr_matrix
    identity_coefficient: complex
    delta_part: sparse.csr_matrix
    max_abs_difference: float


def _assembly_terms(space: FockSpace, spec1, spec2):
    """Identity coefficient and hopping terms of the assembly of [gamma_1, gamma_2^dag]."""
    alpha1, beta1, prof1 = spec1
    alpha2, beta2, prof2 = spec2
    if alpha1 == alpha2 and beta1 == beta2 and prof1.total == prof2.total:
        coefficient = complex(prof1.overlap(prof2))
    else:
        coefficient = 0.0
    terms = []
    if alpha1 == alpha2:
        terms += _hopping_terms(space, +1, "psi", beta2, beta1, prof2, prof1)
    if beta1 == beta2:
        terms += _hopping_terms(space, -1, "phi", alpha2, alpha1, prof2, prof1)
    return coefficient, terms


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


@dataclass(frozen=True)
class PairSweep:
    """Worst deviations over every ordered pair of gamma labels."""

    label_pairs: int  # ordered pairs compared
    max_assembly_deviation: float  # of [gamma_1, gamma_2^dag] from its assembly
    max_gamma_gamma: float  # of [gamma_1, gamma_2] from 0


def pair_commutator_sweep(space: FockSpace, specs) -> PairSweep:
    """commutator_report and [gamma_1, gamma_2] = 0 over all ordered pairs of ``specs``.

    The terms of every gamma, and their adjoints, are stacked once, labelled
    by their gamma.  For one gamma_1 each product with all second gammas is
    one gather per term of gamma_1; every entry of [g1, g2^dag] - (c I - H)
    and of [g1, g2] is summed over equal (second label, row, column) and the
    largest |entry| kept.
    """
    specs = list(specs)
    terms = [_gamma_terms(space, alpha, beta, *_profile_pairing(prof)) for alpha, beta, prof in specs]
    labels = np.repeat(np.arange(len(specs)), [len(t) for t in terms])
    gammas = _operator(space, [term for t in terms for term in t])
    adjoints = gammas.dagger()
    worst_assembly = worst_plain = 0.0
    compared = 0
    for spec1, terms1 in zip(specs, terms):
        g1 = _operator(space, terms1)
        # the assembly c I - H of every second label, negated
        targets = [_assembly_terms(space, spec1, spec2) for spec2 in specs]
        hopping = [(j, term) for j, (_, hop) in enumerate(targets) for term in hop]
        hop_weights, hop_maps = _stacked(space, [term for _, term in hopping])
        identities = [(j, c) for j, (c, _) in enumerate(targets) if c != 0.0]
        coefficients = np.array([c for _, c in identities], dtype=complex)
        diagonal = np.tile(space._states, (len(identities), 1))
        identity = SignedMap(diagonal, np.ones(diagonal.shape, dtype=np.int8))
        assembly = [
            *_commutator(space.dim, g1, adjoints, labels),
            _entries(space.dim, np.array([j for j, _ in hopping]), hop_weights, space._states, hop_maps),
            _entries(space.dim, np.array([j for j, _ in identities]), -coefficients, space._states, identity),
        ]
        worst_assembly = max(worst_assembly, _max_entry(assembly))
        worst_plain = max(worst_plain, _max_entry(_commutator(space.dim, g1, gammas, labels)))
        compared += len(specs)
    return PairSweep(
        label_pairs=compared,
        max_assembly_deviation=worst_assembly,
        max_gamma_gamma=worst_plain,
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
# polarization operators


def polarization_matrices(frame: PolarizationFrame) -> list:
    """Spin contraction matrices for the four polarization modes.

    Index 0 is timelike (identity), 1 and 2 transverse (u1, u2), 3
    longitudinal (the axis e).  Each matrix carries a 1/sqrt(2) so that the
    resulting pair mode is unit-normalized on the vacuum.
    """
    vectors = [None, frame.u1, frame.u2, frame.e]
    mats = [PAULI[0]]
    for v in vectors[1:]:
        mats.append(v[0] * PAULI[1] + v[1] * PAULI[2] + v[2] * PAULI[3])
    return [m / math.sqrt(2.0) for m in mats]


def _polarization_terms(space: FockSpace, profile: LatticeProfile, mat) -> list:
    pairing, weights = _profile_pairing(profile)
    return [
        (mat[ia, ib] * w, first, second)
        for ia, alpha in enumerate(SPINS)
        for ib, beta in enumerate(SPINS)
        if mat[ia, ib] != 0.0
        for w, first, second in _gamma_terms(space, alpha, beta, pairing, weights)
    ]


def polarization_gamma(
    space: FockSpace, profile: LatticeProfile, frame: PolarizationFrame, index: int
) -> sparse.csr_matrix:
    """gamma^i(k) = sum_{alpha,beta} M^i_{alpha,beta} gamma_{alpha,beta}(k)."""
    return _quadratic(space, _polarization_terms(space, profile, polarization_matrices(frame)[index]))


_DEFAULT_FRAME = PolarizationFrame(
    e=np.array([0.0, 0.0, 1.0]), u1=np.array([1.0, 0.0, 0.0]), u2=np.array([0.0, 1.0, 0.0])
)


@dataclass(frozen=True)
class PolarizationReport:
    """Deviation of [gamma^i(k), gamma^j(k')^dag] from delta_ij delta_kk'."""

    cases: int
    states_checked: int
    deviation_by_particles: dict
    max_deviation: float
    vacuum_deviation: float


def _polarization_diagonals(space: FockSpace, profiles, frame: PolarizationFrame, rows) -> np.ndarray:
    """<s|[gamma_g, gamma_h^dag]|s> for every pair of polarization gammas g, h and basis state s in ``rows``.

    Every gamma^i(k) is a row of coefficients over the distinct ladder terms
    T_a; the diagonals of T_a T_b^dag - T_b^dag T_a on ``rows`` are
    contracted with those coefficients for every pair at once.
    """
    gammas = [_polarization_terms(space, prof, mat) for prof in profiles for mat in polarization_matrices(frame)]
    column = {key: j for j, key in enumerate(dict.fromkeys((f, s) for t in gammas for _, f, s in t))}
    coefficients = np.zeros((len(gammas), len(column)), dtype=complex)
    for g, terms in enumerate(gammas):
        for w, first, second in terms:
            coefficients[g, column[first, second]] += w
    ladders = _operator(space, [(1.0, *key) for key in column])

    def diagonal(left, right):  # diagonal of L R on the rows; axes (R, L, row)
        product = _product(SignedMap(left.source[:, rows], left.sign[:, rows]), right)
        return np.where(product.source == space._states[rows], product.sign, 0)

    # axes (a, b, row)
    diagonals = diagonal(ladders.maps, ladders.adjoints).transpose(1, 0, 2) - diagonal(ladders.adjoints, ladders.maps)
    partial = np.einsum("ga,abk->gbk", coefficients, diagonals)
    return np.einsum("hb,gbk->ghk", np.conj(coefficients), partial)


def polarization_boson_check(
    space: FockSpace, profiles, frame: PolarizationFrame = _DEFAULT_FRAME
) -> PolarizationReport:
    """Evaluate the four-mode Bose commutators on all low-occupancy basis states.

    Expectations are taken on the vacuum and on every basis state with total
    particle number <= 2; deviations are grouped by particle
    number (they grow with occupancy, vanishing exactly on the vacuum).
    """
    numbers = space.particle_numbers()
    kept = np.flatnonzero(numbers <= 2)
    kept_numbers = numbers[kept]
    values = _polarization_diagonals(space, list(profiles), frame, kept)
    deviation = np.abs(values - np.eye(len(values))[..., None]).max(axis=(0, 1), initial=0.0)
    by_particles = {int(n): float(np.max(deviation[kept_numbers == n])) for n in sorted(set(kept_numbers.tolist()))}
    return PolarizationReport(
        cases=len(values) ** 2,
        states_checked=len(kept),
        deviation_by_particles=by_particles,
        max_deviation=max(by_particles.values()),
        vacuum_deviation=by_particles.get(0, 0.0),
    )


# ---------------------------------------------------------------------------
# composite bosons


def default_pairs(space: FockSpace) -> tuple:
    """One (psi, phi) mode pair per (spin, momentum), in deterministic order."""
    return tuple(
        ((spin, p), (spin, p)) for spin in SPINS for p in space.momenta
    )


def _pair_positions(space: FockSpace, pair) -> tuple:
    (psi_spin, psi_p), (phi_spin, phi_p) = pair
    return space.position("psi", psi_spin, psi_p), space.position("phi", phi_spin, phi_p)


def _composite_terms(space: FockSpace, pairs, weights) -> list:
    weights = np.asarray(weights, dtype=complex)
    if len(weights) != len(pairs):
        raise ValueError("pairs and weights must have equal length")
    resolved = [(_pair_positions(space, pair), w) for pair, w in zip(pairs, weights) if w != 0.0]
    return [(w, (psi, False), (phi, False)) for (psi, phi), w in resolved]


def composite_boson(space: FockSpace, pairs, weights) -> sparse.csr_matrix:
    """c = sum_i f(i) psi_i phi_i over explicit (psi mode, phi mode) pairs."""
    return _quadratic(space, _composite_terms(space, pairs, weights))


def _disjoint_positions(space: FockSpace, pairs) -> list:
    """The (psi, phi) positions of every pair; ValueError naming a mode that two pairs share."""
    positions = [_pair_positions(space, pair) for pair in pairs]
    owner = {}
    for i, pair_positions in enumerate(positions):
        for position in pair_positions:
            if position in owner:
                mode = space.modes[position]
                raise ValueError(
                    f"pairs {owner[position]} and {i} share the mode {mode.field}({mode.spin}, {mode.momentum})"
                )
            owner[position] = i
    return positions


class PairStack(NamedTuple):
    """The pair operators b_i = psi_i phi_i as stacked signed maps on the 2^P pair register.

    Register state s stands for prod_{i: bit i of s set} b_i^dag |0>; row i
    of each map holds one pair.
    """

    lowering: SignedMap  # the b_i
    raising: SignedMap  # the b_i^dag


def pair_stack(space: FockSpace, pairs) -> PairStack:
    """The b_i and b_i^dag of P disjoint ``pairs`` over the 2^P register states.

    Row s of b_i^dag reads s with bit i flipped, with sign 1 where bit i of s
    is set and 0 elsewhere; b_i is the same with the bit test reversed.  No
    sign enters because the b_i commute (see the module docstring).  ``space``
    only resolves the pairs; pairs that share a mode raise ValueError.
    """
    count = len(_disjoint_positions(space, pairs))
    states = np.arange(1 << count, dtype=np.int32)
    bits = (1 << np.arange(count, dtype=np.int32))[:, None]
    source = states ^ bits
    occupied = (states & bits != 0).astype(np.int8)
    return PairStack(SignedMap(source, 1 - occupied), SignedMap(source, occupied))


def cross_commutator_values(stack: PairStack, weights, second_weights, n_max: int) -> np.ndarray:
    """|<N|[c1, c2^dag]|N>| for N = 1..n_max, with |N> the normalized (c1^dag)^N |0>.

    ``stack`` comes from pair_stack, so the states are vectors over the pair
    register, whose state 0 is the vacuum.  On a state u,
    c u = sum_i f(i) b_i u and c^dag u = sum_i conj(f(i)) b_i^dag u come from
    one stacked gather per side, contracted with the weights, and
    <u|[c1, c2^dag]|u> = <c1^dag u|c2^dag u> - <c2 u|c1 u>.  No operator
    product is formed.  Raises SaturationError if n_max exceeds the
    constructible N.
    """
    both = np.array([weights, second_weights], dtype=complex)
    vacuum = np.zeros(stack.lowering.source.shape[-1], dtype=complex)
    vacuum[0] = 1.0
    v = _apply(np.conj(both[0]), stack.raising, vacuum)  # c1^dag |0>
    values = np.empty(n_max)
    for n in range(1, n_max + 1):
        u = _unit(v, n)
        v, c2d_u = _apply(np.conj(both), stack.raising, u)  # v = c1^dag u
        c1_u, c2_u = _apply(both, stack.lowering, u)
        values[n - 1] = abs(np.vdot(v, c2d_u) - np.vdot(c2_u, c1_u))
    return values


def _pair_number_diagonals(space: FockSpace, pairs, weights):
    squares = [abs(w) ** 2 for w in np.asarray(weights, dtype=complex)]
    positions = [_pair_positions(space, pair) for pair in pairs]
    g_psi = _number_diagonal(space, [(w2, psi) for (psi, _), w2 in zip(positions, squares)])
    g_phi = _number_diagonal(space, [(w2, phi) for (_, phi), w2 in zip(positions, squares)])
    return g_psi, g_phi


def purity(weights) -> float:
    """P = sum |f(i)|^4, the single-pair reduced-state purity."""
    w = np.asarray(weights, dtype=complex)
    return float(np.sum(np.abs(w) ** 4))


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
    identity (in the Fock space) and |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2)
    (on the pair register, from cross_commutator_values).  Pairs that share
    a mode raise ValueError; SaturationError if n_max exceeds the
    constructible N.
    """
    stack = pair_stack(space, pairs)  # refuses pairs that share a mode before anything else is built
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
        values = cross_commutator_values(stack, weights, w2, n_max)
        for n, value in enumerate(values, start=1):
            bound = 2.0 * n * p_max
            cross_rows.append((n, float(value), bound, value <= bound + 1e-12))
        c2 = _operator(space, _composite_terms(space, pairs, w2))
        # [c1, c2^dag] = overlap*I - sum_i f1(i) conj(f2(i)) (n_psi_i + n_phi_i)
        coeffs = weights * np.conj(w2)
        terms = [(c, p) for pair, c in zip(pairs, coeffs) if c != 0.0 for p in _pair_positions(space, pair)]
        diagonal = _number_diagonal(space, terms) - complex(np.sum(coeffs))
        target = _entries(space.dim, 0, 1.0, space._states, SignedMap(space._states, diagonal))
        labels = np.zeros(len(c2.weights), dtype=np.int64)
        cross_dev = _max_entry(_commutator(space.dim, c1, c2.dagger(), labels) + [target])

    return CompositeBosonReport(
        purity=p1,
        commutator_identity_deviation=comm_dev,
        sandwich_rows=tuple(rows),
        saturation_order=saturation_order,
        cross_rows=tuple(cross_rows),
        cross_identity_deviation=cross_dev,
    )
