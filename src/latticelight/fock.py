"""Exact Fermionic Fock space over a small discrete momentum set.

The mode set is (field psi/phi) x (spin R/L) x (momentum label); lowering
operators are Jordan-Wigner sparse matrices with signs fixed by the global
ordering field, then spin, then momentum.  On top of the raw algebra this
module builds the pair operators

    gamma_{alpha,beta}(k) = sum_q f_k(q) phi_alpha(k/2 - q) psi_beta(k/2 + q),

their polarization contractions, and generic composite bosons
c = sum_i f(i) psi_i phi_i, and verifies commutation relations, Schwartz
bounds and composite-boson claims by brute force.

Momentum labels are integers; the k/2 +- q arithmetic presumes an even
total k.  The algebra only sees the resulting index pairing, so any lattice
convention can be supplied through explicit pairings as well.

Everything is exact: matrices are sparse with entries built from +-1 and
profile weights, and comparisons are matrix comparisons.  Quadratic operators
are assembled in one COO pass from per-mode occupation and parity tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .walk import PAULI
from .bilinear import PolarizationFrame

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


class FockSpace:
    """Fock space with Jordan-Wigner lowering operators for every mode.

    All anticommutation relations are verified as exact sparse-matrix
    identities at build time (disable with verify=False for large spaces
    you have verified before).  After construction every matrix is
    immutable and safe to share across threads.
    """

    def __init__(self, momenta, verify: bool = True):
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
        self.lowering = [self._build_lowering(i) for i in range(self.mode_count)]
        self.raising = [op.T.tocsr() for op in self.lowering]
        if verify:
            self.verify_anticommutators()

    def _apply(self, position: int, raising: bool, states: np.ndarray):
        """a_p (a_p^dag if raising) on basis states: survivor mask, their images, their sign flips."""
        keep = self._occupied[position][states] != raising
        kept = states[keep]
        return keep, kept ^ (1 << position), self._parity[position][kept]

    def _build_lowering(self, position: int) -> sparse.csr_matrix:
        keep, rows, flips = self._apply(position, False, self._states)
        signs = np.where(flips, -1.0, 1.0)
        return sparse.csr_matrix((signs, (rows, self._states[keep])), shape=(self.dim, self.dim))

    def verify_anticommutators(self):
        """Check {a_i, a_j} = 0 and {a_i, a_j^dag} = delta_ij I exactly."""
        identity = sparse.identity(self.dim, format="csr")
        for i in range(self.mode_count):
            a_i = self.lowering[i]
            for j in range(i, self.mode_count):
                a_j = self.lowering[j]
                anti = a_i @ a_j + a_j @ a_i
                anti.eliminate_zeros()
                if anti.nnz:
                    raise RuntimeError(f"{{a_{i}, a_{j}}} != 0")
                mixed = a_i @ self.raising[j] + self.raising[j] @ a_i
                diff = mixed - identity if i == j else mixed
                diff.eliminate_zeros()
                if diff.nnz:
                    raise RuntimeError(f"{{a_{i}, a_{j}^dag}} != delta_{{{i}{j}}} I")

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
        position = self.position(field, spin, momentum)
        return sparse.diags(self._occupied[position].astype(float), format="csr")

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def particle_numbers(self) -> np.ndarray:
        """Total occupation of every basis state (index = basis state)."""
        return self._occupied.sum(axis=0)


def build_fock(momenta, verify: bool = True) -> FockSpace:
    """Fock space over 4 * len(momenta) modes with build-time verification."""
    return FockSpace(momenta, verify=verify)


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


def _ladder_pair(space: FockSpace, weight, first, second):
    """(rows, cols, values) of weight * A_first A_second; ladders are (position, raising) pairs."""
    keep, states, flips = space._apply(*second, space._states)
    keep2, rows, flips2 = space._apply(*first, states)
    weight = complex(weight)
    return rows, space._states[keep][keep2], np.where(flips[keep2] ^ flips2, -weight, weight)


def _coo(space: FockSpace, terms):
    """(rows, cols, values) of sum_j w_j A_j B_j over (w_j, A_j, B_j) ladder terms."""
    empty = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0, dtype=complex))
    parts = [empty] + [_ladder_pair(space, *term) for term in terms]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _quadratic(space: FockSpace, terms) -> sparse.csr_matrix:
    """sum_j w_j A_j B_j over (w_j, A_j, B_j) ladder terms, assembled in one COO pass."""
    rows, cols, values = _coo(space, terms)
    return sparse.csr_matrix((values, (rows, cols)), shape=(space.dim, space.dim))


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


def gamma_weighted_number(
    space: FockSpace, profile: LatticeProfile, field: str, spin: str, branch: int
) -> sparse.csr_matrix:
    """Profile-shaped number operator Gamma^branch = sum_q |f(q)|^2 n(k/2 + branch*q)."""
    return sparse.diags(_gamma_diagonal(space, profile, field, spin, branch), format="csr")


@dataclass(frozen=True)
class CommutatorReport:
    """Direct [gamma, gamma'^dag] against its identity-minus-hopping assembly."""

    direct: sparse.csr_matrix
    identity_coefficient: complex
    delta_part: sparse.csr_matrix
    assembled: sparse.csr_matrix
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


def commutator_report(space: FockSpace, spec1, spec2, gammas=None) -> CommutatorReport:
    """Compare [gamma_1(k), gamma_2(k')^dag] with its assembled decomposition.

    Each spec is (alpha, beta, profile).  The assembly is
    overlap * delta_spin * I - (delta_{alpha,alpha'} H^+_psi +
    delta_{beta,beta'} H^-_phi); the overlap reduces to 1 for identical
    normalized profiles and to 0 for k != k'.  ``gammas`` optionally maps
    specs to gamma matrices built beforehand; the others are built here.
    """
    gammas = gammas or {}
    g1 = gammas[spec1] if spec1 in gammas else gamma_for_profile(space, *spec1)
    g2 = gammas[spec2] if spec2 in gammas else gamma_for_profile(space, *spec2)
    g2d = g2.conj().T.tocsr()
    direct = (g1 @ g2d - g2d @ g1).tocsr()

    coefficient, terms = _assembly_terms(space, spec1, spec2)
    delta_part = _quadratic(space, terms)
    assembled = (coefficient * sparse.identity(space.dim, dtype=complex, format="csr") - delta_part).tocsr()

    return CommutatorReport(
        direct=direct,
        identity_coefficient=coefficient,
        delta_part=delta_part,
        assembled=assembled,
        max_abs_difference=_max_abs(direct - assembled),
    )


#: widest hstack of gammas the pair sweep multiplies at once, in columns
SWEEP_WIDTH = 4096


@dataclass(frozen=True)
class PairSweep:
    """Worst deviations over every ordered pair of gamma labels."""

    label_pairs: int  # ordered pairs compared
    max_assembly_deviation: float  # of [gamma_1, gamma_2^dag] from its assembly
    max_gamma_gamma: float  # of [gamma_1, gamma_2] from 0


def pair_commutator_sweep(space: FockSpace, specs) -> PairSweep:
    """commutator_report and [gamma_1, gamma_2] = 0 over all ordered pairs of ``specs``.

    Each gamma and its adjoint is built once.  The second labels go in
    groups: with W = [g_a^dag, g_b^dag, ...] stacked side by side and
    B = diag(g1, g1, ...), the one sparse sum g1 W - W B + [H_a - c_a I,
    H_b - c_b I, ...] holds every pair's deviation from its assembly
    c I - H, and the same product over [g_a, g_b, ...] holds [g1, g_a], ....
    A group is as wide as fits in SWEEP_WIDTH columns: a whole row at
    dimension 256, one pair at a time at 4,096, where wider stacks would
    raise peak memory.
    """
    specs = list(specs)
    gammas = [gamma_for_profile(space, *spec) for spec in specs]
    size = max(1, SWEEP_WIDTH // space.dim)
    worst_assembly = worst_plain = 0.0
    compared = 0
    for start in range(0, len(specs), size):
        group = range(start, min(start + size, len(specs)))
        stacked = sparse.hstack([gammas[j] for j in group], format="csr")
        adjoints = sparse.hstack([gammas[j].conj().T for j in group], format="csr")
        for spec1, g1 in zip(specs, gammas):
            blocks = g1 if len(group) == 1 else sparse.kron(sparse.identity(len(group)), g1, format="csr")
            target = _negated_assemblies(space, spec1, [specs[j] for j in group])
            worst_assembly = max(worst_assembly, _max_abs(g1 @ adjoints - adjoints @ blocks + target))
            worst_plain = max(worst_plain, _max_abs(g1 @ stacked - stacked @ blocks))
            compared += len(group)
    return PairSweep(
        label_pairs=compared,
        max_assembly_deviation=worst_assembly,
        max_gamma_gamma=worst_plain,
    )


def _negated_assemblies(space: FockSpace, spec1, specs2) -> sparse.csr_matrix:
    """[H_a - c_a I, H_b - c_b I, ...]: the assemblies of commutator_report, negated, side by side."""
    parts = []
    for column, spec2 in enumerate(specs2):
        coefficient, terms = _assembly_terms(space, spec1, spec2)
        rows, cols, values = _coo(space, terms)
        if coefficient != 0.0:
            diagonal = space._states
            rows, cols = np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal])
            values = np.concatenate([values, np.full(space.dim, -coefficient, dtype=complex)])
        parts.append((rows, cols + column * space.dim, values))
    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    return sparse.csr_matrix((values, (rows, cols)), shape=(space.dim, len(specs2) * space.dim))


# ---------------------------------------------------------------------------
# Schwartz bound


def schwartz_bound_check(state, h_matrix, gamma_a, gamma_b, slack: float = 1e-10):
    """Evaluate |<H>| <= sqrt(<Gamma_a><Gamma_b>) on one normalized state."""
    state = np.asarray(state, dtype=complex)
    lhs = abs(np.vdot(state, h_matrix @ state))
    ga = float(np.vdot(state, gamma_a @ state).real)
    gb = float(np.vdot(state, gamma_b @ state).real)
    rhs = math.sqrt(max(ga, 0.0) * max(gb, 0.0))
    return lhs, rhs, lhs <= rhs + slack


@dataclass(frozen=True)
class SchwartzSweep:
    """Exhaustive basis-state sweep of the hopping-operator bound."""

    cases: int
    states: int
    worst_margin: float  # min over everything of rhs - lhs
    holds: bool


def schwartz_exhaustive(space: FockSpace, profiles, slack: float = 1e-10) -> SchwartzSweep:
    """Check the bound on every basis state for every label combination.

    Basis-state expectations only see operator diagonals, so each case is a
    vectorized comparison across all 2^M states.
    """
    profiles = list(profiles)
    worst = math.inf
    cases = 0
    for field in FIELDS:
        for branch in (+1, -1):
            for prof_in in profiles:
                for prof_dag in profiles:
                    for spin_in in SPINS:
                        for spin_dag in SPINS:
                            h = h_operator(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)
                            g_in = _gamma_diagonal(space, prof_in, field, spin_in, branch)
                            g_dag = _gamma_diagonal(space, prof_dag, field, spin_dag, branch)
                            lhs = np.abs(h.diagonal())
                            rhs = np.sqrt(g_in * g_dag)
                            worst = min(worst, float(np.min(rhs - lhs)))
                            cases += 1
    return SchwartzSweep(cases=cases, states=space.dim, worst_margin=worst, holds=worst >= -slack)


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


def polarization_gamma(
    space: FockSpace, profile: LatticeProfile, frame: PolarizationFrame, index: int
) -> sparse.csr_matrix:
    """gamma^i(k) = sum_{alpha,beta} M^i_{alpha,beta} gamma_{alpha,beta}(k)."""
    mat = polarization_matrices(frame)[index]
    pairing, weights = _profile_pairing(profile)
    terms = [
        (mat[ia, ib] * w, first, second)
        for ia, alpha in enumerate(SPINS)
        for ib, beta in enumerate(SPINS)
        if mat[ia, ib] != 0.0
        for w, first, second in _gamma_terms(space, alpha, beta, pairing, weights)
    ]
    return _quadratic(space, terms)


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


def polarization_boson_check(
    space: FockSpace, profiles, frame: PolarizationFrame = _DEFAULT_FRAME, max_particles: int = 2
) -> PolarizationReport:
    """Evaluate the four-mode Bose commutators on all low-occupancy basis states.

    Expectations are taken on the vacuum and on every basis state with total
    particle number <= max_particles; deviations are grouped by particle
    number (they grow with occupancy, vanishing exactly on the vacuum).
    """
    profiles = list(profiles)
    numbers = space.particle_numbers()
    keep = numbers <= max_particles
    kept_numbers = numbers[keep]
    gammas = {}
    for ip, prof in enumerate(profiles):
        for i in range(4):
            gammas[(ip, i)] = polarization_gamma(space, prof, frame, i)
    by_particles: dict = {int(n): 0.0 for n in sorted(set(kept_numbers.tolist()))}
    cases = 0
    for (ip, i), g in gammas.items():
        for (jp, j), g2 in gammas.items():
            # diag [g, g2^dag] = row sums minus column sums of g * conj(g2)
            product = g.multiply(g2.conj())
            diagonal = np.asarray(product.sum(axis=1)).ravel() - np.asarray(product.sum(axis=0)).ravel()
            expected = 1.0 if (ip == jp and i == j) else 0.0
            dev = np.abs(diagonal - expected)[keep]
            for n in by_particles:
                sel = kept_numbers == n
                if np.any(sel):
                    by_particles[n] = max(by_particles[n], float(np.max(dev[sel])))
            cases += 1
    max_dev = max(by_particles.values())
    return PolarizationReport(
        cases=cases,
        states_checked=int(np.sum(keep)),
        deviation_by_particles=by_particles,
        max_deviation=max_dev,
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


def composite_boson(space: FockSpace, pairs, weights) -> sparse.csr_matrix:
    """c = sum_i f(i) psi_i phi_i over explicit (psi mode, phi mode) pairs."""
    weights = np.asarray(weights, dtype=complex)
    if len(weights) != len(pairs):
        raise ValueError("pairs and weights must have equal length")
    resolved = [(_pair_positions(space, pair), w) for pair, w in zip(pairs, weights) if w != 0.0]
    return _quadratic(space, [(w, (psi, False), (phi, False)) for (psi, phi), w in resolved])


class PairStack(NamedTuple):
    """The pair operators b_i = psi_i phi_i stacked: rows i*dim to (i+1)*dim - 1 hold b_i.

    Stored column-wise, so the index arrays grow with dim, not with the stack height.
    """

    lowering: sparse.csc_matrix  # the b_i
    raising: sparse.csc_matrix  # the b_i^dag


def pair_stack(space: FockSpace, pairs) -> PairStack:
    """The stacked pair operators of ``pairs`` and their adjoints, one COO pass each."""
    positions = [_pair_positions(space, pair) for pair in pairs]
    parts = [_ladder_pair(space, 1.0, (psi, False), (phi, False)) for psi, phi in positions]
    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    blocks = np.repeat(np.arange(len(parts)) * space.dim, [len(part[0]) for part in parts])
    shape = (len(parts) * space.dim, space.dim)
    return PairStack(
        sparse.csc_matrix((values, (rows + blocks, cols)), shape=shape),
        sparse.csc_matrix((np.conj(values), (cols + blocks, rows)), shape=shape),
    )


def cross_commutator_values(stack: PairStack, weights, second_weights, n_max: int) -> np.ndarray:
    """|<N|[c1, c2^dag]|N>| for N = 1..n_max, with |N> the normalized (c1^dag)^N |0>.

    On a state u, c u = sum_i f(i) b_i u and c^dag u = sum_i conj(f(i)) b_i^dag u
    come from one stacked product per side, contracted with the weights, and
    <u|[c1, c2^dag]|u> = <c1^dag u|c2^dag u> - <c2 u|c1 u>.  No operator
    product is formed.  Raises SaturationError if n_max exceeds the
    constructible N.
    """
    both = np.array([weights, second_weights], dtype=complex)
    shape = (both.shape[1], stack.lowering.shape[1])
    vacuum = np.zeros(shape[1], dtype=complex)
    vacuum[0] = 1.0
    # each stacked product is contracted at once, so one (pairs, dim) temporary lives at a time;
    # einsum rather than matmul keeps BLAS, and its buffers, out of it
    v = np.einsum("i,ij->j", np.conj(both[0]), (stack.raising @ vacuum).reshape(shape))  # c1^dag |0>
    values = np.empty(n_max)
    for n in range(1, n_max + 1):
        u = _unit(v, n)
        v, c2d_u = np.einsum("wi,ij->wj", np.conj(both), (stack.raising @ u).reshape(shape))  # v = c1^dag u
        c1_u, c2_u = np.einsum("wi,ij->wj", both, (stack.lowering @ u).reshape(shape))
        values[n - 1] = abs(np.vdot(v, c2d_u) - np.vdot(c2_u, c1_u))
    return values


def _pair_number_diagonals(space: FockSpace, pairs, weights):
    squares = [abs(w) ** 2 for w in np.asarray(weights, dtype=complex)]
    positions = [_pair_positions(space, pair) for pair in pairs]
    g_psi = _number_diagonal(space, [(w2, psi) for (psi, _), w2 in zip(positions, squares)])
    g_phi = _number_diagonal(space, [(w2, phi) for (_, phi), w2 in zip(positions, squares)])
    return g_psi, g_phi


def pair_number_operators(space: FockSpace, pairs, weights):
    """(Gamma_psi, Gamma_phi) = profile-weighted number operators of the pair modes."""
    return tuple(sparse.diags(d, format="csr") for d in _pair_number_diagonals(space, pairs, weights))


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


def composite_boson_suite(
    space: FockSpace, pairs, weights, n_max: int, second_weights=None, slack: float = 1e-12
) -> CompositeBosonReport:
    """Brute-force verification of the composite-boson relations.

    Checks, as matrices, [c, c^dag] = I - (Gamma_psi + Gamma_phi); for each
    N = 1..n_max the sandwich P <= <N|Gamma_psi|N> <= N P; the exact Pauli
    saturation order; and, given a second orthogonal weight vector, the
    cross-commutator identity and |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2),
    the latter from cross_commutator_values.  Raises SaturationError if n_max
    exceeds the constructible N.
    """
    weights = np.asarray(weights, dtype=complex)
    c1 = composite_boson(space, pairs, weights)
    c1d = c1.conj().T.tocsr()
    g_psi, g_phi = _pair_number_diagonals(space, pairs, weights)
    comm_dev = _max_abs((c1 @ c1d - c1d @ c1) - sparse.diags(1.0 - g_psi - g_phi, format="csr"))
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
        holds = (p1 - slack) <= expect <= (n * p1 + slack)
        rows.append((n, expect, p1, n * p1, holds))

    cross_rows = []
    cross_dev = 0.0
    if second_weights is not None:
        w2 = np.asarray(second_weights, dtype=complex)
        p_max = max(p1, purity(w2))
        values = cross_commutator_values(pair_stack(space, pairs), weights, w2, n_max)
        for n, value in enumerate(values, start=1):
            bound = 2.0 * n * p_max
            cross_rows.append((n, float(value), bound, value <= bound + slack))
        c2d = composite_boson(space, pairs, w2).conj().T.tocsr()
        # [c1, c2^dag] = overlap*I - sum_i f1(i) conj(f2(i)) (n_psi_i + n_phi_i)
        coeffs = weights * np.conj(w2)
        terms = [(c, p) for pair, c in zip(pairs, coeffs) if c != 0.0 for p in _pair_positions(space, pair)]
        overlap = complex(np.sum(coeffs))
        target = sparse.diags(overlap - _number_diagonal(space, terms), format="csr")
        cross_dev = _max_abs((c1 @ c2d - c2d @ c1) - target)

    return CompositeBosonReport(
        purity=p1,
        commutator_identity_deviation=comm_dev,
        sandwich_rows=tuple(rows),
        saturation_order=saturation_order,
        cross_rows=tuple(cross_rows),
        cross_identity_deviation=cross_dev,
    )
