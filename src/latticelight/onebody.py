"""The fock-suite checks on the one-body algebra of the fermion bilinears.

Modes are (field psi/phi) x (spin R/L) x (integer momentum label), ordered by
field, then spin, then momentum.  The pair operators

    gamma_{alpha,beta}(k) = sum_q f_k(q) phi_alpha(k/2 - q) psi_beta(k/2 + q),

their polarization contractions, the hopping operators of their commutators
and the composite bosons c = sum_i f(i) psi_i phi_i are lists of weighted
ladder terms (w, (position, raising), (position, raising)); this module and
the Jordan-Wigner oracle in ``fock`` read the same lists.  Momentum labels
are integers, and k/2 +- q presumes an even total k.

No check here needs the 2^(4M) Fock basis, or more than the standard library:

* A pair operator Q = sum_ij M_ij a_i a_j is pure annihilation, 1/2 sum_ij
  A_ij a_i a_j with the antisymmetric n x n block A = M - M^T.  So [Q1, Q2] = 0
  and [Q1, Q2^dag] = 1/2 tr(A2^dag A1) - sum_ij (A2^dag A1)_ij a_i^dag a_j
  (Blaizot & Ripka, Quantum Theory of Finite Systems, 1986; Combescot et al.,
  Phys. Rep. 463, 215 (2008)): an identity [Q1, Q2^dag] = c I - sum_ij H_ij
  a_i^dag a_j compares A2^dag A1 with H and 1/2 tr(A2^dag A1) with c.  A block
  is held as its nonzero rows {i: {j: A_ij}}: within one gamma each mode pairs
  with one partner, or two in a polarization contraction.
* On basis states, one-body operators are linear in the occupations n_i.
* Over disjoint pairs b_i = psi_i phi_i, (c^dag)^N |0> with
  lambda_i = |f(i)|^2 occupies pair i with probability
  <n_i>_N = lambda_i e_{N-1}(lambda without i) / e_N(lambda), e_N the
  elementary symmetric polynomial (Law, PRA 71, 034306 (2005)).

``fock`` checks each closed form against the Fock space at up to 3 momenta.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import namedtuple
from operator import itemgetter, mul

FIELDS = ("psi", "phi")
SPINS = ("R", "L")

TOL = 1e-12


class UnresolvedMomentumError(KeyError):
    """A k/2 +- q combination with nonzero weight falls outside the momentum set."""


class SaturationError(RuntimeError):
    """(c^dag)^N annihilates the vacuum: Pauli blocking reached."""


Mode = namedtuple("Mode", "field spin momentum")


class ModeTable:
    """The 4 * len(momenta) modes in ladder order, and their positions."""

    def __init__(self, momenta):
        momenta = tuple(momenta)
        if len(set(momenta)) != len(momenta):
            raise ValueError("momentum labels must be distinct")
        self.momenta = momenta
        self.modes = tuple(Mode(field, spin, p) for field in FIELDS for spin in SPINS for p in momenta)
        self._positions = {mode: i for i, mode in enumerate(self.modes)}
        self.mode_count = len(self.modes)

    def position(self, field: str, spin: str, momentum) -> int:
        try:
            return self._positions[Mode(field, spin, momentum)]
        except KeyError:
            if field not in FIELDS or spin not in SPINS:
                raise ValueError(f"unknown mode label ({field!r}, {spin!r})") from None
            raise UnresolvedMomentumError(f"momentum {momentum!r} not in space {self.momenta}") from None


# ---------------------------------------------------------------------------
# profiles on an integer momentum lattice


class LatticeProfile(namedtuple("LatticeProfile", "total weights")):
    """Discrete normalized profile f_k(q) for an even total pair momentum k: ``weights`` is ((q, weight), ...), held
    sorted by integer q with finite complex weights, and sum |f(q)|^2 = 1.  Immutable."""

    __slots__ = ()

    def __new__(cls, total, weights):
        if total % 2 != 0:
            raise ValueError("total pair momentum must be even (k/2 integral)")
        items = tuple(sorted(((int(q), complex(w)) for q, w in weights), key=itemgetter(0)))  # weights do not order
        if len({q for q, _ in items}) != len(items):
            raise ValueError("duplicate q in profile")
        if not all(math.isfinite(w.real) and math.isfinite(w.imag) for _, w in items):
            raise ValueError(f"profile weights must be finite, got {[w for _, w in items]!r}")
        norm = sum(abs(w) ** 2 for _, w in items)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"profile not normalized: sum|f|^2 = {norm!r}")
        return super().__new__(cls, total, items)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def half(self) -> int:
        return self.total // 2

    def weight(self, q: int) -> complex:
        """f_k(q), 0 off the profile: a scan of its (q, weight) pairs, at most 16 at the CLI's momentum cap."""
        return next((w for p, w in self.weights if p == q), 0.0)

    def overlap(self, other: "LatticeProfile") -> complex:
        return sum(w * other.weight(q).conjugate() for q, w in self.weights)


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
# ladder terms of the operators


def _gamma_terms(modes: ModeTable, alpha: str, beta: str, pairing, weights) -> list:
    if len(weights) != len(pairing):
        raise ValueError("pairing and weights must have equal length")
    return [
        (w, (modes.position("phi", alpha, minus), False), (modes.position("psi", beta, plus), False))
        for (minus, plus), w in zip(pairing, weights)
        if w != 0.0
    ]


def _profile_pairing(profile: LatticeProfile):
    """(k/2 - q, k/2 + q) momentum pairs and the weights f_k(q) of a profile."""
    pairing = [(profile.half - q, profile.half + q) for q, _ in profile.weights]
    return pairing, [w for _, w in profile.weights]


def _hopping_terms(modes: ModeTable, branch, field, spin_dag, spin_in, prof_dag, prof_in) -> list:
    """H^branch = sum_q f_k(q) conj(f_k'(q + branch*s)) field^dag_{spin_dag}(k' - k/2 + branch*q) field_{spin_in}(k/2 + branch*q).

    k = prof_in.total, k' = prof_dag.total, s = (k' - k)/2.  Zero-weight
    terms are skipped; a nonzero-weight term whose momentum is not in the
    table raises UnresolvedMomentumError.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    shift = (prof_dag.total - prof_in.total) // 2
    terms = []
    for q, w_in in prof_in.weights:
        weight = w_in * prof_dag.weight(q + branch * shift).conjugate()
        if weight == 0.0:
            continue
        dag = modes.position(field, spin_dag, prof_dag.total - prof_in.half + branch * q)
        inn = modes.position(field, spin_in, prof_in.half + branch * q)
        terms.append((weight, (dag, True), (inn, False)))
    return terms


def _assembly_terms(modes: ModeTable, spec1, spec2):
    """c and the terms of H in [gamma_1, gamma_2^dag] = c I - H; each spec is (alpha, beta, profile).

    H = delta_{alpha,alpha'} H^+_psi + delta_{beta,beta'} H^-_phi, and c is
    the profiles' overlap for equal labels and totals, else 0.
    """
    alpha1, beta1, prof1 = spec1
    alpha2, beta2, prof2 = spec2
    if alpha1 == alpha2 and beta1 == beta2 and prof1.total == prof2.total:
        coefficient = complex(prof1.overlap(prof2))
    else:
        coefficient = 0.0
    terms = []
    if alpha1 == alpha2:
        terms += _hopping_terms(modes, +1, "psi", beta2, beta1, prof2, prof1)
    if beta1 == beta2:
        terms += _hopping_terms(modes, -1, "phi", alpha2, alpha1, prof2, prof1)
    return coefficient, terms


def polarization_matrices(frame) -> list:
    """Spin contraction matrices for the four polarization modes of ``frame``, the rows (u1, u2, e) of an orthonormal triple.

    Index 0 is timelike (identity), 1 and 2 transverse (u1, u2), 3
    longitudinal (the axis e): v . sigma = ((v_z, v_x - i v_y), (v_x + i v_y,
    -v_z)), as 2 x 2 nested tuples.  Each matrix carries a 1/sqrt(2) so that
    the resulting pair mode is unit-normalized on the vacuum.
    """
    mats = [((1.0, 0.0), (0.0, 1.0))]
    mats += [((z, complex(x, -y)), (complex(x, y), -z)) for x, y, z in (map(float, v) for v in frame)]
    return [tuple(tuple(entry / math.sqrt(2.0) for entry in row) for row in m) for m in mats]


def _polarization_terms(modes: ModeTable, profile: LatticeProfile, mat) -> list:
    """gamma^i(k) = sum_{alpha,beta} M^i_{alpha,beta} gamma_{alpha,beta}(k)."""
    pairing, weights = _profile_pairing(profile)
    return [
        (mat[ia][ib] * w, first, second)
        for ia, alpha in enumerate(SPINS)
        for ib, beta in enumerate(SPINS)
        if mat[ia][ib] != 0.0
        for w, first, second in _gamma_terms(modes, alpha, beta, pairing, weights)
    ]


DEFAULT_FRAME = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # rows u1 = x, u2 = y, e = z


def default_pairs(modes: ModeTable) -> tuple:
    """One (psi, phi) mode pair per (spin, momentum), in deterministic order."""
    return tuple(((spin, p), (spin, p)) for spin in SPINS for p in modes.momenta)


def _pair_positions(modes: ModeTable, pair) -> tuple:
    (psi_spin, psi_p), (phi_spin, phi_p) = pair
    return modes.position("psi", psi_spin, psi_p), modes.position("phi", phi_spin, phi_p)


def _composite_terms(modes: ModeTable, pairs, weights) -> list:
    if len(weights) != len(pairs):
        raise ValueError("pairs and weights must have equal length")
    resolved = [(_pair_positions(modes, pair), w) for pair, w in zip(pairs, weights) if w != 0.0]
    return [(w, (psi, False), (phi, False)) for (psi, phi), w in resolved]


def _disjoint_positions(modes: ModeTable, pairs) -> list:
    """The (psi, phi) positions of every pair; ValueError naming a mode that two pairs share."""
    positions = [_pair_positions(modes, pair) for pair in pairs]
    owner = {}
    for i, pair_positions in enumerate(positions):
        for position in pair_positions:
            if position in owner:
                mode = modes.modes[position]
                raise ValueError(
                    f"pairs {owner[position]} and {i} share the mode {mode.field}({mode.spin}, {mode.momentum})"
                )
            owner[position] = i
    return positions


def purity(weights) -> float:
    """P = sum |f(i)|^4, the single-pair reduced-state purity."""
    return float(sum(abs(w) ** 4 for w in weights))


# ---------------------------------------------------------------------------
# one-body closed forms


def _rows(terms) -> dict:
    """The nonzero rows {i: {j: M_ij}} of M with sum_ij M_ij A_i B_j = sum_j w_j A_j B_j over (w_j, (i_j, _), (k_j, _)) ladder terms."""
    rows: dict = {}
    for w, (i, _), (j, _) in terms:
        row = rows.setdefault(i, {})
        row[j] = row.get(j, 0.0) + w
    return rows


def _pairing(terms) -> dict:
    """The rows of the antisymmetric A = M - M^T with sum_j w_j a_i a_k = 1/2 sum_ij A_ij a_i a_j, M of ``_rows``."""
    return _rows([term for w, a, b in terms for term in ((w, a, b), (-w, b, a))])


def _block_deviation(a1, a2, coefficient, hopping) -> float:
    """max(|A2^dag A1 - H|, |1/2 tr(A2^dag A1) - c|): how far [Q1, Q2^dag] misses c I - sum_ij H_ij a_i^dag a_j.

    Q1, Q2 are pure annihilation with pairing rows ``a1``, ``a2``, and H is given by its rows.  (A2^dag A1)_ij =
    sum_k conj(A2_ki) A1_kj runs over the rows k both blocks hold; it meets H on the union of their entries.
    """
    product: dict = {}
    for k in a1.keys() & a2.keys():
        for i, x in a2[k].items():
            row, x = product.setdefault(i, {}), x.conjugate()
            for j, y in a1[k].items():
                row[j] = row.get(j, 0.0) + x * y
    worst = abs(0.5 * sum(row.get(i, 0.0) for i, row in product.items()) - coefficient)
    for i in product.keys() | hopping.keys():
        row, target = product.get(i, {}), hopping.get(i, {})
        worst = max([worst, *(abs(row.get(j, 0.0) - target.get(j, 0.0)) for j in row.keys() | target.keys())])
    return worst


def pair_commutators(modes: ModeTable, specs) -> dict:
    """[gamma_1, gamma_2^dag] = c I - H over all ordered pairs of (alpha, beta, profile) specs."""
    specs = list(specs)
    blocks = [_pairing(_gamma_terms(modes, a, b, *_profile_pairing(p))) for a, b, p in specs]
    assembly = 0.0
    for first, a1 in zip(specs, blocks):
        for second, a2 in zip(specs, blocks):
            coefficient, terms = _assembly_terms(modes, first, second)
            assembly = max(assembly, _block_deviation(a1, a2, coefficient, _rows(terms)))
    return {
        "name": "pair_commutators",
        "passed": assembly <= TOL,
        "max_assembly_deviation": assembly,
        "max_gamma_gamma": 0.0,  # pure-annihilation operators commute: [gamma_1, gamma_2] = 0 identically
        "label_pairs": len(specs) ** 2,
    }


def _occupations(modes: ModeTable, profile: LatticeProfile, field, spin, branch) -> dict:
    """{i: g_i} with Gamma^branch = sum_q |f(q)|^2 n_{field,spin}(k/2 + branch*q) = sum_i g_i n_i."""
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    g: dict = {}
    for q, w in profile.weights:
        i = modes.position(field, spin, profile.half + branch * q)
        g[i] = g.get(i, 0.0) + abs(w) ** 2
    return g


def _schwartz_margins(h, g_in, g_dag) -> list:
    """sqrt(g_in,i g_dag,i) - |h_i| on each mode i of H's diagonal {i: h_i}: the margins of their one-particle states."""
    return [math.sqrt(g_in.get(i, 0.0) * g_dag.get(i, 0.0)) - abs(v) for i, v in h.items()]


def schwartz_bound(modes: ModeTable, profiles) -> dict:
    """|<s|H|s>| <= sqrt(<s|Gamma_in|s> <s|Gamma_dag|s>) on every basis state s and label combination.

    On basis states <H> = sum_i h_i n_i over H's number terms and <Gamma> =
    sum_i g_i n_i.  |h_i| <= sqrt(g_in,i g_dag,i) on every mode gives the bound
    on every state by Cauchy-Schwarz (n_i^2 = n_i); a mode that breaks it is
    broken by its one-particle state, whose margin is reported.  Modes off H's
    diagonal have margins >= 0, and the vacuum's margin is 0.
    """
    profiles = list(profiles)
    worst, cases = 0.0, 0
    for field, branch in itertools.product(FIELDS, (+1, -1)):
        gammas = {(p, spin): _occupations(modes, p, field, spin, branch) for p in profiles for spin in SPINS}
        for p_in, p_dag, spin_in, spin_dag in itertools.product(profiles, profiles, SPINS, SPINS):
            hopping = _rows(_hopping_terms(modes, branch, field, spin_dag, spin_in, p_dag, p_in))
            h = {i: row[i] for i, row in hopping.items() if i in row}  # H's diagonal
            worst = min([worst, *_schwartz_margins(h, gammas[p_in, spin_in], gammas[p_dag, spin_dag])])
            cases += 1
    return {"name": "schwartz_bound", "passed": worst >= -1e-10, "cases": cases, "states": 1 << modes.mode_count, "worst_margin": worst}


def _polarization_forms(a_g, a_h):
    """<s|[gamma_g, gamma_h^dag]|s> = sum_{i<j} A_g,ij conj(A_h,ij) (1 - n_i - n_j) = constant_gh - sum_i slope_ghi n_i.

    The slopes {i: slope_ghi} are read on the rows that both blocks hold; every other slope is 0.
    """
    slopes = {}
    for i in a_g.keys() & a_h.keys():
        row = a_h[i]
        slopes[i] = sum(x * row[j].conjugate() for j, x in a_g[i].items() if j in row)
    return 0.5 * sum(slopes.values()), slopes


def polarization_modes(modes: ModeTable, profiles, frame=DEFAULT_FRAME) -> dict:
    """Deviation of [gamma^i(k), gamma^j(k')^dag] from delta_ij delta_kk' on the basis states of 0, 1 and 2 particles.

    The extremes over 1 and 2 particles are taken over the nonzero slopes and
    at most two zero slopes, which stand for every mode of slope 0.
    """
    blocks = [_pairing(_polarization_terms(modes, p, mat)) for p in profiles for mat in polarization_matrices(frame)]
    worst = [0.0, 0.0, 0.0]
    for g, a_g in enumerate(blocks):
        for h, a_h in enumerate(blocks):
            constant, slopes = _polarization_forms(a_g, a_h)
            vacuum = constant - (1.0 if g == h else 0.0)
            values = [s for s in slopes.values() if s != 0.0]
            values += [0.0] * min(2, modes.mode_count - len(values))
            one = [vacuum - s for s in values]
            two = (abs(x - s) for i, x in enumerate(one) for s in values[i + 1 :])
            worst = [max(worst[0], abs(vacuum)), max([worst[1], *map(abs, one)]), max([worst[2], *two])]
    by_particles = {str(i): value for i, value in enumerate(worst)}
    return {
        "name": "polarization_modes",
        "passed": by_particles["0"] <= TOL,
        "vacuum_deviation": by_particles["0"],
        "deviation_by_particles": by_particles,
    }


def pair_occupations(lam, n_max: int) -> list:
    """<n_i>_N = lam_i e_{N-1}(lam without i) / e_N(lam) for N = 1..n_max: row N - 1, column i.

    e(lam without i) is the product of the prefix polynomial prod_{j<i}
    (1 + lam_j x) and the suffix prod_{j>i}: sums of products of lam >= 0,
    so nothing cancels.  SaturationError past the count of nonzero lam;
    FloatingPointError where e_N(lam) underflows the normal floats before it.
    """
    lam = [float(x) for x in lam]

    def tables(values):  # the coefficients of prod_{j<i} (1 + values_j x) up to x^n_max, i = 0..len(values)
        out = [[1.0] + [0.0] * n_max]
        for x in values:
            last = out[-1]
            out.append(last[:1] + [last[a] + x * last[a - 1] for a in range(1, n_max + 1)])
        return out

    prefix = tables(lam)
    full, nonzero = prefix[-1][1:], sum(x != 0.0 for x in lam)
    underflow = [n for n, e in enumerate(full, start=1) if e < sys.float_info.min and n <= nonzero]
    if underflow:  # subnormal e_N cost the ratios their digits
        raise FloatingPointError(f"e_N(lam) underflows below the smallest normal float from N = {underflow[0]}, where (c^dag)^N |0> != 0")
    if 0.0 in full:
        raise SaturationError(f"(c^dag)^N |0> = 0 for some N <= {n_max}: more pairs than modes of nonzero weight")
    suffix = tables(lam[::-1])[::-1]  # suffix[i]: prod_{j>=i}
    rows = [[0.0] * len(lam) for _ in range(n_max)]
    for i, x in enumerate(lam):
        before, after = prefix[i], suffix[i + 1]
        for k in range(n_max):  # e_k(lam without i) = sum_a e_a(prefix) e_{k-a}(suffix), a ascending
            rows[k][i] = x * sum(map(mul, before[: k + 1], after[k::-1])) / full[k]
    return rows


def cross_values(weights, second_weights, n_max: int) -> list:
    """|<N|[c1, c2^dag]|N>| = |sum_i f1(i) conj(f2(i)) (1 - 2 <n_i>_N)| for N = 1..n_max, |N> the chain of c1."""
    products = [complex(x) * complex(y).conjugate() for x, y in zip(weights, second_weights)]
    occupations = pair_occupations([abs(complex(x)) ** 2 for x in weights], n_max)
    return [abs(sum(c * (1.0 - 2.0 * o) for c, o in zip(products, row))) for row in occupations]


def _unit_weights(rng: random.Random, size: int, against=None) -> list:
    """A random unit complex weight vector, its component along the unit ``against`` removed; entry by entry, real then imaginary part."""
    w = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(size)]
    if against is not None:
        for _ in range(2):  # one projection leaves overlaps up to 6e-14 at size 2, two leave 2.4e-16
            overlap = sum(x * y.conjugate() for x, y in zip(w, against))
            w = [x - y * overlap for x, y in zip(w, against)]
    norm = math.hypot(*(part for x in w for part in (x.real, x.imag)))
    return [x / norm for x in w]


def composite_bosons(modes: ModeTable, pairs, weights, second_weights, n_max: int, samples: int, rng) -> dict:
    """The composite-boson relations of c = sum_i f(i) psi_i phi_i over disjoint pairs.

    [c, c^dag] = I - Gamma_psi - Gamma_phi and the cross identity with a
    second weight vector, on the pairing blocks; the sandwich P <= <N|Gamma_psi|N>
    <= N P and |<N|[c1, c2^dag]|N>| <= 2 N max(P1, P2), N = 1..n_max, from the
    pair occupations; the Pauli saturation order; and the worst slack of the
    cross bound at N = 1, 2 over ``samples`` random orthonormal weight pairs
    from the ``random.Random`` ``rng``.  Fewer than 2 pairs, or pairs that share
    a mode, raise ValueError.
    """
    if len(pairs) < 2:  # one pair leaves no unit weight orthogonal to the first draw
        raise ValueError(f"composite_bosons needs at least 2 pairs, got {len(pairs)}")
    positions = _disjoint_positions(modes, pairs)
    f1, f2 = [complex(w) for w in weights], [complex(w) for w in second_weights]
    lam, p1 = [abs(w) ** 2 for w in f1], purity(f1)
    cross = [x * y.conjugate() for x, y in zip(f1, f2)]
    c1, c2 = (_pairing(_composite_terms(modes, pairs, w)) for w in (f1, f2))
    # Gamma_psi + Gamma_phi, and the cross identity's: diagonal on both modes of each pair
    hopping = [{p: {p: v} for pair, v in zip(positions, values) for p in pair} for values in (lam, cross)]
    deviation = [_block_deviation(c1, a2, c, h) for a2, c, h in zip((c1, c2), (1.0, sum(cross)), hopping)]
    expect = [sum(map(mul, row, lam)) for row in pair_occupations(lam, n_max)]
    sandwich = [[N, e, p1, N * p1, p1 - TOL <= e <= N * p1 + TOL] for N, e in enumerate(expect, start=1)]
    p_max = max(p1, purity(f2))
    cross_holds = all(v <= 2.0 * N * p_max + TOL for N, v in enumerate(cross_values(f1, f2, n_max), start=1))
    worst_slack = math.inf
    for _ in range(samples):
        w1 = _unit_weights(rng, len(pairs))
        w2 = _unit_weights(rng, len(pairs), w1)
        p_max = max(purity(w1), purity(w2))
        values = cross_values(w1, w2, min(2, n_max))
        worst_slack = min([worst_slack, *(2.0 * N * p_max - v for N, v in enumerate(values, start=1))])
    passed = max(deviation) <= TOL and all(row[4] for row in sandwich) and cross_holds and worst_slack >= -TOL
    return {
        "name": "composite_bosons",
        "passed": bool(passed),
        "purity": p1,
        "commutator_identity_deviation": deviation[0],
        "sandwich": sandwich,
        "saturation_order": sum(x > 0.0 for x in lam) + 1,
        "conjecture_samples": samples,
        "conjecture_worst_slack": worst_slack,
    }


def lattice_momenta(count: int) -> list:
    """``count`` integer momentum labels centred on 0, spaced so that k/2 +- q stays on them."""
    return list(range(-(count // 2), count - count // 2)) if count % 2 else [2 * j + 1 - count for j in range(count)]


def fock_suite(count: int, n_max: int, samples: int, seed: int) -> dict:
    """The "space", "checks" and "passed" of the fock-suite report over ``count`` momenta.

    The composite bosons take uniform weights on default_pairs; their second
    weight vector, then the conjecture samples, are drawn from one random.Random(seed), which reads -seed as seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    momenta = lattice_momenta(count)
    modes = ModeTable(momenta)
    profiles = list(available_profiles(momenta).values())
    rng = random.Random(seed)
    pairs = default_pairs(modes)
    uniform = [1.0 / math.sqrt(len(pairs))] * len(pairs)
    second = _unit_weights(rng, len(pairs), uniform)
    n = modes.mode_count
    checks = [
        {"name": "anticommutators", "passed": True, "detail": f"canonical for {n} modes; tests check the algebra in a Fock space"},
        pair_commutators(modes, [(alpha, beta, p) for alpha in SPINS for beta in SPINS for p in profiles]),
        schwartz_bound(modes, profiles),
        polarization_modes(modes, profiles),
        composite_bosons(modes, pairs, uniform, second, min(n_max, len(pairs)), samples, rng),
    ]
    space = {"momenta": momenta, "modes": n, "dimension": 1 << n}
    return {"space": space, "checks": checks, "passed": all(c["passed"] for c in checks)}
