"""The one-body fock-suite engine against the Jordan-Wigner oracle at 1 to 3 momenta, and against dense numpy blocks past it."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from fock_oracles import (
    conjecture_worst_slack,
    cross_commutator_values,
    dense_pair_commutators,
    dense_polarization_deviations,
    oracle_report,
    pair_commutator_sweep,
    pair_stack,
    polarization_boson_check,
)
from latticelight import fock, onebody
from latticelight.bilinear import polarization_frame
from latticelight.fock import LatticeProfile
from latticelight.onebody import available_profiles, default_pairs

MOMENTA = {1: [0], 2: [-1, 1], 3: [-1, 0, 1]}
ATOL = 1e-12


@pytest.fixture(scope="module", params=sorted(MOMENTA))
def space(request, fock_space):
    return fock_space(MOMENTA[request.param])


def random_profiles(space, rng):
    """Two random complex profiles for every supported total momentum: distinct profiles share a total."""
    out = []
    for total, prof in available_profiles(space.momenta).items():
        qs = [q for q, _ in prof.weights]
        for _ in range(2):
            w = rng.standard_normal(len(qs)) + 1j * rng.standard_normal(len(qs))
            out.append(LatticeProfile(total=total, weights=tuple(zip(qs, w / np.linalg.norm(w)))))
    return out


def random_weights(rng, size):
    w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return w / np.linalg.norm(w)


def specs_of(profiles):
    return [(a, b, p) for a in onebody.SPINS for b in onebody.SPINS for p in profiles]


def leaves(value, path=""):
    """(path, value) of every scalar in a report, skipping the free-text detail."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "detail":
                yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}/{i}")
    else:
        yield path, value


@pytest.mark.parametrize("count", sorted(MOMENTA))
@pytest.mark.parametrize("n_max,samples,seed", [(3, 50, 0), (2, 7, 11)])
def test_report_matches_the_jordan_wigner_report(fock_space, count, n_max, samples, seed):
    got = dict(leaves(onebody.fock_suite(count, n_max, samples, seed)))
    want = dict(leaves(oracle_report(fock_space(onebody.lattice_momenta(count)), n_max, samples, seed)))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, (bool, str)) or value is None:
            assert type(got[key]) is type(value) and got[key] == value, key
        else:
            assert type(got[key]) is type(value) and abs(got[key] - value) <= ATOL, (key, got[key], value)
    assert got["/space/dimension"] == 2 ** (4 * count)
    assert got["/checks/2/states"] == 2 ** (4 * count)


@pytest.fixture(scope="module")
def random_sweep(fock_space):
    """random_sweep(count): specs over random_profiles (seed 1) at ``count`` momenta and their Jordan-Wigner sweep.

    Each count is swept once per module, with the honest term builders: call it before patching them.
    """
    sweeps = {}

    def get(count):
        if count not in sweeps:
            space = fock_space(MOMENTA[count])
            specs = specs_of(random_profiles(space, np.random.default_rng(1)))
            sweeps[count] = specs, pair_commutator_sweep(space, specs)
        return sweeps[count]

    return get


def test_pair_commutators_match_the_sweep_on_random_profiles(space, random_sweep):
    specs, want = random_sweep(len(space.momenta))
    got = onebody.pair_commutators(space, specs)
    assert got["label_pairs"] == want.label_pairs == len(specs) ** 2
    assert abs(got["max_assembly_deviation"] - want.max_assembly_deviation) <= ATOL
    assert got["max_gamma_gamma"] == 0.0 and want.max_gamma_gamma <= ATOL
    assert got["passed"]


def test_a_flipped_hopping_sign_fails_both_engines(fock_space, monkeypatch):
    space = fock_space(MOMENTA[2])
    specs = specs_of(available_profiles(space.momenta).values())
    hopping_terms = onebody._hopping_terms
    monkeypatch.setattr(
        onebody, "_hopping_terms", lambda *args: [(-w, a, b) for w, a, b in hopping_terms(*args)]
    )
    got = onebody.pair_commutators(space, specs)
    assert not got["passed"]
    assert got["max_assembly_deviation"] >= 1.0
    assert pair_commutator_sweep(space, specs).max_assembly_deviation >= 1.0


def test_a_block_deviation_without_the_conjugate_is_caught(fock_space, random_sweep, monkeypatch):
    # A2^T A1 in place of A2^dag A1: on real profiles the two agree, so the profiles are complex
    space = fock_space(MOMENTA[2])
    specs, sweep = random_sweep(2)
    assert sweep.max_assembly_deviation <= ATOL
    block_deviation = onebody._block_deviation

    def transposed(a1, a2, *rest):  # the rows of A2 conjugated, so that the product reads A2^T A1
        return block_deviation(a1, {k: {j: v.conjugate() for j, v in row.items()} for k, row in a2.items()}, *rest)

    monkeypatch.setattr(onebody, "_block_deviation", transposed)
    got = onebody.pair_commutators(space, specs)
    assert not got["passed"]
    assert got["max_assembly_deviation"] >= 1.0


def test_a_conjugated_overlap_is_caught_by_both_engines(fock_space, monkeypatch):
    # c = conj(<f2|f1>) in the assembly c I - H: only the constant of [gamma_1, gamma_2^dag] sees it
    space = fock_space(MOMENTA[2])
    specs = [("R", "L", p) for p in random_profiles(space, np.random.default_rng(1))]
    assembly_terms = onebody._assembly_terms

    def conjugated(*args):
        coefficient, terms = assembly_terms(*args)
        return np.conj(coefficient), terms

    monkeypatch.setattr(onebody, "_assembly_terms", conjugated)
    want = pair_commutator_sweep(space, specs).max_assembly_deviation
    got = onebody.pair_commutators(space, specs)
    assert not got["passed"]
    assert got["max_assembly_deviation"] == pytest.approx(want, abs=ATOL) and want >= 0.1


def test_a_hopping_entry_off_the_block_rows_is_caught_by_both_engines(fock_space, monkeypatch):
    # gammas of (R, R) labels touch no psi_L mode, so A2^dag A1 has no row there: H is read over the union of entries
    space = fock_space(MOMENTA[2])
    specs = [("R", "R", p) for p in available_profiles(space.momenta).values()]
    stray = space.position("psi", "L", space.momenta[0])
    assembly_terms = onebody._assembly_terms

    def with_stray_entry(*args):
        coefficient, terms = assembly_terms(*args)
        return coefficient, terms + [(0.5, (stray, True), (stray, False))]

    monkeypatch.setattr(onebody, "_assembly_terms", with_stray_entry)
    got = onebody.pair_commutators(space, specs)
    assert not got["passed"] and got["max_assembly_deviation"] == pytest.approx(0.5, abs=ATOL)
    assert pair_commutator_sweep(space, specs).max_assembly_deviation == pytest.approx(0.5, abs=ATOL)


@pytest.mark.parametrize("count", [4, 5, 6])
def test_a_flipped_hopping_sign_fails_past_the_oracle_cap(monkeypatch, count):
    # beyond 3 momenta no Fock space exists to compare with; the block route must still hold and still catch the mutant
    modes = onebody.ModeTable(onebody.lattice_momenta(count))
    specs = specs_of(random_profiles(modes, np.random.default_rng(count)))
    honest = onebody.pair_commutators(modes, specs)
    assert honest["passed"] and honest["max_assembly_deviation"] <= 1e-14
    hopping_terms = onebody._hopping_terms
    monkeypatch.setattr(
        onebody, "_hopping_terms", lambda *args: [(-w, a, b) for w, a, b in hopping_terms(*args)]
    )
    got = onebody.pair_commutators(modes, specs)
    assert not got["passed"]
    assert got["max_assembly_deviation"] >= 1.0


@pytest.mark.parametrize("count", [4, 5, 6])
def test_sparse_rows_match_dense_blocks_past_the_oracle_cap(count):
    # no Fock space exists beyond 3 momenta: the row route is held to dense n x n numpy blocks over every mode
    modes = onebody.ModeTable(onebody.lattice_momenta(count))
    profiles = random_profiles(modes, np.random.default_rng(10 + count))
    specs = specs_of(profiles)
    got = onebody.pair_commutators(modes, specs)["max_assembly_deviation"]
    assert abs(got - dense_pair_commutators(modes, specs)) <= 1e-14
    frame = polarization_frame([0.3, -0.5, 0.8])
    got = onebody.polarization_modes(modes, profiles, frame)["deviation_by_particles"]
    want = dense_polarization_deviations(modes, profiles, frame)
    assert max(abs(got[str(n)] - value) for n, value in enumerate(want)) <= 1e-14
    assert want[2] > 0.1  # the occupation terms are exercised


def test_polarization_modes_match_the_basis_states(space):
    profiles = random_profiles(space, np.random.default_rng(2))
    frame = polarization_frame([0.3, -0.5, 0.8])
    got = onebody.polarization_modes(space, profiles, frame)
    want = polarization_boson_check(space, profiles, frame)
    assert sorted(got["deviation_by_particles"]) == ["0", "1", "2"]
    for n, value in want.deviation_by_particles.items():
        assert abs(got["deviation_by_particles"][str(n)] - value) <= ATOL
    assert abs(got["vacuum_deviation"] - want.vacuum_deviation) <= ATOL
    assert want.deviation_by_particles[2] > 0.1  # the occupation terms are exercised


def test_a_polarization_form_without_the_conjugate_is_caught(fock_space, monkeypatch):
    space = fock_space(MOMENTA[2])
    profiles = list(available_profiles(space.momenta).values())
    want = polarization_boson_check(space, profiles)

    def unconjugated(a_g, a_h):  # A_g,ij A_h,ij in place of A_g,ij conj(A_h,ij)
        slopes = {i: sum(x * a_h[i][j] for j, x in a_g[i].items() if j in a_h[i]) for i in a_g.keys() & a_h.keys()}
        return 0.5 * sum(slopes.values()), slopes

    monkeypatch.setattr(onebody, "_polarization_forms", unconjugated)
    got = onebody.polarization_modes(space, profiles)
    assert max(abs(got["deviation_by_particles"][str(n)] - v) for n, v in want.deviation_by_particles.items()) >= 0.1


def one_particle_margin(space, profiles, scale):
    """min(0, min over cases and one-particle basis states of sqrt(Gamma_in Gamma_dag) - |H|), from the Fock space."""
    one = np.flatnonzero(space.particle_numbers() == 1)
    worst = 0.0
    for field, branch in itertools.product(onebody.FIELDS, (+1, -1)):
        for prof_in, prof_dag, spin_in, spin_dag in itertools.product(profiles, profiles, onebody.SPINS, onebody.SPINS):
            terms = [(scale * w, a, b) for w, a, b in fock._hopping_terms(space, branch, field, spin_dag, spin_in, prof_dag, prof_in)]
            lhs = np.abs(fock._quadratic(space, terms).diagonal())
            g_in = fock._gamma_diagonal(space, prof_in, field, spin_in, branch)
            g_dag = fock._gamma_diagonal(space, prof_dag, field, spin_dag, branch)
            worst = min(worst, float(np.min((np.sqrt(g_in * g_dag) - lhs)[one])))
    return worst


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_schwartz_bound_matches_the_basis_states(space, monkeypatch, scale):
    # hopping weights scaled by 2 break the bound; the reported margin is then the witness's
    profiles = random_profiles(space, np.random.default_rng(3))
    hopping_terms = onebody._hopping_terms
    monkeypatch.setattr(onebody, "_hopping_terms", lambda *args: [(scale * w, a, b) for w, a, b in hopping_terms(*args)])
    monkeypatch.setattr(fock, "_hopping_terms", onebody._hopping_terms)
    got = onebody.schwartz_bound(space, profiles)
    want = fock.schwartz_exhaustive(space, profiles)
    assert got["cases"] == want.cases and got["states"] == want.states == space.dim
    assert got["passed"] == want.holds == (scale == 1.0)
    if scale == 1.0:
        assert abs(got["worst_margin"] - want.worst_margin) <= ATOL and got["worst_margin"] > -1e-15
    else:
        assert want.worst_margin <= got["worst_margin"] < 0.0
    monkeypatch.setattr(fock, "_hopping_terms", hopping_terms)
    assert abs(got["worst_margin"] - one_particle_margin(space, profiles, scale)) <= ATOL


def test_a_schwartz_certificate_with_one_gamma_twice_is_caught(fock_space, monkeypatch):
    # sqrt(g_in g_in) in place of sqrt(g_in g_dag): profiles that share a total tell the two apart
    space = fock_space(MOMENTA[2])
    profiles = random_profiles(space, np.random.default_rng(3))
    want = fock.schwartz_exhaustive(space, profiles)
    monkeypatch.setattr(
        onebody, "_schwartz_margins", lambda h, a, b: [math.sqrt(a.get(i, 0.0) * a.get(i, 0.0)) - abs(v) for i, v in h.items()]
    )
    got = onebody.schwartz_bound(space, profiles)
    assert want.holds and not got["passed"]
    assert abs(got["worst_margin"] - want.worst_margin) >= 1e-3


def composite_case(space, seed):
    rng = np.random.default_rng(seed)
    pairs = default_pairs(space)
    return pairs, random_weights(rng, len(pairs)), random_weights(rng, len(pairs))


@pytest.mark.parametrize("seed", [4, 5])
def test_composite_bosons_match_the_fock_suite(space, seed):
    pairs, w1, w2 = composite_case(space, seed)
    n_max = len(pairs)
    got = onebody.composite_bosons(space, pairs, w1, w2, n_max, 5, random.Random(seed))
    want = fock.composite_boson_suite(space, pairs, w1, n_max, second_weights=w2)
    assert abs(got["purity"] - want.purity) <= ATOL
    assert abs(got["commutator_identity_deviation"] - want.commutator_identity_deviation) <= ATOL
    assert got["saturation_order"] == want.saturation_order == len(pairs) + 1
    assert len(got["sandwich"]) == len(want.sandwich_rows) == n_max
    for row, ref in zip(got["sandwich"], want.sandwich_rows):
        assert row[0] == ref[0] and row[4] == ref[4]
        assert max(abs(a - b) for a, b in zip(row[1:4], ref[1:4])) <= ATOL
    values = onebody.cross_values(w1, w2, n_max)
    assert np.max(np.abs(np.array(values) - [r[1] for r in want.cross_rows])) <= ATOL
    assert got["passed"]


@pytest.mark.parametrize("seed", [6, 7])
def test_cross_values_match_the_pair_register(space, seed):
    pairs, w1, _ = composite_case(space, seed)
    w3 = np.random.default_rng(seed + 1).standard_normal(len(pairs)) * (1.0 + 1j)  # neither unit nor orthogonal
    stack = pair_stack(space, pairs)
    for second in (w1, w3):
        want = cross_commutator_values(stack, w1, second, len(pairs))
        assert np.max(np.abs(onebody.cross_values(w1, second, len(pairs)) - want)) <= ATOL


def test_conjecture_slack_matches_the_pair_register(space):
    pairs, w1, w2 = composite_case(space, 8)
    got = onebody.composite_bosons(space, pairs, w1, w2, 2, 20, random.Random(9))
    want = conjecture_worst_slack(pair_stack(space, pairs), random.Random(9), 20, 2)
    assert abs(got["conjecture_worst_slack"] - want) <= ATOL


def test_occupations_without_the_left_out_pair_are_caught(fock_space, monkeypatch):
    space = fock_space(MOMENTA[2])
    pairs, w1, w2 = composite_case(space, 4)
    want = fock.composite_boson_suite(space, pairs, w1, len(pairs), second_weights=w2)

    def not_left_out(lam, n_max):  # lam_i e_{N-1}(lam) / e_N(lam): pair i counted in its own complement
        e = [1.0] + [0.0] * n_max
        for x in lam:
            e = e[:1] + [e[a] + x * e[a - 1] for a in range(1, n_max + 1)]
        return [[x * e[n - 1] / e[n] for x in lam] for n in range(1, n_max + 1)]

    monkeypatch.setattr(onebody, "pair_occupations", not_left_out)
    got = onebody.composite_bosons(space, pairs, w1, w2, len(pairs), 1, random.Random(0))
    assert max(abs(row[1] - ref[1]) for row, ref in zip(got["sandwich"], want.sandwich_rows)) >= 1e-3


@pytest.mark.parametrize("size", [2, 4, 6, 12])
def test_unit_weights_are_unit_and_orthogonal(size):
    # sizes 2, 4, 6 are the fock-suite's pair counts; a single projection leaves overlaps up to 6e-14 at size 2
    rng = random.Random(size)
    for _ in range(2000):
        w1 = onebody._unit_weights(rng, size)
        w2 = onebody._unit_weights(rng, size, w1)
        assert abs(np.linalg.norm(w1) - 1.0) <= 1e-15 and abs(np.linalg.norm(w2) - 1.0) <= 1e-15
        assert abs(np.vdot(w1, w2)) <= 1e-15


def test_unit_weights_draw_real_then_imaginary_parts_from_one_stream():
    rng, copy = random.Random(3), random.Random(3)
    w = onebody._unit_weights(rng, 4)
    raw = np.array([complex(copy.gauss(0.0, 1.0), copy.gauss(0.0, 1.0)) for _ in range(4)])
    assert np.max(np.abs(w - raw / np.linalg.norm(raw))) <= 1e-15
    assert rng.random() == copy.random()  # nothing drawn beyond the 2 * size normals


def test_pair_occupations_match_subset_enumeration():
    # eight pairs over eight decades of lambda: every subset probability summed exactly
    lam = np.logspace(-8, 0, 8) * np.random.default_rng(10).uniform(0.5, 1.5, 8)
    got = onebody.pair_occupations(lam, len(lam))
    for n in range(1, len(lam) + 1):
        subsets = list(itertools.combinations(range(len(lam)), n))
        weights = np.array([math.prod(lam[list(s)]) for s in subsets])
        want = [sum(w for w, s in zip(weights, subsets) if i in s) / weights.sum() for i in range(len(lam))]
        np.testing.assert_allclose(got[n - 1], want, rtol=1e-13, atol=0.0)
        assert sum(got[n - 1]) == pytest.approx(n, rel=1e-14)


def test_saturation_and_shared_modes_are_refused():
    space = onebody.ModeTable([0])
    pairs = default_pairs(space)
    with pytest.raises(onebody.SaturationError):
        onebody.pair_occupations(np.array([0.0, 1.0]), 2)
    saturating, full = [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]  # one call per weight vector: the first saturates at N = 3
    with pytest.raises(onebody.SaturationError, match="nonzero weight"):
        onebody.pair_occupations(saturating, 3)
    assert [sum(row) for row in onebody.pair_occupations(full, 3)] == pytest.approx([1.0, 2.0, 3.0], rel=1e-14)
    shared = (pairs[0], (pairs[0][0], pairs[1][1]))
    with pytest.raises(ValueError, match="share the mode psi"):
        onebody.composite_bosons(space, shared, [0.6, 0.8], [0.8, -0.6], 1, 1, random.Random(0))


def test_composite_bosons_refuse_a_single_pair():
    # one pair left the second draw a normalised zero vector: NaN weights, NaN slack and passed false
    space = onebody.ModeTable([0])
    pairs = default_pairs(space)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="at least 2 pairs, got 1"):
        onebody.composite_bosons(space, pairs[:1], [1.0], [1.0], 1, 5, rng)
    assert rng.random() == random.Random(0).random()  # refused before any draw
    got = onebody.composite_bosons(space, pairs[:2], [0.6, 0.8], [0.8, -0.6], 2, 5, random.Random(0))
    assert got["passed"] and math.isfinite(got["conjecture_worst_slack"])


@pytest.mark.parametrize("lam,first", [([1e-200, 1e-200], 2), ([1.0 / 2000] * 2000, None)])
def test_an_underflowing_e_n_is_not_called_saturation(lam, first):
    # e_N(lam) below the smallest normal float with N <= the nonzero pairs: (c^dag)^N |0> is not 0 there
    lam, tiny = np.array(lam), Fraction(sys.float_info.min)
    if first is None:  # uniform lam = 1/P: e_N = C(P, N) / P^N exactly
        first = next(n for n in itertools.count(1) if Fraction(math.comb(len(lam), n), len(lam) ** n) < tiny)
    with pytest.raises(FloatingPointError, match=f"underflows below the smallest normal float from N = {first},"):
        onebody.pair_occupations(lam, min(200, len(lam)))
    below = onebody.pair_occupations(lam, first - 1)
    np.testing.assert_allclose([sum(row) for row in below], np.arange(1, first), rtol=1e-13)


def test_lattice_profile_is_a_validated_named_tuple():
    profile = LatticeProfile(total=2, weights=((1, 0.6), (-1, 0.8j)))
    assert profile == (2, ((-1, 0.8j), (1, 0.6 + 0j)))  # sorted by q, with complex weights
    assert (profile.half, profile.weight(1), profile.weight(-1), profile.weight(3)) == (1, 0.6, 0.8j, 0.0)
    assert profile._replace(total=4) == (4, profile.weights)
    # _replace runs the same checks as the constructor
    for bad, message in [({"total": 3}, "even"), ({"weights": ((0, 0.5),)}, "normalized"),
                         ({"weights": ((0, 0.6), (0, 0.8))}, "duplicate"), ({"weights": ((0, math.nan),)}, "finite")]:
        with pytest.raises(ValueError, match=message):
            profile._replace(**bad)


@pytest.mark.parametrize("weight", [1e200, 1.5e154, complex(0.0, 1e200), complex(1e308, 1e308)])
def test_lattice_profile_refuses_a_huge_weight_with_a_value_error(weight):
    # abs(w) ** 2 raised OverflowError past about 1e154, and abs() of a complex past about 1.3e308 does too
    with pytest.raises(ValueError, match=r"sum\|f\|\^2 = inf"):
        LatticeProfile(0, [(0, weight)])


def test_a_polarization_frame_is_the_rows_that_onebody_reads():
    frame = polarization_frame([0.3, -0.5, 0.8])
    assert type(frame)._fields == ("u1", "u2", "e")
    assert tuple(frame) == (frame.u1, frame.u2, frame.e)
    assert onebody.polarization_matrices(frame) == onebody.polarization_matrices([frame.u1, frame.u2, frame.e])
