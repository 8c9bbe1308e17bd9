"""Stars read off atom masks (`families.supersets`, and `families.above`, which
confirms each star member by one `leq`), the elements below one element
(`families.below`), popcount meet ranks (`families.meet_rank`, and d_r's
`families.atom_count`) and the search graph built from stars, checked
against brute-force scans.

The whole-fiber loops that coverage, the star seed and d_r ran before they
moved onto `above`, `below` and atom popcounts, and the pairwise meets the
intersection graph was built from before it became a union of stars, are kept
here as oracles; outputs, witnesses included, must be identical.
"""

from __future__ import annotations

import random

import pytest

from ekrlattice import designs, ekr, families, parameters, search
from ekrlattice.designs import DesignCertificate, full_fiber
from ekrlattice.errors import FamilyMismatchError, VerificationError

from conftest import GRID_SPECS, ODD_FIELD_SPECS, sampled_universe, seed_family, star_members

MEET_RANK_SPECS = (
    "johnson:v=6,m=3",
    "grassmann:v=5,m=2,q=2",
    "grassmann:v=4,m=2,q=3",
    "grassmann:v=4,m=2,q=4",
    "hamming:m=3,n=3",
    "bilinear:m=2,n=2,q=3",
    "bilinear:m=2,n=2,q=4",
    "injection:m=3,n=4",
    "nbjohnson:m=4,n=3,k=2",
    "signed:m=4,k=2",
)

# q = 3 tells a rank-s meet's q^s - 1 atoms apart from s atoms, which q = 2 at s <= 2 does not
GRAPH_SPECS = (*GRID_SPECS, "grassmann:v=4,m=2,q=3", "bilinear:m=2,n=2,q=3")


def brute_above(spec, i, elements):
    return [
        sum(1 << j for j, x in enumerate(elements) if families.leq(z, x))
        for z in families.enumerate_fiber(spec, i)
    ]


def coverage_oracle(spec, elements, t):
    fiber = families.enumerate_fiber(spec, t)
    counts = [sum(1 for x in elements if families.leq(z, x)) for z in fiber]
    first = counts[0]
    for z, c in zip(fiber, counts):
        if c != first:
            return None, ((fiber[0], first), (z, c))
    return first, None


def greedy_oracle(cert, s):
    best_size, best_members = 0, ()
    for z in families.enumerate_fiber(cert.spec, s):
        members = star_members(cert.elements, z)
        if len(members) > best_size:
            best_size, best_members = len(members), members
    return best_size, best_members


def dr_oracle(cert, s, r):
    best = witness = None
    for x in families.enumerate_fiber(cert.spec, s):
        star_x = [z for z in cert.elements if families.leq(x, z)]
        for y in cert.elements:
            if families.meet(x, y).rank != r:
                continue
            count = sum(1 for z in star_x if families.meet(z, y).rank >= s)
            if best is None or count > best:
                best, witness = count, (x, y)
    return best, witness


def graph_oracle(elements, s):
    """Adjacency by decoded pairwise meets, diagonal bits set."""
    return tuple(sum(1 << k for k, y in enumerate(elements) if families.meet(x, y).rank >= s) for x in elements)


def subfamilies(spec, seed):
    """The top fiber, one member, and a few seeded random subsets of it."""
    rng = random.Random(seed)
    top = families.enumerate_fiber(spec, spec.top_rank)
    picks = [rng.sample(top, rng.randint(2, min(len(top), 24))) for _ in range(3)]
    return [top, top[len(top) // 2 :][:1], *map(tuple, picks)]


SPEC_CASES = (*((text, None) for text in GRID_SPECS), *ODD_FIELD_SPECS)


@pytest.mark.parametrize("text, per_rank", SPEC_CASES, ids=[text for text, _ in SPEC_CASES])
def test_above_matches_a_leq_scan_at_every_rank(text, per_rank):
    spec = families.parse_family_spec(text)
    rng = random.Random(str(spec))
    everything = tuple(sampled_universe(spec, per_rank))
    if per_rank is None:
        tops = subfamilies(spec, str(spec))
    else:  # the sampled top fiber: a full odd-field top fiber makes the scan slow
        tops = [tuple(x for x in everything if x.rank == spec.top_rank)]
    cases = [*tops, (families.least(spec),), tuple(rng.sample(everything, 20))]
    for elements in cases:
        for i in range(spec.top_rank + 1):
            assert families.above(spec, i, elements) == brute_above(spec, i, elements), (i, len(elements))


FULL_FIBER_CASES = (*GRID_SPECS, *(text for text, _ in ODD_FIELD_SPECS))


@pytest.mark.parametrize("text", FULL_FIBER_CASES)
def test_above_calls_leq_once_per_star_member(text, monkeypatch):
    # |Y| nu(i, M) incidences at rank i, each confirmed by one `leq` that holds
    spec = families.parse_family_spec(text)
    top = families.enumerate_fiber(spec, spec.top_rank)
    results = []
    leq = families.leq

    def recording_leq(z, x):
        results.append(leq(z, x))
        return results[-1]

    monkeypatch.setattr(families, "leq", recording_leq)
    for i in range(spec.top_rank + 1):
        results.clear()
        families.above(spec, i, top)
        assert len(results) == len(top) * parameters.nu(spec, i, spec.top_rank), i
        assert all(results), i


def test_supersets_matches_a_containment_scan():
    rng = random.Random("supersets")
    for width, count in ((1, 1), (6, 10), (12, 40), (40, 70)):
        masks = [rng.getrandbits(width) for _ in range(count)]
        keys = [0, *(rng.getrandbits(width) & rng.getrandbits(width) for _ in range(30)), *masks[:5]]
        keys += [1 << width, masks[0] | 1 << width]  # an atom that no mask holds
        expected = [sum(1 << j for j, mask in enumerate(masks) if not key & ~mask) for key in keys]
        found = families.supersets(keys, masks)
        assert found == expected, (width, count)
        assert found[0] == (1 << count) - 1 and found[-2:] == [0, 0]
    assert families.supersets([0, 1], []) == [0, 0]


def test_make_certificate_raises_when_leq_refuses_a_star_member(monkeypatch):
    spec = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    cert = full_fiber(spec, 1)
    leq = families.leq
    z = families.enumerate_fiber(spec, 1)[3]
    x = [y for y in cert.elements if leq(z, y)][-1]
    monkeypatch.setattr(families, "leq", lambda a, b: (a, b) != (z, x) and leq(a, b))
    with pytest.raises(AssertionError, match="leq refuses"):
        designs.make_certificate(spec, cert.elements, 1)


@pytest.mark.parametrize("text, per_rank", SPEC_CASES, ids=[text for text, _ in SPEC_CASES])
def test_below_matches_a_leq_scan_at_every_rank(text, per_rank):
    spec = families.parse_family_spec(text)
    for x in sampled_universe(spec, per_rank):
        for i in range(x.rank + 1):
            expected = [z for z in families.enumerate_fiber(spec, i) if families.leq(z, x)]
            assert families.below(x, i) == expected, (x, i)
            assert parameters.nu(spec, i, x.rank) == len(expected)


def test_above_tests_each_pair_key_once_on_a_strength_2_array(monkeypatch):
    # at rank 2 a pair key names one element, and an index-1 array covers each once
    cert = designs.generate_linear_oa(5, 3)
    expected = brute_above(cert.spec, 2, cert.elements)
    results = []
    leq = families.leq

    def recording_leq(z, x):
        results.append(leq(z, x))
        return results[-1]

    monkeypatch.setattr(families, "leq", recording_leq)
    assert families.above(cert.spec, 2, cert.elements) == expected
    assert results == [True] * families.fiber_size(cert.spec, 2)


def test_above_at_rank_0_covers_every_element():
    spec = families.parse_family_spec("grassmann:v=4,m=2,q=3")
    elements = families.enumerate_fiber(spec, 2)
    assert families.above(spec, 0, elements) == [(1 << len(elements)) - 1]


@pytest.mark.parametrize("text", MEET_RANK_SPECS)
def test_meet_rank_is_the_rank_of_the_meet(text):
    spec = families.parse_family_spec(text)
    top = families.enumerate_fiber(spec, spec.top_rank)
    seen = set()
    for i, x in enumerate(top):
        for y in top[i:]:
            rank = families.meet_rank(x, y)
            assert rank == families.meet(x, y).rank == families.meet_rank(y, x), (x, y)
            seen.add(rank)
    assert seen == set(range(spec.top_rank + 1))  # every meet rank occurs
    least = families.least(spec)
    assert families.meet_rank(least, top[0]) == 0


def test_meet_rank_rejects_mixed_families():
    a = families.least(families.parse_family_spec("johnson:v=6,m=3"))
    b = families.least(families.parse_family_spec("johnson:v=7,m=3"))
    with pytest.raises(FamilyMismatchError):
        families.meet_rank(a, b)


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_coverage_seed_and_dr_match_the_scans(text):
    spec = families.parse_family_spec(text)
    top = spec.top_rank
    for elements in subfamilies(spec, text):
        for t in range(top + 1):
            lam, witness = coverage_oracle(spec, elements, t)
            if witness is None:
                assert designs.make_certificate(spec, elements, t).indices[t] == lam
            else:
                with pytest.raises(VerificationError) as caught:
                    designs.make_certificate(spec, elements, t)
                assert list(caught.value.context["witness"].values()) == [*witness[0], *witness[1]]
        cert = DesignCertificate(spec, elements, top, (1,) * (top + 1))  # unverified: indices unused
        for s in range(1, top + 1):
            assert seed_family(cert, search._graph(cert, s)[1]) == greedy_oracle(cert, s)
            for r in range(s):
                report = ekr.compute_dr(cert, s, r)
                assert (report.d_r, report.witness) == dr_oracle(cert, s, r), (s, r)


def graph_cases(text):
    spec = families.parse_family_spec(text)
    top = spec.top_rank
    for elements in subfamilies(spec, text):
        cert = DesignCertificate(spec, elements, top, (1,) * (top + 1))  # unverified: indices unused
        for s in range(1, top + 1):
            yield cert, s


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_star_graph_matches_pairwise_meets(text):
    for cert, s in graph_cases(text):
        assert search._graph(cert, s)[0] == graph_oracle(cert.elements, s), (len(cert.elements), s)


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_pairwise_graph_above_the_star_gate_matches_pairwise_meets(text, monkeypatch):
    cases = list(graph_cases(text))  # built before the cap is lowered
    monkeypatch.setattr(families, "FIBER_CAP", 0)
    monkeypatch.setattr(families, "below", lambda x, i: pytest.fail("took the stars route"))
    for cert, s in cases:
        assert search._graph(cert, s) == (graph_oracle(cert.elements, s), 1), (len(cert.elements), s)


@pytest.mark.parametrize("text", GRAPH_SPECS)
def test_both_graph_routes_give_the_same_answers(text, monkeypatch):
    # the seed changes only how fast the search proves the optimum, never what it returns
    def answers(cert, s):
        result = search.max_intersecting(cert, s, deterministic=True, enumerate_all=True)
        return result.optimum, result.status, result.witness, result.all_max

    cases = list(graph_cases(text))  # built before the cap is lowered
    expected = [answers(cert, s) for cert, s in cases]
    monkeypatch.setattr(families, "FIBER_CAP", 0)
    monkeypatch.setattr(families, "below", lambda x, i: pytest.fail("took the stars route"))
    for (cert, s), stars in zip(cases, expected):
        assert answers(cert, s) == stars, (len(cert.elements), s)


@pytest.mark.parametrize("text", ("johnson:v=7,m=3", "grassmann:v=4,m=2,q=2", "bilinear:m=2,n=2,q=2"))
def test_search_builds_one_star_table_and_no_pairwise_meets(text, monkeypatch):
    cert = full_fiber(families.parse_family_spec(text))
    expected = search.max_intersecting(cert, 1, deterministic=True)
    calls = []
    below = families.below
    monkeypatch.setattr(families, "below", lambda x, i: calls.append(x) or below(x, i))
    monkeypatch.setattr(families, "meet_rank", lambda x, y: pytest.fail("compared a pair"))
    assert search.max_intersecting(cert, 1, deterministic=True) == expected
    assert calls == list(cert.elements)
    # at the certificate's strength the coverage pass's stars are the table
    verified = designs.make_certificate(cert.spec, cert.elements, 1)
    calls.clear()
    assert search.max_intersecting(verified, 1, deterministic=True) == expected
    assert calls == []


@pytest.mark.parametrize("text", GRID_SPECS)
def test_dr_reads_near_from_the_stars(text, monkeypatch):
    spec = families.parse_family_spec(text)
    top = spec.top_rank
    cert = full_fiber(spec)
    expected = {(s, r): ekr.compute_dr(cert, s, r) for s in range(1, top + 1) for r in range(s)}
    monkeypatch.setattr(families, "intersection_masks", lambda members, s: pytest.fail("built a pairwise table"))
    for (s, r), report in expected.items():
        assert ekr.compute_dr(cert, s, r) == report


@pytest.mark.parametrize(
    "cert",
    (designs.generate_linear_oa(5, 3), full_fiber(families.parse_family_spec("bilinear:m=2,n=2,q=3"))),
    ids=("oa5", "bilinear-q3"),
)
def test_dr_reads_meet_ranks_off_popcounts(cert, monkeypatch):
    t = cert.strength
    expected = {(s, r): dr_oracle(cert, s, r) for s in range(1, t + 1) for r in range(s)}
    monkeypatch.setattr(families, "meet_rank", lambda x, y: pytest.fail("called meet_rank"))
    monkeypatch.setattr(families, "meet", lambda x, y: pytest.fail("decoded a meet"))
    for (s, r), found in expected.items():
        report = ekr.compute_dr(cert, s, r)
        assert (report.d_r, report.witness) == found, (s, r)
