"""Exact search: graph construction, bounds, determinism, enumeration,
symmetry orbits.

An independent Bron-Kerbosch enumerator acts as the oracle for optimum
sizes and maximum-family lists on small instances; the search without
orbits is the oracle for the search that starts one root per orbit.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ekrlattice
from ekrlattice import designs, ekr, families, parameters, search
from ekrlattice.designs import full_fiber, generate_linear_oa
from ekrlattice.errors import BudgetExceededError

from conftest import GRID_SPECS, seed_family, star_members

SAMPLES_DIR = Path(ekrlattice.__file__).parent / "samples"


def bron_kerbosch_max_cliques(adj):
    """All maximum cliques via pivotless Bron-Kerbosch on bitmask adjacency."""
    n = len(adj)
    stripped = [adj[i] & ~(1 << i) for i in range(n)]
    best: list[int] = []

    def recurse(r, p, x):
        if not p and not x:
            best.append(r)
            return
        probe = p
        while probe:
            low = probe & -probe
            v = low.bit_length() - 1
            recurse(r | low, p & stripped[v], x & stripped[v])
            p &= ~low
            x |= low
            probe ^= low

    recurse(0, (1 << n) - 1, 0)
    omega = max(mask.bit_count() for mask in best)
    return omega, sorted(mask for mask in best if mask.bit_count() == omega)


def _orbits(n, generators):
    """The orbits on range(n), each a list opened at its least point, of the group
    that `generators` (permutations as lists of images) generate."""
    seen, orbits = set(), []
    for j in range(n):
        if j not in seen:
            seen.add(j)
            orbits.append([j])
            for k in orbits[-1]:  # grows while it is walked: the closure under `generators`
                for image in generators:
                    if image[k] not in seen:
                        seen.add(image[k])
                        orbits[-1].append(image[k])
    return orbits


def masks_of(result, cert):
    pos = {x: i for i, x in enumerate(cert.elements)}
    out = []
    for family in result.all_max:
        mask = 0
        for x in family:
            mask |= 1 << pos[x]
        out.append(mask)
    return sorted(out)


def graph_of(cert, s):
    return search._graph(cert, s)[0]


def seed_of(cert, s):
    return seed_family(cert, search._graph(cert, s)[1])


def test_build_graph_fano_is_complete(fano_cert):
    adjacency = graph_of(fano_cert, 1)
    full = (1 << len(adjacency)) - 1
    assert all(mask == full for mask in adjacency)


def test_build_graph_hamming_degrees():
    cert = full_fiber(families.parse_family_spec("hamming:m=2,n=5"))
    adjacency = graph_of(cert, 1)
    assert len(adjacency) == 25
    assert all(mask.bit_count() == 9 for mask in adjacency)  # 8 neighbours + self


def test_build_graph_top_rank_has_no_edges(fano_cert):
    adjacency = graph_of(fano_cert, 3)
    assert all(adjacency[i] == 1 << i for i in range(len(adjacency)))


def test_build_graph_vertex_budget(fano_cert, monkeypatch):
    monkeypatch.setattr(search, "VERTEX_CAP", 3)
    with pytest.raises(BudgetExceededError) as err:
        search.max_intersecting(fano_cert, 1)
    assert str(err.value) == "the search graph needs 7 vertices, above the cap of 3"
    assert err.value.context == {"need": 7, "cap": 3}


def test_greedy_lower_bound_examples(fano_cert):
    assert seed_of(generate_linear_oa(11, 3), 1)[0] == 11
    size, members = seed_of(fano_cert, 1)
    assert size == 3
    assert ekr.is_intersecting(fano_cert.spec, members, 1)
    cert = full_fiber(families.parse_family_spec("johnson:v=5,m=2"))
    assert seed_of(cert, 1)[0] == 4


def test_star_seed_above_the_fiber_cap_is_the_least_member(monkeypatch):
    # blocks 1..20 and 21..40: a strength-1 design whose graph has no edge at s=6
    spec = families.parse_family_spec("johnson:v=40,m=20")
    rows = [" ".join(map(str, range(1, 21))), " ".join(map(str, range(21, 41)))]
    cert = designs.make_certificate(spec, [families.parse_element(spec, row) for row in rows], 1)
    assert families.fiber_size(cert.spec, 6) > families.FIBER_CAP  # 3,838,380
    monkeypatch.setattr(families, "_fiber_payloads", lambda spec, i: pytest.fail(f"built the rank-{i} fiber"))
    assert seed_of(cert, 6) == (1, (min(cert.elements),))
    result = search.max_intersecting(cert, 6, deterministic=True)
    assert (result.optimum, result.status) == (1, "proved-optimal")
    assert result.witness == (min(cert.elements),)
    # three complementary pairs: 6 members x C(20, 10) centers below each is above the cap
    blocks = [range(1, 21), range(11, 31), range(1, 41, 2)]
    rows = [sorted(block) for block in blocks] + [sorted(set(range(1, 41)) - set(block)) for block in blocks]
    cert = designs.make_certificate(spec, [families.parse_element(spec, " ".join(map(str, row))) for row in rows], 1)
    assert len(cert.elements) * parameters.nu(spec, 10, 20) > families.FIBER_CAP  # 1,108,536
    assert seed_of(cert, 10) == (1, (min(cert.elements),))
    assert search.max_intersecting(cert, 10).status == "proved-optimal"


def test_star_seed_looks_only_below_the_members(monkeypatch):
    # three disjoint blocks: a strength-1 design whose graph has no edge at s=5;
    # the rank-5 fiber has 142,506 elements, the members 3 x 252 centers
    spec = families.parse_family_spec("johnson:v=30,m=10")
    rows = [" ".join(map(str, range(start, start + 10))) for start in (1, 11, 21)]
    cert = designs.make_certificate(spec, [families.parse_element(spec, row) for row in rows], 1)
    monkeypatch.setattr(families, "_fiber_payloads", lambda spec, i: pytest.fail(f"built the rank-{i} fiber"))
    start = time.perf_counter()
    result = search.max_intersecting(cert, 5, deterministic=True)
    assert time.perf_counter() - start < 0.1
    assert (result.optimum, result.witness, result.status) == (1, (min(cert.elements),), "proved-optimal")


def test_hamming_m2_n5_all_maximum_families_are_the_ten_stars():
    hs = families.parse_family_spec("hamming:m=2,n=5")
    cert = full_fiber(hs)
    result = search.max_intersecting(cert, 1, enumerate_all=True)
    assert result.optimum == 5
    assert result.status == "proved-optimal"
    assert len(result.all_max) == 10
    stars = set()
    for z in families.enumerate_fiber(hs, 1):
        stars.add(star_members(cert.elements, z))
    assert set(result.all_max) == stars
    # agreement with the independent enumerator
    omega, cliques = bron_kerbosch_max_cliques(graph_of(cert, 1))
    assert omega == 5
    assert masks_of(result, cert) == cliques


def test_johnson_v7_optimum_is_the_classical_star_size():
    cert = full_fiber(families.parse_family_spec("johnson:v=7,m=3"))
    result = search.max_intersecting(cert, 1)
    assert result.optimum == 15
    assert result.status == "proved-optimal"
    assert ekr.min_meet_rank(cert.spec, result.witness) >= 1
    omega, _ = bron_kerbosch_max_cliques(graph_of(cert, 1))
    assert omega == 15


def test_fano_whole_design_is_optimal(fano_cert):
    result = search.max_intersecting(fano_cert, 1, enumerate_all=True)
    assert result.optimum == 7
    assert result.all_max == (tuple(sorted(fano_cert.elements)),)


def test_oa11_optimum_and_star_count():
    cert = generate_linear_oa(11, 3)
    result = search.max_intersecting(cert, 1, enumerate_all=True)
    assert result.optimum == 11
    assert len(result.all_max) == 33
    for family in result.all_max:
        verdict = ekr.verify_extremal(cert, family, 1)
        assert verdict.status == "extremal-star"


def test_witness_is_always_valid_and_greedy_never_exceeds():
    for text, s in (("hamming:m=2,n=5", 1), ("johnson:v=7,m=3", 1), ("hamming:m=3,n=2", 2)):
        cert = full_fiber(families.parse_family_spec(text))
        result = search.max_intersecting(cert, s)
        assert ekr.min_meet_rank(cert.spec, result.witness) >= s
        assert len(result.witness) == result.optimum
        assert seed_of(cert, s)[0] <= result.optimum


def test_greedy_equals_optimum_when_conditions_hold():
    # the certified instances: the best star is already optimal
    instances = (
        full_fiber(families.parse_family_spec("hamming:m=2,n=5")),
        generate_linear_oa(11, 3),
    )
    for cert in instances:
        assert ekr.check_conditions(cert, 1).theorem_form
        assert seed_of(cert, 1)[0] == search.max_intersecting(cert, 1).optimum


def test_bound_certified_on_truncated_families():
    # nbjohnson and signed full fibers at s=1 satisfy the hypotheses
    # (row 4 < 9); search must prove optimum 9 with only star maxima
    for text in ("nbjohnson:m=4,n=3,k=2", "signed:m=4,k=2"):
        cert = full_fiber(families.parse_family_spec(text))
        report = ekr.check_conditions(cert, 1)
        assert report.theorem_form
        assert (report.rows[0].lhs, report.rows[0].rhs) == (4, 9)
        result = search.max_intersecting(cert, 1, enumerate_all=True)
        assert result.optimum == 9 == report.bound
        assert len(result.all_max) == 12  # one star per rank-1 center
        for family in result.all_max:
            assert ekr.verify_extremal(cert, family, 1).status == "extremal-star"


def is_clique(adj, mask):
    probe = mask
    while probe:
        low = probe & -probe
        if mask & ~adj[low.bit_length() - 1]:
            return False
        probe ^= low
    return True


def vertex_tuple(mask):
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


@st.composite
def relabeled_graphs(draw):
    """A random graph on up to 14 vertices and a random vertex order of it."""
    n = draw(st.integers(0, 14))
    density = draw(st.sampled_from((0.25, 0.5, 0.75, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    adj = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj, draw(st.permutations(range(n)))


@settings(deadline=None, max_examples=200)
@given(relabeled_graphs(), st.data())
def test_solver_matches_bron_kerbosch_under_relabeling(graph, data):
    adj, order = graph
    relabeled = search._relabel(adj, order)
    omega, cliques = bron_kerbosch_max_cliques(relabeled)
    original = sorted(sum(1 << order[i] for i in vertex_tuple(m)) for m in cliques)
    assert bron_kerbosch_max_cliques(adj) == (omega, original)

    size, mask, proved = search._Solver(relabeled).maximize()
    assert (size, proved) == (omega, True) and mask in cliques
    seed = data.draw(st.sampled_from(cliques)) & data.draw(st.integers(0, 2**14 - 1))  # a subclique
    seeded = search._Solver(relabeled)
    size, mask, proved = seeded.maximize(seed)
    assert (size, proved) == (omega, True) and mask in cliques

    masks, overflow = search._Solver(relabeled).enumerate_exact(omega)
    assert not overflow and sorted(masks) == cliques
    least = search._Solver(relabeled).lexicographically_least(omega)
    assert vertex_tuple(least) == min(vertex_tuple(m) for m in cliques)

    if seeded.nodes:
        budget = data.draw(st.integers(0, seeded.nodes - 1))
        size, mask, proved = search._Solver(relabeled).maximize(seed, budget)
        assert not proved
        assert seed.bit_count() <= size == mask.bit_count() and is_clique(relabeled, mask)


def test_result_is_reverified_before_it_is_returned(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=6,m=3"))

    def non_clique(self, *args, **kwargs):
        far = next(u for u in range(1, self.n) if not (self.adj[0] >> u) & 1)
        return 2, 1 | 1 << far, True

    monkeypatch.setattr(search._Solver, "maximize", non_clique)
    with pytest.raises(AssertionError):
        search.max_intersecting(cert, 1)
    monkeypatch.setattr(search._Solver, "maximize", lambda self, *args, **kwargs: (11, 0b111, True))
    with pytest.raises(AssertionError):
        search.max_intersecting(cert, 1)


def test_deterministic_witness_is_lexicographically_least(monkeypatch):
    cert = full_fiber(families.parse_family_spec("hamming:m=2,n=5"))

    def unused(self, omega):
        raise AssertionError("lexicographic reconstruction ran although all_max was enumerated")

    monkeypatch.setattr(search._Solver, "lexicographically_least", unused)
    result = search.max_intersecting(cert, 1, deterministic=True, enumerate_all=True)
    expected = min(result.all_max)
    assert result.witness == expected
    monkeypatch.undo()
    again = search.max_intersecting(cert, 1, deterministic=True)
    assert again.witness == expected


def test_nodes_include_the_lexicographic_reconstruction():
    # one orbit: the root branches once, and each node below once per orbit of
    # its stabilizer; the reconstruction adds its 153 nodes
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    assert search.max_intersecting(cert, 2).nodes == 20
    assert search.max_intersecting(cert, 2, deterministic=True).nodes == 173


def test_the_stabilizer_splits_a_one_orbit_proof():
    # 4,144 nodes with one root per orbit alone, 204 with the root's children's stabilizers alone
    cert = full_fiber(families.parse_family_spec("johnson:v=10,m=4"))
    result = search.max_intersecting(cert, 1)
    assert (result.optimum, result.nodes, result.orbits) == (84, 19, 1)


def test_without_a_kept_symmetry_the_search_is_node_for_node_unchanged(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    monkeypatch.setattr(families, "symmetries", lambda spec: [])
    result = search.max_intersecting(cert, 2)
    assert (result.optimum, result.nodes, result.orbits) == (17, 1040, 70)


def grid_and_sample_certs():
    yield from (full_fiber(families.parse_family_spec(text)) for text in GRID_SPECS)
    yield from (designs.load_design(SAMPLES_DIR / name) for name in ("fano.design", "oa3.design", "oa11.design"))


def differential_certs():
    yield from grid_and_sample_certs()
    yield from (generate_linear_oa(q, 3) for q in (3, 5, 7))


@pytest.mark.parametrize("cert", differential_certs(), ids=lambda cert: f"{cert.spec}/{cert.size}")
def test_rooted_search_matches_the_exhaustive_one(cert):
    for s in range(1, cert.spec.top_rank + 1):
        result = search.max_intersecting(cert, s, enumerate_all=True)
        plain = search._Solver(graph_of(cert, s))
        optimum = plain.maximize()[0]
        assert (result.optimum, result.status) == (optimum, "proved-optimal"), s
        masks, overflow = plain.enumerate_exact(optimum)
        assert (masks_of(result, cert), result.all_max_overflow) == (sorted(masks), overflow), s


@pytest.mark.parametrize("cert", grid_and_sample_certs(), ids=lambda cert: f"{cert.spec}/{cert.size}")
def test_the_roots_merged_orbits_are_the_closure_reference(cert):
    # the same partition, in each search's own labels, with the same least points in the same order
    generators = search.kept_symmetries(cert)
    for s in range(1, cert.spec.top_rank + 1):
        solver = search._Solver(graph_of(cert, s), generators)
        reference = _orbits(solver.n, solver.generators)
        assert [sorted(o) for o in solver.orbits] == [sorted(o) for o in reference], s
        assert [o[0] for o in solver.orbits] == [o[0] for o in reference], s


@pytest.mark.parametrize(
    "text", (*GRID_SPECS, "grassmann:v=4,m=2,q=4", "bilinear:m=2,n=2,q=3", "signed:m=3,k=2", "hamming:m=1,n=3")
)
def test_candidates_are_automorphisms_and_a_full_top_fiber_is_one_orbit(text):
    spec = families.parse_family_spec(text)
    for g in families.symmetries(spec):
        for i in range(spec.top_rank + 1):
            masks = {x.atoms for x in families.enumerate_fiber(spec, i)}
            assert {g(x) for x in families.enumerate_fiber(spec, i)} == masks, (i, text)
    cert = full_fiber(spec)
    orbits = _orbits(cert.size, search.kept_symmetries(cert))
    assert len(orbits) == 1 and sorted(orbits[0]) == list(range(cert.size))


def swap_atoms(a, b):
    """The transposition of atoms a and b, acting on an element's atom mask."""
    return lambda x: x.atoms ^ ((1 << a | 1 << b) if (x.atoms >> a ^ x.atoms >> b) & 1 else 0)


def test_a_candidate_that_moves_the_design_is_dropped(monkeypatch):
    cert = generate_linear_oa(3, 3)  # rows (x, y, x + y): only the position swap (1 2) keeps them
    real = families.symmetries(cert.spec)
    assert len(_orbits(cert.size, search.kept_symmetries(cert))) == 6
    expected = search.max_intersecting(cert, 1, enumerate_all=True)
    # values 0 and 1 swapped at position 3, atoms 6 and 7: (0, 0, 0) leaves the design
    monkeypatch.setattr(families, "symmetries", lambda spec: [swap_atoms(6, 7), *real])
    assert len(_orbits(cert.size, search.kept_symmetries(cert))) == 6
    result = search.max_intersecting(cert, 1, enumerate_all=True)
    assert (result.optimum, result.all_max, result.orbits) == (expected.optimum, expected.all_max, 6)


def test_a_wrong_orbit_partition_loses_the_optimum():
    # K1,3 with centre 0 and leaves 1, 2, 3, beside the triangle 4, 5, 6: no
    # automorphism moves the centre, yet the 7-cycle makes one orbit, and the
    # root branches only on its least vertex, the centre
    adj = [0b0001111, 0b0000011, 0b0000101, 0b0001001, 0b1110000, 0b1110000, 0b1110000]
    assert search._Solver(adj).maximize()[0] == 3
    assert search._Solver(adj, [[1, 2, 3, 4, 5, 6, 0]]).maximize()[0] == 2


def test_a_wrong_stabilizer_loses_the_optimum_below_the_root(monkeypatch):
    # the triangular prism: triangles 0 2 4 and 1 3 5 and the rungs x, x + 3.
    # The rotation x -> x + 1 is an automorphism, so the root's one orbit is
    # right; the transposition (3 4) fixes the root 0 but is no automorphism,
    # and the orbits it brings into the stabilizer, on the neighbours 2, 3 and
    # 4 of 0, lose the triangle 0 2 4
    adj = [sum(1 << (x + d) % 6 for d in (0, 2, 3, 4)) for x in range(6)]
    rotation, swap = [1, 2, 3, 4, 5, 0], [0, 1, 2, 4, 3, 5]
    assert search._Solver(adj).maximize()[0] == 3
    assert search._Solver(adj, [rotation]).maximize()[0] == 3
    assert search._Solver(adj, [rotation, swap]).maximize()[0] == 2
    monkeypatch.setattr(search, "_stabilizer", lambda adj, group, within, r, tries: ((group[0], [], []), []))
    assert search._Solver(adj, [rotation, swap]).maximize()[0] == 3  # the root step alone keeps it


def test_a_wrong_stabilizer_loses_the_optimum_at_depth_two(monkeypatch):
    # the circulant graph on Z_18 with steps +-1, 3, 4, 5, 6 and 7: the rotation
    # and the reflection are automorphisms, so the root's one orbit is right;
    # the transposition (1 10) is none, and the groups it brings in below
    # depth one lose the 6-cliques, while the root's child's alone keep them
    adj = [sum(1 << (x + d) % 18 for d in (0, 1, 3, 4, 5, 6, 7, -1, -3, -4, -5, -6, -7)) for x in range(18)]
    rotation, reflection = [(x + 1) % 18 for x in range(18)], [-x % 18 for x in range(18)]
    swap = list(range(18))
    swap[1], swap[10] = 10, 1
    assert search._Solver(adj).maximize()[0] == 6
    assert search._Solver(adj, [rotation, reflection]).maximize()[0] == 6
    assert search._Solver(adj, [rotation, reflection, swap]).maximize()[0] == 4
    stabilize = search._Solver._stabilize
    shallow = lambda self, mask, size, *rest: (None, None) if size > 1 else stabilize(self, mask, size, *rest)
    monkeypatch.setattr(search._Solver, "_stabilize", shallow)
    assert search._Solver(adj, [rotation, reflection, swap]).maximize()[0] == 6


def group_cases():
    """(cert, s): every tier-1 grid full fiber at every s, whose nodes below depth
    one list too few branch vertices to take a stabilizer, then j8 at s=2 and
    j10 at s=1, whose nodes at depths two and three take one."""
    for text in GRID_SPECS:
        cert = full_fiber(families.parse_family_spec(text))
        yield from ((cert, s) for s in range(1, cert.spec.top_rank + 1))
    yield full_fiber(families.parse_family_spec("johnson:v=8,m=4")), 2
    yield full_fiber(families.parse_family_spec("johnson:v=10,m=4")), 1


@pytest.mark.parametrize("cert, s", group_cases(), ids=lambda value: str(getattr(value, "spec", value)))
def test_every_group_a_node_branches_with_fixes_its_clique_and_keeps_its_candidates(cert, s, monkeypatch):
    # a node's group reaches each child as `parent`, with the candidates at the
    # moment of branching; the root's is the kept group. Each generator, with
    # the node's clique fixed, is an automorphism of the graph the clique and
    # the node's candidates span, and maps those candidates onto themselves
    branch, calls = search._Solver._branch, []

    def recording(self, size, mask, candidates, leaf, orbit=None, group=None, parent=None):
        calls.append((mask, candidates, group, parent))
        return branch(self, size, mask, candidates, leaf, orbit, group, parent)

    monkeypatch.setattr(search._Solver, "_branch", recording)
    solver = search._Solver(graph_of(cert, s), search.kept_symmetries(cert))
    solver.maximize()
    first = {mask: candidates for mask, candidates, _, _ in calls}  # a search reaches each clique once
    groups = [(0, group, within) for _, within, group, _ in calls[:1] if group is not None]
    groups += [(mask & ~(1 << v), group, within) for mask, _, _, (group, within, v) in (c for c in calls if c[3])]
    deep = 0
    for clique, (domain, generators, inverses), within in groups:
        candidates = first[clique]
        deep += clique.bit_count() > 0
        assert sorted(domain) == list(families._bits(candidates)) and within & ~candidates == 0, clique
        inside = candidates | clique
        for h, h_inv in zip(generators, inverses):
            assert sorted(h) == list(range(len(domain))) and [h_inv[p] for p in h] == list(range(len(domain)))
            image = {x: domain[p] for x, p in zip(domain, h)} | {x: x for x in families._bits(clique)}
            assert all(search._map_bits(solver.adj[x] & inside, image) == solver.adj[image[x]] & inside for x in image)
            assert search._map_bits(within, image) == within, clique
    assert deep or cert.size < 70  # j8 and j10 branch with groups below the root


def level(adj, r, x):
    """The invariant every automorphism fixing r keeps on the neighbours of r."""
    return (adj[r] & adj[x]).bit_count()


def loopless(adj):
    return [a & ~(1 << x) for x, a in enumerate(adj)]


def stabilizer(adj, generators, r):
    """`search._stabilizer` as the root's child of r takes it: over the whole
    graph, which `adj` gives without loops, under the kept group."""
    n = len(adj)
    group = list(range(n)), generators, [sorted(range(n), key=g.__getitem__) for g in generators]
    return search._stabilizer(adj, group, (1 << n) - 1, r, search._SCHREIER_TRIES)


@pytest.mark.parametrize("text", GRID_SPECS)
def test_stabilizer_generators_fix_the_root_and_its_orbits_keep_the_levels(text):
    # the generators act on the neighbours of r: with r fixed, each is an
    # automorphism of the graph that r and its neighbours span
    cert = full_fiber(families.parse_family_spec(text))
    members, generators = cert.elements, search.kept_symmetries(cert)
    for s in range(1, cert.spec.top_rank + 1):
        adj = loopless(graph_of(cert, s))
        for r in (0, cert.size // 3, cert.size - 1):
            (near, kept, inverses), orbits = stabilizer(adj, generators, r)
            assert kept or not near, (s, r)  # at the top rank r has no neighbours
            assert near == list(families._bits(adj[r])), (s, r)
            inside = adj[r] | 1 << r
            for h, h_inv in zip(kept, inverses):
                image = {x: near[p] for x, p in zip(near, h)} | {r: r}
                assert all(search._map_bits(adj[x] & inside, image) == adj[image[x]] & inside for x in image), (s, r)
                assert [h_inv[p] for p in h] == list(range(len(near))), (s, r)
            assert sorted(x for orbit in orbits for x in orbit) == near, (s, r)
            assert all(len({level(adj, r, x) for x in orbit}) == 1 for orbit in orbits), (s, r)
            if cert.spec.kind in ("johnson", "grassmann"):
                by_rank = {}
                for x in near:
                    by_rank.setdefault(families.meet_rank(members[r], members[x]), []).append(x)
                assert sorted(map(sorted, orbits)) == sorted(by_rank.values()), (s, r)


@pytest.mark.parametrize("text", GRID_SPECS)
def test_merged_orbits_are_the_rebuilt_ones_at_every_root_stabilizer(text):
    # after each kept generator the merged orbits, their count and least points are what _orbits rebuilds
    cert = full_fiber(families.parse_family_spec(text))
    for s in range(1, cert.spec.top_rank + 1):
        solver = search._Solver(graph_of(cert, s), search.kept_symmetries(cert))
        for r in (orbit[0] for orbit in solver.orbits):  # the roots maximize branches on
            (near, kept, _), returned = search._stabilizer(solver.adj, solver.group, (1 << solver.n) - 1, r, 64)
            assert kept or not near, (s, r)
            rebuilt = [[near[p] for p in orbit] for orbit in _orbits(len(near), kept)]
            assert [sorted(o) for o in returned] == [sorted(o) for o in rebuilt], (s, r)
            orbits, least = {x: [x] for x in range(len(near))}, list(range(len(near)))
            for k, h in enumerate(kept, 1):
                search._merge_orbits(orbits, least, h)
                rebuilt = _orbits(len(near), kept[:k])
                assert {a: sorted(o) for a, o in orbits.items()} == {o[0]: sorted(o) for o in rebuilt}, (s, r, k)
                assert all(least[p] == o[0] for o in rebuilt for p in o), (s, r, k)


@st.composite
def cyclic_graphs(draw):
    """A graph on Z_a x [b], vertex (x, i) = x * b + i, whose edge rule reads only
    (y - x mod a, i, j); so x -> x + 1 is an automorphism with orbits Z_a x {i}.
    In the dihedral case the rule also holds (-d, i, j) with each (d, i, j), so
    x -> -x is one too, and it fixes (0, i): the stabilizers are not trivial."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rule = draw(st.sets(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1), st.integers(0, b - 1))))
    dihedral = draw(st.booleans())
    if dihedral:
        rule |= {((-d) % a, i, j) for d, i, j in rule}
    rule |= {((-d) % a, j, i) for d, i, j in rule}
    adj = [1 << v for v in range(a * b)]
    for x in range(a):
        for i in range(b):
            for y in range(a):
                for j in range(b):
                    if ((y - x) % a, i, j) in rule:
                        adj[x * b + i] |= 1 << (y * b + j)
    generators = [[(x + 1) % a * b + i for x in range(a) for i in range(b)]]
    if dihedral:
        generators.append([(-x) % a * b + i for x in range(a) for i in range(b)])
    return adj, generators, draw(st.permutations(range(a * b)))


@settings(deadline=None, max_examples=300)
@given(cyclic_graphs())
def test_one_root_per_orbit_matches_bron_kerbosch(graph):
    adj, generators, order = graph
    relabeled = search._relabel(adj, order)
    omega, cliques = bron_kerbosch_max_cliques(relabeled)
    rooted = search._Solver(relabeled, [[order.index(g[v]) for v in order] for g in generators])
    size, mask, proved = rooted.maximize()
    assert (size, proved) == (omega, True) and mask in cliques
    found, overflow = rooted.enumerate_exact(omega)
    assert (sorted(found), overflow) == (cliques, False)
    plain = search._Solver(relabeled)
    identity = search._Solver(relabeled, [list(range(len(adj)))])
    assert plain.maximize() == identity.maximize() and plain.nodes == identity.nodes


@settings(deadline=None, max_examples=200)
@given(cyclic_graphs())
def test_orbits_at_every_depth_match_bron_kerbosch(graph):
    # these graphs seldom list enough branch vertices below depth one to take a
    # stabilizer; with no such floor every node that has a group takes one
    adj, generators, order = graph
    relabeled = search._relabel(adj, order)
    omega, cliques = bron_kerbosch_max_cliques(relabeled)
    floor, search._DEEP_BRANCHES = search._DEEP_BRANCHES, 0
    try:
        rooted = search._Solver(relabeled, [[order.index(g[v]) for v in order] for g in generators])
        size, mask, proved = rooted.maximize()
        found, overflow = rooted.enumerate_exact(omega)
    finally:
        search._DEEP_BRANCHES = floor
    assert (size, proved) == (omega, True) and mask in cliques
    assert (sorted(found), overflow) == (cliques, False)


def test_the_closure_lists_every_maximum_family_in_few_nodes():
    # 2,727 nodes without orbits; three cliques found close to the 70 families
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    result = search.max_intersecting(cert, 2, enumerate_all=True)
    assert (result.optimum, len(result.all_max), result.all_max_overflow) == (17, 70, False)
    assert result.nodes < 200


def test_each_root_stabilizer_is_computed_once(monkeypatch):
    # one member orbit: maximize and enumerate_exact both branch below vertex 0,
    # whose stabilizer is kept, and below its child of vertex 9, whose is not;
    # the deterministic witness comes from `all_max`
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    walk, fixed = search._stabilizer, []
    monkeypatch.setattr(search, "_stabilizer", lambda adj, *rest: fixed.append(rest[2]) or walk(adj, *rest))
    result = search.max_intersecting(cert, 2, enumerate_all=True, deterministic=True)
    assert fixed == [0, 9, 9]
    assert (result.optimum, result.nodes, len(result.all_max)) == (17, 67, 70)
    assert result.witness == result.all_max[0]


def test_a_closure_past_the_cap_reports_overflow(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    monkeypatch.setattr(search, "ALL_MAX_CAP", 70)
    assert len(search.max_intersecting(cert, 2, enumerate_all=True).all_max) == 70
    monkeypatch.setattr(search, "ALL_MAX_CAP", 10)  # above the 3 cliques the search finds
    result = search.max_intersecting(cert, 2, enumerate_all=True)
    assert (result.optimum, result.all_max, result.all_max_overflow) == (17, None, True)


def test_a_closure_missing_a_generator_loses_families():
    # without one generator the child's stabilizer subgroup only shrinks, which
    # costs speed alone; the closure under the rest misses families
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"))
    adj, generators = graph_of(cert, 2), search.kept_symmetries(cert)
    plain = search._Solver(adj)
    expected = sorted(plain.enumerate_exact(plain.maximize()[0])[0])
    assert len(expected) == 70 and len(generators) == 2
    assert sorted(search._Solver(adj, generators).enumerate_exact(17)[0]) == expected
    for i in range(len(generators)):
        solver = search._Solver(adj, generators)
        del solver.generators[i]
        found = sorted(solver.enumerate_exact(17)[0])
        assert set(found) < set(expected), i


def test_node_budget_exhaustion():
    cert = full_fiber(families.parse_family_spec("johnson:v=7,m=3"))
    result = search.max_intersecting(cert, 1, node_budget=2)
    assert result.status == "budget-exhausted"
    # best-so-far is still a valid intersecting family (the star seed)
    assert ekr.min_meet_rank(cert.spec, result.witness) >= 1
    assert len(result.witness) == result.optimum


def test_enumeration_overflow_reported_not_truncated(fano_cert, monkeypatch):
    monkeypatch.setattr(search, "ALL_MAX_CAP", 0)
    result = search.max_intersecting(fano_cert, 1, enumerate_all=True)
    assert result.all_max_overflow
    assert result.all_max is None
    # without all_max the deterministic witness still comes from the reconstruction
    det = search.max_intersecting(fano_cert, 1, deterministic=True, enumerate_all=True)
    assert det.witness == search.max_intersecting(fano_cert, 1, deterministic=True).witness


def test_invalid_s(fano_cert):
    with pytest.raises(ValueError):
        search.max_intersecting(fano_cert, 0)
    with pytest.raises(ValueError):
        search.max_intersecting(fano_cert, 4)


def word_stabilizer(adj, generators, r):
    """`stabilizer` as it would be without the kept transversal: a Schreier
    vector stores only the generator on each tree edge, every u_x is
    recomposed from its word, and each Schreier generator is read on the
    neighbours of r.  The reference the kept transversal must match."""
    n = len(adj)
    near = list(families._bits(adj[r]))
    levels = len({level(adj, r, x) for x in near})
    inverses = [sorted(range(n), key=g.__getitem__) for g in generators]
    edge = [None] * n
    edge[r] = -1
    walk = [r]
    for x in walk:
        for i, g in enumerate(generators):
            if edge[g[x]] is None:
                edge[g[x]] = i
                walk.append(g[x])

    def word(x):
        out = []
        while x != r:
            out.append(edge[x])
            x = inverses[edge[x]][x]
        return out[::-1]

    kept, orbits = [], [[p] for p in range(len(near))]
    tries, least = 0, list(range(len(near)))
    for x in walk:
        u = list(range(n))
        for i in word(x):
            u = [generators[i][p] for p in u]
        for i, g in enumerate(generators):
            if len(orbits) == levels or tries == search._SCHREIER_TRIES:
                return kept, [[near[p] for p in orbit] for orbit in orbits]
            y = g[x]
            if edge[y] == i:
                continue
            tries += 1
            h = [g[p] for p in u]
            for j in reversed(word(y)):
                h = [inverses[j][p] for p in h]
            h = [near.index(h[x]) for x in near]
            if any(least[h[p]] != least[p] for p in range(len(near))):
                kept.append(h)
                orbits = _orbits(len(near), kept)
                for orbit in orbits:
                    for p in orbit:
                        least[p] = orbit[0]
    return kept, [[near[p] for p in orbit] for orbit in orbits]


@pytest.mark.parametrize("text", GRID_SPECS)
def test_the_kept_transversal_gives_the_word_stabilizer(text):
    cert = full_fiber(families.parse_family_spec(text))
    generators = search.kept_symmetries(cert)
    for s in range(1, cert.spec.top_rank + 1):
        adj = loopless(graph_of(cert, s))
        for r in sorted({*range(0, cert.size, max(1, cert.size // 7)), cert.size - 1}):
            (_, kept, _), orbits = stabilizer(adj, generators, r)
            word_kept, word_orbits = word_stabilizer(adj, generators, r)
            assert list(map(list, kept)) == word_kept, (s, r)
            assert [sorted(o) for o in orbits] == [sorted(o) for o in word_orbits], (s, r)


def transport_cases():
    """(cert, s): every tier-1 grid full fiber at every s, then the benchmark's
    `--all` designs j8, g5, b3 and oa17 at their s."""
    for text in GRID_SPECS:
        cert = full_fiber(families.parse_family_spec(text))
        yield from ((cert, s) for s in range(1, cert.spec.top_rank + 1))
    yield full_fiber(families.parse_family_spec("johnson:v=8,m=4"), 2), 2
    yield full_fiber(families.parse_family_spec("grassmann:v=5,m=2,q=2"), 1), 1
    yield full_fiber(families.parse_family_spec("bilinear:m=2,n=2,q=3"), 1), 1
    yield generate_linear_oa(17, 3), 1


@pytest.mark.parametrize("cert, s", transport_cases(), ids=lambda value: str(getattr(value, "spec", value)))
def test_all_max_is_the_pairwise_reverified_list(cert, s):
    result = search.max_intersecting(cert, s, enumerate_all=True)
    assert not result.all_max_overflow
    pairwise = [family for family in result.all_max if ekr.min_meet_rank(cert.spec, family) >= s]
    assert pairwise == list(result.all_max)
    assert all(len(family) == result.optimum for family in result.all_max)


def test_all_reverifies_pair_by_pair_only_the_witness_and_the_branchs_families(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"), 2)
    checked, min_meet_rank = [], families.min_meet_rank
    monkeypatch.setattr(families, "min_meet_rank", lambda spec, family: checked.append(family) or min_meet_rank(spec, family))
    result = search.max_intersecting(cert, 2, enumerate_all=True)
    assert len(result.all_max) == 70
    assert len(checked) == 4 and set(checked[1:]) < set(result.all_max)  # the witness, then three found cliques


class CollapsingSymmetry(families.Symmetry):
    """A real candidate's images, under an atom map that sends every atom to atom 0."""

    def __init__(self, real):
        super().__init__(lambda b: 0)
        self.real = real

    def __call__(self, x):
        return self.real(x)


def test_a_kept_symmetry_with_a_non_injective_atom_map_raises(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"), 2)
    real = families.symmetries(cert.spec)
    monkeypatch.setattr(families, "symmetries", lambda spec: [CollapsingSymmetry(g) for g in real])
    assert len(search.kept_symmetries(cert)) == 2
    assert search.max_intersecting(cert, 2).optimum == 17  # the images alone steer the search
    with pytest.raises(AssertionError, match="not injective"):
        search.max_intersecting(cert, 2, enumerate_all=True)


def test_an_image_family_off_its_parents_image_by_one_member_raises(monkeypatch):
    cert = full_fiber(families.parse_family_spec("johnson:v=8,m=4"), 2)
    enumerate_exact = search._Solver.enumerate_exact

    def swap_one_member(self, target):
        masks, overflow = enumerate_exact(self, target)
        k = next(k for k, parent in enumerate(self.parents) if parent is not None)
        low = masks[k] & -masks[k]
        outside = ~masks[k] & -~masks[k]  # the least member not in the family
        masks[k] ^= low | outside
        return masks, overflow

    monkeypatch.setattr(search._Solver, "enumerate_exact", swap_one_member)
    with pytest.raises(AssertionError, match="not the image of its parent"):
        search.max_intersecting(cert, 2, enumerate_all=True)


def test_orbits_below_depth_one_prove_the_ahlswede_khachatrian_optimum():
    # j11 at s=2: {A : |A & {1, 2, 3, 4}| >= 3} has 91 members against the star's
    # 84 (Ahlswede and Khachatrian 1997); with the stabilizer at depth one
    # alone the proof took 219,919 nodes
    cert = full_fiber(families.parse_family_spec("johnson:v=11,m=5"))
    start = time.perf_counter()
    result = search.max_intersecting(cert, 2)
    assert (result.optimum, result.status, result.orbits) == (91, "proved-optimal", 1)
    assert result.nodes < 20_000 and time.perf_counter() - start < 5
