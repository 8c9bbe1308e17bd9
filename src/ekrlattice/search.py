"""Exact maximum s-intersecting subfamily search inside a design.

Reformulated as maximum clique: vertices are design members and two are
adjacent when their meet has rank at least s, so cliques are exactly the
s-intersecting subfamilies.  Two members meet in rank >= s exactly when
some rank-s element lies below both, so the graph is the union of the
rank-s stars over the members; one table of them (`_graph`, built from the
centers below each member) gives both the graph and the best star, which
seeds the search.  Where that table would hold more than
`families.FIBER_CAP` center entries, the graph is built pair by pair and
the least member seeds the search.  The solver is one serial branch and
bound with greedy coloring upper bounds over int bitmasks, started from the
seed as the incumbent; the same branch routine enumerates every maximum
clique and reconstructs the lexicographically least one.  Each returned
family is re-verified through `families.meet`.

The maximizing search starts one root subtree per orbit of the members
under symmetries of the design.  This is sound because:

* each candidate of `families.symmetries` is a bijection g of the atoms, so
  popcount(g(a) & g(b)) == popcount(a & b), and `meet_rank`, hence
  adjacency, depends only on that popcount;
* a candidate is kept only if it maps the set of member atom masks onto
  itself, so a kept one is a graph automorphism, lattice automorphism or not;
* the root removes whole orbits, so the candidates left are a set the kept
  group maps onto itself, and a clique among them meeting the next orbit is
  moved onto one of the same size through the orbit's representative.

One level down the same argument runs again (orbital branching: Ostrowski,
Linderoth, Rossi and Smriglio, Math. Programming 126, 2011).  The child of
the root's representative r has as candidates the root's remaining set,
which the kept group maps onto itself, cut with the neighbours of r, which
every kept element fixing r maps onto themselves.  So any subgroup H of the
stabilizer of r maps the child's candidates onto themselves, and the child
branches once per H-orbit and removes each whole H-orbit after it.  H is
generated by Schreier generators (`_stabilizer`); the orbits of any subgroup
refine the stabilizer's, so too few generators cost only speed.  The walk
stops exactly when H has as many orbits as there are levels of an invariant
every automorphism fixing r keeps (adjacency to r and |N(r) & N(x)|), since
the levels are then the stabilizer's orbits, or after a fixed number of tries.

A wrong or useless candidate is dropped and costs only speed; witnesses are
re-verified as before.  `enumerate_exact` branches as the maximizing search
does, then closes the cliques it finds under the kept generators.  That
lists every maximum clique: the argument above moves any maximum clique, by
an element of the kept group, onto one the root's child of its first orbit
reaches, and the child's search below its own orbits is exhaustive.
`lexicographically_least` needs the canonical order and uses no orbits.
"""

from __future__ import annotations

from itertools import takewhile
from typing import NamedTuple

from . import ekr, families, parameters
from .designs import DesignCertificate
from .errors import BudgetExceededError, ParseError
from .families import Element

VERTEX_CAP = 5000  # design members a search graph may have
ALL_MAX_CAP = 10**6  # maximum families `enumerate_all` may list


def check_vertices(n: int) -> None:
    """Refuse a search graph of `n` vertices, one per design member, above `VERTEX_CAP`."""
    if n > VERTEX_CAP:
        raise BudgetExceededError("the search graph", n, "vertices", VERTEX_CAP)


def _graph(cert: DesignCertificate, s: int) -> tuple[tuple[int, ...], int]:
    """(adjacency, seed mask) of the search, bit j for member j, after the s
    range and then `VERTEX_CAP` are checked.  Member j's mask, its own bit
    set, is the OR of the rank-s stars holding j (`ekr.star_neighbourhoods`),
    tabulated from the centers below each member, so no fiber is built; the
    seed is the first largest star in canonical center order.  When that table
    would list more than `families.FIBER_CAP` center entries, the graph is
    built pair by pair (`ekr.intersection_masks`) and member 0 is the seed."""
    if not 1 <= s <= cert.spec.top_rank:
        raise ParseError(f"s must satisfy 1 <= s <= {cert.spec.top_rank}, got {s}")
    members = cert.elements
    n = len(members)
    check_vertices(n)
    if n * parameters.nu(cert.spec, s, cert.spec.top_rank) > families.FIBER_CAP:
        return tuple(ekr.intersection_masks(members, s)), 1
    stars: dict[tuple, int] = {}  # center payload -> mask of the members above it
    for j, x in enumerate(members):
        bit = 1 << j
        for z in families.below(x, s):
            stars[z.payload] = stars.get(z.payload, 0) | bit
    seed = stars[min(stars, key=lambda p: (-stars[p].bit_count(), p))]
    return tuple(ekr.star_neighbourhoods(stars.values(), n)), seed


def kept_symmetries(cert: DesignCertificate) -> list[list[int]]:
    """The candidate symmetries (`families.symmetries`) that map the set of member
    atom masks onto itself, each as the list of member indices of its images."""
    members = cert.elements
    index = {x.atoms: j for j, x in enumerate(members)}
    kept = []
    for g in families.symmetries(cert.spec):
        image = list(takewhile(lambda j: j is not None, (index.get(g(x)) for x in members)))
        if len(image) == len(members):
            kept.append(image)
    return kept


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


def _orbit_masks(n, orbits):
    """Per vertex, the mask of its orbit."""
    masks = [0] * n
    for orbit in orbits:
        mask = sum(1 << v for v in orbit)
        for v in orbit:
            masks[v] = mask
    return masks


_SCHREIER_TRIES = 64  # Schreier generators tried per fixed vertex; only speed depends on it


def _stabilizer(adj, generators, r):
    """Generators of a subgroup H of the stabilizer of r in the group G that
    `generators` generate, and the orbits of H (`_orbits`).

    A breadth-first walk over the G-orbit of r stores, per point x, only the
    index of the generator on its tree edge (a Schreier vector, O(n) memory), so
    the transversal element u_x, with u_x(r) = x, is read back as a word.  By
    Schreier's lemma the u_{g(x)}^-1 g u_x generate the stabilizer (Seress,
    *Permutation Group Algorithms*, CUP 2003); they are tried in walk order
    and kept when they merge orbits.  An automorphism of `adj` that fixes r
    keeps the level of every x: whether x is r, whether it is adjacent to r, and
    |N(r) & N(x)|.  So the stabilizer's orbits refine the levels, and once H has
    as few orbits as there are levels they are exactly the stabilizer's orbits
    and the walk stops; it stops too after `_SCHREIER_TRIES` tries.
    """
    n = len(adj)
    levels = len({(x == r, adj[r] >> x & 1, (adj[r] & adj[x]).bit_count()) for x in range(n)})
    inverses = [sorted(range(n), key=g.__getitem__) for g in generators]
    edge = [None] * n  # the index of the generator into x, -1 at r
    edge[r] = -1
    walk = [r]
    for x in walk:
        for i, g in enumerate(generators):
            if edge[g[x]] is None:
                edge[g[x]] = i
                walk.append(g[x])

    def word(x):  # the generator indices of u_x, in the order they act
        out = []
        while x != r:
            out.append(edge[x])
            x = inverses[edge[x]][x]
        return out[::-1]

    kept, orbits = [], [[x] for x in range(n)]
    tries, least = 0, list(range(n))  # least[p]: the least point of the orbit of p
    for x in walk:
        u = list(range(n))
        for i in word(x):
            u = [generators[i][p] for p in u]
        for i, g in enumerate(generators):
            if len(orbits) == levels or tries == _SCHREIER_TRIES:
                return kept, orbits
            y = g[x]
            if edge[y] == i:  # a tree edge: u_y = g u_x, so the generator is the identity
                continue
            tries += 1
            h = [g[p] for p in u]
            for j in reversed(word(y)):
                h = [inverses[j][p] for p in h]
            if any(least[h[p]] != least[p] for p in range(n)):
                kept.append(h)
                orbits = _orbits(n, kept)
                for orbit in orbits:
                    for p in orbit:
                        least[p] = orbit[0]
    return kept, orbits


class SearchResult(NamedTuple):
    optimum: int
    witness: tuple[Element, ...]
    all_max: tuple[tuple[Element, ...], ...] | None
    all_max_overflow: bool
    nodes: int
    orbits: int  # member orbits under the kept symmetries; the design size when none is kept
    status: str  # proved-optimal | budget-exhausted


class _OutOfBudget(Exception):
    pass


class _Overflow(Exception):
    pass


def _color_sort(candidates: int, adj):
    """Greedy coloring of the candidate set; colors ascend along the order."""
    order, colors = [], []
    color = 0
    work = candidates
    while work:
        color += 1
        taken = 0
        queue = work
        while queue:
            low = queue & -queue
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            taken |= low
            queue &= ~low & ~adj[v]
        work &= ~taken
    return order, colors


class _Solver:
    """Branch and bound over one graph, in the descending-degree labelling of
    MCQ (Tomita and Seki, DMTCS 2003).

    `adj` and `generators` (automorphisms as lists of images, as
    `kept_symmetries` returns them) are in canonical labels, and so is every
    mask that goes into or comes out of a method.  The solver relabels once,
    here, by descending degree; the sort is stable, so ties keep their
    canonical order, and a regular graph keeps its labels.  `orbits` holds
    the generators' orbits in internal labels.  One instance serves every
    search and `nodes` counts them all.

    All three searches run through `_branch`, which prunes on the colour
    bound against the threshold `need` and hands each clique that no
    candidate extends to a leaf action.  `maximize` raises `need` past every
    clique it records; its root starts one subtree per orbit (`orbit`: per
    internal vertex, the mask of its orbit; None without generators), and
    each child of the root one subtree per orbit of a subgroup of its
    representative's stabilizer, computed when that child first branches, once
    per representative for every search, and skipped when the subgroup is
    trivial.  Deeper nodes use no orbits.
    `enumerate_exact` and `lexicographically_least` keep `need` at the proved
    optimum, where a clique of that size has no candidate left, so the leaf
    sees exactly the maximum cliques.  `enumerate_exact` branches on orbits
    as `maximize` does and closes what it finds under the generators;
    `lexicographically_least` uses no orbits.
    """

    def __init__(self, adj, generators=()):
        self.n = len(adj)
        self.order = sorted(range(self.n), key=lambda v: -adj[v].bit_count())  # internal -> canonical
        self.position = sorted(range(self.n), key=self.order.__getitem__)  # canonical -> internal
        if self.order != list(range(self.n)):
            adj = _relabel(adj, self.order)
        self.adj = [a & ~(1 << i) for i, a in enumerate(adj)]
        self.generators = [[self.position[g[k]] for k in self.order] for g in generators]
        self.orbits = _orbits(self.n, self.generators)
        self.orbit = _orbit_masks(self.n, self.orbits) if self.generators else None
        self.stabilizers = {}  # root vertex -> `_stabilizer_orbit`
        self.node_budget = None
        self.nodes = 0
        self.need = 0

    def _branch(self, size, mask, candidates, leaf, orbit=None, fixed=None):
        """Grow the clique `mask` of `size` inside candidates; True stops the search.
        With `orbit`, per vertex the mask of its orbit under a group that maps the
        candidates onto themselves, a vertex already removed is skipped, the
        branch is on the least-labelled candidate of its orbit, and the whole
        orbit leaves the candidates after it.  The root of `maximize` passes the
        member orbits and hands each child its branch vertex as `fixed`; before
        its first branch that child takes as its `orbit` the orbits of a
        subgroup of the stabilizer of `fixed` (`_stabilizer`), or none when the
        subgroup is trivial."""
        root = orbit is not None and fixed is None
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _OutOfBudget
        order, colors = _color_sort(candidates, self.adj)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] < self.need:
                return False
            if fixed is not None:
                orbit, fixed = self._stabilizer_orbit(fixed), None
            v = order[i]
            bit = drop = 1 << v
            if orbit:
                if not candidates & bit:
                    continue
                drop = orbit[v] & candidates
                bit = drop & -drop
                v = bit.bit_length() - 1
            rest = candidates & self.adj[v]
            if rest:
                if self._branch(size + 1, mask | bit, rest, leaf, None, v if root else None):
                    return True
            elif size + 1 >= self.need and leaf(size + 1, mask | bit):
                return True
            candidates &= ~drop
        return False

    def _stabilizer_orbit(self, r):
        """Per vertex, the mask of its orbit under `_stabilizer`'s subgroup for r, or
        None when that subgroup is trivial; computed once per r."""
        if r not in self.stabilizers:
            kept, orbits = _stabilizer(self.adj, self.generators, r)
            self.stabilizers[r] = _orbit_masks(self.n, orbits) if kept else None
        return self.stabilizers[r]

    def maximize(self, init_mask=0, node_budget=None):
        """Returns (best size, best mask, proved) growing from the incumbent
        clique `init_mask`; at most `node_budget` nodes are visited."""

        def record(size, mask):
            self.best_size, self.best_mask, self.need = size, mask, size + 1

        record(init_mask.bit_count(), _map_bits(init_mask, self.position))
        self.node_budget, proved = node_budget, True
        try:
            if self.n:
                self._branch(0, 0, (1 << self.n) - 1, record, self.orbit)
        except _OutOfBudget:
            proved = False
        self.node_budget = None  # the budget bounds this search only
        return self.best_size, _map_bits(self.best_mask, self.order), proved

    def enumerate_exact(self, target):
        """All cliques of size exactly target, which must be the clique number,
        and False; None and True when there are more than `ALL_MAX_CAP`.
        The search branches as `maximize` does, so it finds at least one clique
        of every orbit of the kept group; a breadth-first walk then closes what
        it found under the generators, charging the cap as it grows."""
        if target == 0:
            return [0], False
        out, seen = [], set()

        def collect(size, mask):
            if mask not in seen:
                seen.add(mask)
                out.append(mask)
                if len(out) > ALL_MAX_CAP:
                    raise _Overflow

        self.need = target
        try:
            self._branch(0, 0, (1 << self.n) - 1, collect, self.orbit)
            for mask in out:  # grows while it is walked: the closure under the generators
                for g in self.generators:
                    collect(target, _map_bits(mask, g))
        except _Overflow:
            return None, True
        return [_map_bits(mask, self.order) for mask in out], False

    def lexicographically_least(self, omega):
        """Vertex-greedy least maximum clique in canonical vertex order."""
        self.need = omega
        mask, size = 0, 0
        candidates = (1 << self.n) - 1
        for v in self.position:
            if size == omega:
                break
            bit = 1 << v
            if not candidates & bit:
                continue
            rest = candidates & self.adj[v]
            if size + 1 >= omega or self._branch(size + 1, mask | bit, rest, lambda size, mask: True):
                mask |= bit
                size += 1
                candidates = rest
            else:
                candidates &= ~bit
        if size != omega:
            raise AssertionError("failed to reconstruct a maximum family")
        return _map_bits(mask, self.order)


def _map_bits(mask, target):
    """The mask with bit v moved to bit target[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << target[low.bit_length() - 1]
        mask ^= low
    return out


def _relabel(adjacency, order):
    """Adjacency masks with vertex order[i] renamed to i."""
    position = {orig: new for new, orig in enumerate(order)}
    return [_map_bits(adjacency[orig], position) for orig in order]


def max_intersecting(
    cert: DesignCertificate,
    s: int,
    *,
    deterministic: bool = False,
    enumerate_all: bool = False,
    node_budget: int | None = None,
) -> SearchResult:
    """Exact maximum s-intersecting subfamily of the design.

    Member j is vertex j: the certificate holds its members in canonical
    order, and one `_Solver` runs every search in its own degree labelling.
    The witness is deterministic (lexicographically least) only with
    `deterministic=True`: the least family of `all_max` when every maximum
    family was enumerated, else reconstructed over the canonical order.
    `nodes` counts the nodes of every search run, reconstruction included.
    With `enumerate_all`, more than `ALL_MAX_CAP` maximum families set
    `all_max_overflow` and leave `all_max` None.
    The witness and every family in `all_max` are re-verified through
    `families.meet` before they are returned; a failure raises AssertionError.
    """
    adjacency, seed = _graph(cert, s)
    members = cert.elements
    solver = _Solver(adjacency, kept_symmetries(cert))
    optimum, best_mask, proved = solver.maximize(seed, node_budget)
    status = "proved-optimal" if proved else "budget-exhausted"

    def read(mask):  # bit j is member j, so the family comes out sorted
        return tuple(x for j, x in enumerate(members) if mask >> j & 1)

    witness = read(best_mask)
    all_max = None
    overflow = False
    if proved and enumerate_all:
        masks, overflow = solver.enumerate_exact(optimum)
        if not overflow:
            all_max = tuple(sorted(map(read, masks)))
    if proved and deterministic:
        witness = all_max[0] if all_max else read(solver.lexicographically_least(optimum))

    design = set(members)
    for family in (witness, *(all_max or ())):
        if (
            len(set(family)) != optimum
            or len(family) != optimum
            or not design.issuperset(family)
            or (family and ekr.min_meet_rank(cert.spec, family) < s)
        ):
            raise AssertionError(f"search returned an invalid family of {len(family)} for optimum {optimum}")
    return SearchResult(
        optimum=optimum,
        witness=witness,
        all_max=all_max,
        all_max_overflow=overflow,
        nodes=solver.nodes,
        orbits=len(solver.orbits),
        status=status,
    )
