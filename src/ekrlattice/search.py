"""Exact maximum s-intersecting subfamily search inside a design.

Reformulated as maximum clique: vertices are design members and two are
adjacent when their meet has rank at least s, so cliques are exactly the
s-intersecting subfamilies.  Two members meet in rank >= s exactly when
some rank-s element lies below both, so the graph is the union of the
rank-s stars over the members; one table of them (`_graph`: at the design's
strength the certificate's coverage stars, below it the centers below each
member) gives both the graph and the best star, which seeds the search.
Where the table below the strength would hold more than
`families.FIBER_CAP` center entries, the graph is built pair by pair and
the least member seeds the search.  The solver is one serial branch and
bound with greedy coloring upper bounds over int bitmasks, started from the
seed as the incumbent; the same branch routine enumerates every maximum
clique and reconstructs the lexicographically least one.

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

Every returned family is re-verified before it is reported, by a route that
reads neither the adjacency nor the search.  The witness and the families
the branch found are checked pair by pair through `families.meet`.  A family
the closure added is checked by transport (`_check_transport`): once per
run, each kept candidate's atom map is checked to be injective on the union
U of the members' atoms and to send member j to member image[j] for its
member permutation.  An injective map f on U keeps popcount(f(a) & f(b)) ==
popcount(a & b) for all a, b inside U, so it keeps every meet rank among the
members.  So an image family whose members are checked to be the
permutation of its parent's meets pairwise in rank >= s when its parent
does; parents come before their images, so induction covers every family.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import takewhile

from . import ekr, families, parameters
from .designs import DesignCertificate
from .errors import BudgetExceededError, ParseError

VERTEX_CAP = 5000  # design members a search graph may have
ALL_MAX_CAP = 10**6  # maximum families `enumerate_all` may list


def check_graph(spec: families.FamilySpec, s: int, n: int) -> None:
    """Refuse a search at `s` outside 1..top rank, then a search graph of `n`
    vertices, one per design member, above `VERTEX_CAP`."""
    if not 1 <= s <= spec.top_rank:
        raise ParseError(f"s must satisfy 1 <= s <= {spec.top_rank}, got {s}")
    if n > VERTEX_CAP:
        raise BudgetExceededError("the search graph", n, "vertices", VERTEX_CAP)


def _graph(cert: DesignCertificate, s: int) -> tuple[tuple[int, ...], int]:
    """(adjacency, seed mask) of the search, bit j for member j, after the s
    range and then `VERTEX_CAP` are checked (`check_graph`).  Member j's mask,
    its own bit set, is the OR of the rank-s stars holding j (`ekr.star_neighbourhoods`),
    and the seed is the first largest star in canonical center order.  At the
    certificate's strength the stars are its coverage pass's (`cert.stars`);
    below it they are tabulated from the centers below each member
    (`families.below`), so no fiber is built.  When that table would list more
    than `families.FIBER_CAP` center entries, the graph is built pair by pair
    (`ekr.intersection_masks`) and member 0 is the seed."""
    members = cert.elements
    n = len(members)
    check_graph(cert.spec, s, n)
    if n * parameters.nu(cert.spec, s, cert.spec.top_rank) > families.FIBER_CAP:
        return tuple(ekr.intersection_masks(members, s)), 1
    if s == cert.strength and cert.stars is not None:
        stars = cert.stars
    else:
        table: dict[tuple, int] = {}  # center payload -> mask of the members above it
        for j, x in enumerate(members):
            bit = 1 << j
            for z in families.below(x, s):
                table[z.payload] = table.get(z.payload, 0) | bit
        stars = [table[p] for p in sorted(table)]
    return tuple(ekr.star_neighbourhoods(stars, n)), max(stars, key=int.bit_count)


def _kept(cert: DesignCertificate) -> list[tuple[families.Symmetry, list[int]]]:
    """The candidate symmetries (`families.symmetries`) that map the set of member
    atom masks onto itself, each with the list of member indices of its images."""
    members = cert.elements
    index = {x.atoms: j for j, x in enumerate(members)}
    kept = []
    for g in families.symmetries(cert.spec):
        image = list(takewhile(lambda j: j is not None, (index.get(g(x)) for x in members)))
        if len(image) == len(members):
            kept.append((g, image))
    return kept


def kept_symmetries(cert: DesignCertificate) -> list[list[int]]:
    """The member permutations of `_kept`, as lists of member indices of the images."""
    return [image for _, image in _kept(cert)]


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


def _merge_orbits(orbits, least, h):
    """Join, in place, the orbits that the permutation h merges.  `orbits` maps
    the least point of each orbit to its points and `least[p]` is the least
    point of the orbit of p; the points of the orbit with the greater least
    point move into the other's."""
    for p, image in enumerate(h):
        a, b = least[p], least[image]
        if a != b:
            a, b = min(a, b), max(a, b)
            for q in orbits[b]:
                least[q] = a
            orbits[a] += orbits.pop(b)


_SCHREIER_TRIES = 64  # Schreier generators tried per fixed vertex; only speed depends on it


def _stabilizer(adj, generators, r):
    """Generators of a subgroup H of the stabilizer of r in the group G that
    `generators` generate, and the orbits of H.

    A breadth-first walk over the G-orbit of r stores, per point x it reaches,
    the transversal element u_x, with u_x(r) = x, and its inverse: u_r is the
    identity and a tree edge g from x gives u_{g(x)} = g u_x.  By Schreier's
    lemma the u_{g(x)}^-1 g u_x generate the stabilizer (Seress, *Permutation
    Group Algorithms*, CUP 2003); each costs two list maps.  They are tried in
    walk order, each once the walk has reached both of its ends, and kept when
    they merge orbits, which `_merge_orbits` then joins; its lists are
    returned, in least-point order, each opened at its least point.  An
    automorphism of `adj` that fixes r keeps the level of every x: whether x
    is r, whether it is adjacent to r, and |N(r) & N(x)|.  So the
    stabilizer's orbits refine the levels, and once H has as few orbits as
    there are levels they are exactly the stabilizer's orbits and the walk
    stops; it stops too after `_SCHREIER_TRIES` tries.
    """
    n = len(adj)
    levels = len({(x == r, adj[r] >> x & 1, (adj[r] & adj[x]).bit_count()) for x in range(n)})
    inverses = [sorted(range(n), key=g.__getitem__) for g in generators]
    identity = list(range(n))
    u, u_inv = {r: identity}, {r: identity}  # the transversal met so far, and its inverses
    walk = [r]
    kept, orbits = [], {x: [x] for x in range(n)}  # least point -> its orbit
    tries, least = 0, list(range(n))  # least[p]: the least point of the orbit of p
    for x in walk:  # grows while it is walked
        u_x = u[x]
        for g, g_inv in zip(generators, inverses):
            if len(orbits) == levels or tries == _SCHREIER_TRIES:
                return kept, list(orbits.values())
            y = g[x]
            if y not in u:  # a tree edge: u_y = g u_x, so the generator is the identity
                u[y] = list(map(g.__getitem__, u_x))
                u_inv[y] = list(map(u_inv[x].__getitem__, g_inv))
                walk.append(y)
                continue
            tries += 1
            h = list(map(u_inv[y].__getitem__, map(g.__getitem__, u_x)))
            if list(map(least.__getitem__, h)) != least:
                kept.append(h)
                _merge_orbits(orbits, least, h)
    return kept, list(orbits.values())


class SearchResult(namedtuple("SearchResult", "optimum witness all_max all_max_overflow nodes orbits status")):
    """The optimum with a witness family (a tuple of elements); `all_max`,
    every maximum family, or None when not asked for or past the cap;
    `orbits`, the member orbits under the kept symmetries (the design size
    when none is kept); `status`, proved-optimal or budget-exhausted."""

    __slots__ = ()


class _OutOfBudget(Exception):
    pass


class _Overflow(Exception):
    pass


def _color_sort(candidates: int, non_adj, low: int):
    """Greedy coloring of the candidate set, with `non_adj[v]` the mask of the
    vertices neither v nor adjacent to v; colors ascend along the order.  A
    vertex colored below `low` is colored but not listed."""
    order, colors = [], []
    color = 0
    work = candidates
    while work:
        color += 1
        taken = 0
        queue = work
        listed = color >= low
        while queue:
            low_bit = queue & -queue
            v = low_bit.bit_length() - 1
            if listed:
                order.append(v)
                colors.append(color)
            taken |= low_bit
            queue &= non_adj[v]
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
        self.non_adj = [~(a | 1 << i) for i, a in enumerate(self.adj)]
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
        # `_color_sort` leaves out the vertices colored below need - size: the loop returns before them
        order, colors = _color_sort(candidates, self.non_adj, self.need - size)
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
        it found under the generators, charging the cap as it grows.
        `parents` then holds, per clique, None when the branch found it, else
        (k, i) when generator i maps clique k onto it, k before it."""
        if target == 0:
            self.parents = [None]
            return [0], False
        out, seen, self.parents = [], set(), []

        def collect(size, mask, parent=None):
            if mask not in seen:
                seen.add(mask)
                out.append(mask)
                self.parents.append(parent)
                if len(out) > ALL_MAX_CAP:
                    raise _Overflow

        self.need = target
        try:
            self._branch(0, 0, (1 << self.n) - 1, collect, self.orbit)
            for k, mask in enumerate(out):  # grows while it is walked: the closure under the generators
                for i, g in enumerate(self.generators):
                    collect(target, _map_bits(mask, g), (k, i))
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


def _check_transport(cert: DesignCertificate, kept, masks, parents) -> None:
    """Re-verify by transport (module docstring) each closure image among `masks`,
    bit j for member j, with `parents` as `_Solver.enumerate_exact` leaves them
    and `kept` as `_kept` returns it; raise AssertionError on a failure."""
    members = cert.elements
    union = 0
    for x in members:
        union |= x.atoms
    for g, image in kept:
        if not g.injective_on(union):
            raise AssertionError("a kept symmetry's atom map is not injective on the design's atoms")
        if any(g(x) != members[j].atoms for x, j in zip(members, image)):
            raise AssertionError("a kept symmetry's atom map disagrees with its member permutation")
    for mask, parent in zip(masks, parents):
        if parent is not None and mask != _map_bits(masks[parent[0]], kept[parent[1]][1]):
            raise AssertionError("a maximum family is not the image of its parent under a kept symmetry")


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
    Every returned family is checked to hold `optimum` distinct members of the
    design.  The witness and the families of `all_max` that the branch found
    are re-verified through `families.meet`, and the closure's images by
    transport (`_check_transport`); a failure raises AssertionError.
    """
    adjacency, seed = _graph(cert, s)
    members = cert.elements
    kept = _kept(cert)
    solver = _Solver(adjacency, [image for _, image in kept])
    optimum, best_mask, proved = solver.maximize(seed, node_budget)
    status = "proved-optimal" if proved else "budget-exhausted"

    def read(mask):  # bit j is member j, so the family comes out sorted
        return tuple(map(members.__getitem__, families._bits(mask)))

    witness = read(best_mask)
    all_max, found, overflow = None, [], False
    if proved and enumerate_all:
        masks, overflow = solver.enumerate_exact(optimum)
        if not overflow:
            _check_transport(cert, kept, masks, solver.parents)
            found = [read(mask) for mask, parent in zip(masks, solver.parents) if parent is None]
            all_max = tuple(sorted(map(read, masks)))
    if proved and deterministic:
        witness = all_max[0] if all_max else read(solver.lexicographically_least(optimum))

    design = set(members)
    for family in (witness, *(all_max or ())):
        if len(set(family)) != optimum or len(family) != optimum or not design.issuperset(family):
            raise AssertionError(f"search returned an invalid family of {len(family)} for optimum {optimum}")
    for family in (witness, *found):  # the closure's images are checked by transport
        if family and ekr.min_meet_rank(cert.spec, family) < s:
            raise AssertionError(f"search returned a family of {len(family)} that is not {s}-intersecting")
    return SearchResult(
        optimum=optimum,
        witness=witness,
        all_max=all_max,
        all_max_overflow=overflow,
        nodes=solver.nodes,
        orbits=len(solver.orbits),
        status=status,
    )
