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

Every node below runs the same argument (orbital branching: Ostrowski,
Linderoth, Rossi and Smriglio, Math. Programming 126, 2011), by induction on
the depth.  A node branches with a subgroup H of the kept group that fixes
every vertex of its clique and maps its candidates onto themselves; the
root's H is the kept group, and a deeper H is held as its action on the
node's first candidates, each permutation the restriction of a product of
kept generators.  When the node branches on v, its candidate set C at that
moment is its first one less whole H-orbits, so H maps C onto itself, and C
holds v.  So the stabilizer of v in H maps the child's candidates C & N(v)
onto themselves and fixes every vertex chosen so far: the child branches
once per orbit of any subgroup of it, and the induction goes on.  The
subgroup is generated by Schreier generators (`_stabilizer`), from a walk
over the orbit of v in C, never over the child's own candidates, which H
need not map onto themselves; the orbits of any subgroup refine the
stabilizer's, so too few generators cost only speed.  The walk stops exactly
when the subgroup has as many orbits on C & N(v) as there are levels of an
invariant every automorphism fixing v and mapping C onto itself keeps (|C &
N(v) & N(x)|), since the levels are then the stabilizer's orbits, or after a
fixed number of tries: `_SCHREIER_TRIES` at depth one, the fewer
`_DEEP_TRIES` below it, where a subgroup seldom reaches the levels.  Below
depth one a node takes its stabilizer only when its colour sort lists
`_DEEP_BRANCHES` branch vertices or more, enough for the orbits to pay for
the walk; a node that does not, or whose subgroup is trivial, branches on
single vertices, and so does every node below it.

A wrong or useless candidate is dropped and costs only speed; witnesses are
re-verified as before.  `enumerate_exact` branches as the maximizing search
does, then closes the cliques it finds under the kept generators.  That
lists every maximum clique: at each node the argument above moves a maximum
clique through it, by an element of that node's group, which fixes the
node's clique, onto one through the child of its first orbit; so by
induction an element of the kept group moves any maximum clique onto one
the branch reaches, every group used being a subgroup of the kept group.
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

from itertools import compress, takewhile
from operator import itemgetter, ne

from . import families, parameters
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
    its own bit set, is the OR of the rank-s stars holding j (`families.star_neighbourhoods`),
    and the seed is the first largest star in canonical center order.  At the
    certificate's strength the stars are its coverage pass's (`cert.stars`);
    below it they are tabulated from the centers below each member
    (`families.below`), so no fiber is built.  When that table would list more
    than `families.FIBER_CAP` center entries, the graph is built pair by pair
    (`families.intersection_masks`) and member 0 is the seed."""
    members = cert.elements
    n = len(members)
    check_graph(cert.spec, s, n)
    if n * parameters.nu(cert.spec, s, cert.spec.top_rank) > families.FIBER_CAP:
        return tuple(families.intersection_masks(members, s)), 1
    if s == cert.strength and cert.stars is not None:
        stars = cert.stars
    else:
        table: dict[tuple, int] = {}  # center payload -> mask of the members above it
        for j, x in enumerate(members):
            bit = 1 << j
            for z in families.below(x, s):
                table[z.payload] = table.get(z.payload, 0) | bit
        stars = [table[p] for p in sorted(table)]
    return tuple(families.star_neighbourhoods(stars, n)), max(stars, key=int.bit_count)


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


def _orbit_masks(orbits):
    """Per vertex of the orbits, the mask of its orbit."""
    masks = {}
    for orbit in orbits:
        mask = sum(1 << v for v in orbit)
        masks.update(dict.fromkeys(orbit, mask))
    return masks


def _merge_orbits(orbits, least, h):
    """Join, in place, the orbits that the permutation h merges.  `orbits` maps
    the least point of each orbit to its points and `least[p]` is the least
    point of the orbit of p; the points of the orbit with the greater least
    point move into the other's."""
    for p in compress(range(len(h)), map(ne, least, map(least.__getitem__, h))):  # the points h moves off their orbit
        a, b = least[p], least[h[p]]
        if a != b:
            if a > b:
                a, b = b, a
            for q in orbits[b]:
                least[q] = a
            orbits[a] += orbits.pop(b)


_SCHREIER_TRIES = 64  # Schreier generators tried at depth one; only speed depends on it
_DEEP_TRIES = 8  # the same below depth one, where a subgroup seldom reaches the levels
_DEEP_BRANCHES = 8  # below depth one, branch vertices a node's colour sort must list to take a stabilizer


def _through(points, *perms):
    """The images of `points`, a sequence of at least two indices, under each
    permutation of `perms` in turn: the composite's list when `points` is
    the identity."""
    for perm in perms:
        points = itemgetter(*points)(perm)
    return points


def _stabilizer(adj, group, within, r, tries):
    """A subgroup H of the stabilizer of the vertex r in the group G that
    `group` gives, and the orbits of H on near = N(r) & within, as lists of
    vertices.  `group` is (domain, generators, inverses): a sorted sequence
    of vertices, and permutations of it with their inverses, each a sequence
    of indices into it.  G maps the vertices of the mask `within`, which
    hold r, onto themselves, so every element of G fixing r maps near onto
    itself; H is returned as a group of that form over near.

    A breadth-first walk over the G-orbit of r stores, per point x it reaches,
    the transversal element u_x, with u_x(r) = x, and its inverse: u_r is the
    identity and a tree edge g from x gives u_{g(x)} = g u_x.  By Schreier's
    lemma the u_{g(x)}^-1 g u_x generate the stabilizer (Seress, *Permutation
    Group Algorithms*, CUP 2003).  They are tried in walk order, each once
    the walk has reached both of its ends, and only on near; one is kept
    when it merges orbits, which `_merge_orbits` then joins.  The orbits come
    in least-point order, each opened at its least point.  An automorphism
    of `adj` that fixes r and maps `within` onto itself keeps the level
    |near & N(x)| of every x in near.  So the stabilizer's orbits on near
    refine the levels, and once H has as few orbits as there are levels
    they are exactly the stabilizer's orbits and the walk stops; it stops
    too after `tries` tries.
    """
    domain, generators, inverses = group
    near = adj[r] & within
    keep = [i for i, x in enumerate(domain) if near >> x & 1]  # near, as indices into the domain
    vertices = [domain[i] for i in keep]
    index = [0] * len(domain)  # an index into the domain -> the index into near, on near
    for j, i in enumerate(keep):
        index[i] = j
    levels = len({(near & adj[x]).bit_count() for x in vertices})  # below two points of near the walk stops at once
    identity = tuple(range(len(domain)))
    start = domain.index(r)
    u, u_inv = {start: identity}, {start: identity}  # the transversal met so far, and its inverses
    walk = [start]
    kept, kept_inv, orbits = [], [], {x: [x] for x in range(len(keep))}  # least point -> its orbit
    least = list(range(len(keep)))  # least[p]: the least point of the orbit of p
    same = tuple(least)
    pairs = list(zip(generators, inverses))
    for x, (g, g_inv) in ((x, pair) for x in walk for pair in pairs):  # the walk grows while it is walked
        if len(orbits) == levels or not tries:
            break
        y = g[x]
        if y not in u:  # a tree edge: u_y = g u_x, so the generator is the identity
            u[y], u_inv[y] = _through(u[x], g), _through(g_inv, u_inv[x])
            walk.append(y)
            continue
        tries -= 1
        h = _through(keep, u[x], g, u_inv[y], index)
        if _through(h, least) != same:
            kept.append(h)
            kept_inv.append(_through(keep, u[y], g_inv, u_inv[x], index))
            _merge_orbits(orbits, least, h)
            same = tuple(least)
    return (vertices, kept, kept_inv), [[vertices[p] for p in orbit] for orbit in orbits.values()]


class SearchResult(families.Record, fields="optimum witness all_max all_max_overflow nodes orbits status"):
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
    the generators' orbits in internal labels, each opened at its least
    point: singletons that `_merge_orbits` joins once per generator, as a
    node below the root joins its subgroup's.  One instance serves every
    search and `nodes` counts them all.

    All three searches run through `_branch`, which prunes on the colour
    bound against the threshold `need` and hands each clique that no
    candidate extends to a leaf action.  `maximize` raises `need` past every
    clique it records; its root starts one subtree per orbit (`orbit`: per
    internal vertex, the mask of its orbit; None without generators), and
    every node below one subtree per orbit of a subgroup of its branch
    vertex's stabilizer in its parent's group (module docstring), computed
    when the node first branches (`_stabilize`).
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
        orbits, least = {v: [v] for v in range(self.n)}, list(range(self.n))
        for g in self.generators:
            _merge_orbits(orbits, least, g)
        self.orbits = list(orbits.values())
        self.orbit = _orbit_masks(self.orbits) if self.generators else None
        self.group = None  # the root's group, as `_stabilizer` takes it; None without generators
        if self.generators:
            inverses = [sorted(range(self.n), key=g.__getitem__) for g in self.generators]
            self.group = list(range(self.n)), self.generators, inverses
        self.stabilizers = {}  # a root child's clique mask -> `_stabilize`
        self.node_budget = None
        self.nodes = 0
        self.need = 0

    def _branch(self, size, mask, candidates, leaf, orbit=None, group=None, parent=None):
        """Grow the clique `mask` of `size` inside candidates; True stops the search.
        With `orbit`, per candidate the mask of its orbit under a group that
        fixes every vertex of the clique and maps the candidates onto
        themselves, a vertex already removed is skipped, the branch is on the
        least-labelled candidate of its orbit, and the whole orbit leaves the
        candidates after it.  `group` is that group as `_stabilizer` takes
        it.  Each child is handed as `parent` the group, the candidates at the
        moment of branching and its branch vertex, and before its own first
        branch takes its `orbit` and `group` from `_stabilize`."""
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _OutOfBudget
        # `_color_sort` leaves out the vertices colored below need - size: the loop returns before them
        order, colors = _color_sort(candidates, self.non_adj, self.need - size)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] < self.need:
                return False
            if parent is not None:
                orbit, group = self._stabilize(mask, size, len(order), *parent)
                parent = None
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
                if self._branch(size + 1, mask | bit, rest, leaf, None, None, group and (group, candidates, v)):
                    return True
            elif size + 1 >= self.need and leaf(size + 1, mask | bit):
                return True
            candidates &= ~drop
        return False

    def _stabilize(self, mask, size, listed, group, within, r):
        """(orbit, group) for the child of r at depth `size`, whose clique is
        `mask` and whose colour sort lists `listed` branch vertices, when its
        parent branched with `group` and the candidates `within`: the orbit
        masks and the group of `_stabilizer`, which tries `_SCHREIER_TRIES`
        Schreier generators at depth one and `_DEEP_TRIES` below it.  (None,
        None) when the subgroup is trivial, or below depth one when fewer than
        `_DEEP_BRANCHES` branch vertices are listed.  A root child's result is
        kept for every search, one per member orbit; a deeper node's walk runs
        each time a search reaches it, at most once per search, so what is
        kept does not grow with the search."""
        if size > 1 and listed < _DEEP_BRANCHES:
            return None, None
        if mask in self.stabilizers:
            return self.stabilizers[mask]
        group, orbits = _stabilizer(self.adj, group, within, r, _SCHREIER_TRIES if size == 1 else _DEEP_TRIES)
        found = (_orbit_masks(orbits), group) if group[1] else (None, None)
        if size == 1:
            self.stabilizers[mask] = found
        return found

    def maximize(self, init_mask=0, node_budget=None):
        """Returns (best size, best mask, proved) growing from the incumbent
        clique `init_mask`; at most `node_budget` nodes are visited."""

        def record(size, mask):
            self.best_size, self.best_mask, self.need = size, mask, size + 1

        record(init_mask.bit_count(), _map_bits(init_mask, self.position))
        self.node_budget, proved = node_budget, True
        try:
            if self.n:
                self._branch(0, 0, (1 << self.n) - 1, record, self.orbit, self.group)
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
            self._branch(0, 0, (1 << self.n) - 1, collect, self.orbit, self.group)
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
        if family and families.min_meet_rank(cert.spec, family) < s:
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
