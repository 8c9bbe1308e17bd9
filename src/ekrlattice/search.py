"""Exact maximum s-intersecting subfamily search inside a design.

Reformulated as maximum clique: vertices are design members and two are
adjacent when their meet has rank at least s, so cliques are exactly the
s-intersecting subfamilies.  The solver is one serial branch and bound
with greedy coloring upper bounds over int bitmasks, seeded with the best
star as the initial incumbent; the same branch routine enumerates every
maximum clique and reconstructs the lexicographically least one.  Each
returned family is re-verified through `families.meet`.

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

A wrong or useless candidate is dropped and costs only speed; witnesses are
re-verified as before.  `enumerate_exact` and `lexicographically_least` need
every clique or the canonical order and use no orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

from . import ekr, families
from .designs import DesignCertificate
from .errors import BudgetExceededError, ParseError
from .families import Element

DEFAULT_VERTEX_BUDGET = 5000
ALL_MAX_CAP = 10**6


@dataclass(frozen=True)
class IntersectionGraph:
    """Adjacency bitmasks over design indices; diagonal bits are set."""

    size: int
    adjacency: tuple[int, ...]


def build_graph(cert: DesignCertificate, s: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> IntersectionGraph:
    """Exact adjacency by pairwise meet ranks, read from atom popcounts."""
    if not 1 <= s <= cert.spec.top_rank:
        raise ParseError(f"s must satisfy 1 <= s <= {cert.spec.top_rank}, got {s}")
    members = cert.elements
    n = len(members)
    if n > vertex_budget:
        raise BudgetExceededError(
            f"design has {n} elements, vertex budget is {vertex_budget}",
            context={"design_size": n},
        )
    return IntersectionGraph(n, tuple(ekr.intersection_masks(members, s)))


def greedy_lower_bound(cert: DesignCertificate, s: int) -> tuple[int, tuple[Element, ...]]:
    """Best star over rank-s centers, the first of maximum size in canonical order;
    always a valid s-intersecting family.  Only centers below a member have a
    nonempty star, so no fiber is built; when |Y| times the count below one
    member exceeds FIBER_CAP, the least member alone seeds the search instead."""
    members = cert.elements
    if len(members) * families.below_count(cert.spec, cert.spec.top_rank, s) > families.FIBER_CAP:
        return 1, (min(members),)
    stars: dict[tuple, int] = {}  # center payload -> mask of the members above it
    for j, x in enumerate(members):
        for z in families.below(x, s):
            stars[z.payload] = stars.get(z.payload, 0) | 1 << j
    best = stars[min(stars, key=lambda p: (-stars[p].bit_count(), p))]
    return best.bit_count(), tuple(sorted(members[j] for j in range(len(members)) if best >> j & 1))


def member_orbits(cert: DesignCertificate) -> list[list[int]]:
    """The orbits, as lists of member indices, of the group generated by the
    candidate symmetries (`families.symmetries`) that map the set of member
    atom masks onto itself."""
    members = cert.elements
    index = {x.atoms: j for j, x in enumerate(members)}
    kept = []
    for g in families.symmetries(cert.spec):
        image = list(takewhile(lambda j: j is not None, (index.get(g(x)) for x in members)))
        if len(image) == len(members):
            kept.append(image)
    seen, orbits = set(), []
    for j in range(len(members)):
        if j not in seen:
            seen.add(j)
            orbits.append([j])
            for k in orbits[-1]:  # grows while it is walked: the closure under `kept`
                for image in kept:
                    if image[k] not in seen:
                        seen.add(image[k])
                        orbits[-1].append(image[k])
    return orbits


@dataclass(frozen=True)
class SearchResult:
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
    """Branch and bound over a relabeled graph.

    All three searches run through `_branch`, which prunes on the colour
    bound against the threshold `need` and hands each clique that no
    candidate extends to a leaf action.  `maximize` raises `need` past every
    clique it records, and its root starts one subtree per orbit of `orbit`
    (per vertex, the mask of its orbit under graph automorphisms; None for
    singletons).  `enumerate_exact` and `lexicographically_least` keep
    `need` at the proved optimum, where a clique of that size has no
    candidate left, so the leaf sees exactly the maximum cliques.
    """

    def __init__(self, adj, node_budget=None, orbit=None):
        self.n = len(adj)
        self.adj = [a & ~(1 << i) for i, a in enumerate(adj)]
        self.node_budget = node_budget
        self.orbit = orbit
        self.nodes = 0
        self.need = 0

    def _branch(self, size, mask, candidates, leaf, orbit=None):
        """Grow the clique `mask` of `size` inside candidates; True stops the search.
        With `orbit`, which only the root of `maximize` passes, a vertex already
        removed is skipped, the branch is on the least-labelled candidate of its
        orbit, and the whole orbit leaves the candidates after it."""
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _OutOfBudget
        order, colors = _color_sort(candidates, self.adj)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] < self.need:
                return False
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
                if self._branch(size + 1, mask | bit, rest, leaf):
                    return True
            elif size + 1 >= self.need and leaf(size + 1, mask | bit):
                return True
            candidates &= ~drop
        return False

    def maximize(self, init_size=0, init_mask=0):
        """Returns (best size, best mask, proved) growing from the incumbent."""

        def record(size, mask):
            self.best_size, self.best_mask, self.need = size, mask, size + 1

        record(init_size, init_mask)
        if not self.n:
            return self.best_size, self.best_mask, True
        try:
            self._branch(0, 0, (1 << self.n) - 1, record, self.orbit)
            return self.best_size, self.best_mask, True
        except _OutOfBudget:
            return self.best_size, self.best_mask, False

    def enumerate_exact(self, target, cap):
        """All cliques of size exactly target, which must be the clique number."""
        if target == 0:
            return [0], False
        out = []

        def collect(size, mask):
            out.append(mask)
            if len(out) > cap:
                raise _Overflow

        self.need = target
        try:
            self._branch(0, 0, (1 << self.n) - 1, collect)
            return out, False
        except _Overflow:
            return None, True

    def lexicographically_least(self, omega):
        """Vertex-greedy least maximum clique; vertex order must be canonical."""
        self.need = omega
        mask, size = 0, 0
        candidates = (1 << self.n) - 1
        for v in range(self.n):
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
        return mask


def _relabel(adjacency, order):
    """Adjacency masks with vertex order[i] renamed to i."""
    position = {orig: new for new, orig in enumerate(order)}
    relabeled = []
    for orig in order:
        mask = 0
        probe = adjacency[orig]
        while probe:
            low = probe & -probe
            mask |= 1 << position[low.bit_length() - 1]
            probe ^= low
        relabeled.append(mask)
    return relabeled


def _mask_to_family(mask, order, members) -> tuple[Element, ...]:
    picked = [members[order[i]] for i in range(len(order)) if (mask >> i) & 1]
    return tuple(sorted(picked))


def max_intersecting(
    cert: DesignCertificate,
    s: int,
    *,
    deterministic: bool = False,
    enumerate_all: bool = False,
    node_budget: int | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    all_max_cap: int = ALL_MAX_CAP,
) -> SearchResult:
    """Exact maximum s-intersecting subfamily of the design.

    The search visits vertices in descending degree order.  The witness is
    deterministic (lexicographically least) only with `deterministic=True`:
    the least family of `all_max` when every maximum family was enumerated,
    else reconstructed over the canonical payload order.  `nodes` counts the
    nodes of every search run, reconstruction included.  The witness and every
    family in `all_max` are re-verified through `families.meet` before
    they are returned; a failure raises AssertionError.
    """
    graph = build_graph(cert, s, vertex_budget)
    members = cert.elements
    n = graph.size
    degrees = [graph.adjacency[i].bit_count() for i in range(n)]
    vertex_order = sorted(range(n), key=lambda i: (-degrees[i], members[i].payload))
    relabeled = _relabel(graph.adjacency, vertex_order)

    lb_size, lb_members = greedy_lower_bound(cert, s)
    seed = set(lb_members)
    lb_mask = sum(1 << i for i, orig in enumerate(vertex_order) if members[orig] in seed)

    position = {orig: new for new, orig in enumerate(vertex_order)}
    orbits = member_orbits(cert)
    orbit = {}  # relabeled vertex -> the mask of its orbit
    for found in orbits:
        orbit.update(dict.fromkeys([position[k] for k in found], sum(1 << position[k] for k in found)))
    solver = _Solver(relabeled, node_budget, orbit)
    optimum, best_mask, proved = solver.maximize(lb_size, lb_mask)
    status = "proved-optimal" if proved else "budget-exhausted"
    witness = _mask_to_family(best_mask, vertex_order, members)

    all_max = None
    overflow = False
    if proved and enumerate_all:
        enum_solver = _Solver(relabeled)
        masks, overflow = enum_solver.enumerate_exact(optimum, all_max_cap)
        solver.nodes += enum_solver.nodes
        if not overflow:
            all_max = tuple(sorted(_mask_to_family(m, vertex_order, members) for m in masks))
    if proved and deterministic:
        if all_max:
            witness = all_max[0]
        else:
            canon_order = sorted(range(n), key=lambda i: members[i].payload)
            lex_solver = _Solver(_relabel(graph.adjacency, canon_order))
            witness = _mask_to_family(lex_solver.lexicographically_least(optimum), canon_order, members)
            solver.nodes += lex_solver.nodes

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
        orbits=len(orbits),
        status=status,
    )
