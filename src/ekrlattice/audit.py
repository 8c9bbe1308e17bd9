"""Exhaustive regularity audit for one family instance.

Builds the whole truncated lattice and reads its order and meets off the
elements' atom masks; nothing is held per pair.  above(i) is i's row of
`families.supersets` over the masks (bit j: element j holds every atom of
i), and below is its transpose: z <= i when z's atoms lie within i's, the
relation `families.leq` tests.  The meet of a pair is the element
whose atoms are the pair's common atoms; where two elements share a mask or
a pair has no meet, which the first check reports, the order reads the meet
as the first element with the mask, or element 0 (`_order`).
`families.meet` depends only on the common atoms, so it is called once per
distinct meet and must decode to the element with those atoms.  Where the
masks are down-closed (dropping any one atom of an element's mask leaves
another element's mask, as in every set and map kind; checked in O(n rank)),
every pairwise `&` is an element's mask, and the distinct meets are the
elements with some element strictly above them: each is decoded once, on
itself and the first element above it.  Otherwise, and to name the first
failing pair when a decode disagrees, the pairs are scanned row by row for
the first pair i < j of each distinct common-atom mask, and that pair is
decoded.  Then it checks by brute force:

* every pair has a unique greatest lower bound (the meet), and no two
  elements share an atom mask;
* covering steps raise rank by exactly one and every positive-rank element
  covers something;
* the four constants mu/nu/theta/alpha are constant over ALL witness
  tuples and equal the formulas in `parameters`;
* every bounded pair has a least upper bound of rank i + j - k.

Each check is a generator.  It yields an int, the number of cases that held
since its last yield, or (element indices, note) for a counterexample,
after the count of the cases that held before it.  One loop runs the
checks in `CHECK_IDS` order, counts and times the cases and stops a check
at its first counterexample.

The four constants are counted in groups: mu per pair z <= y with y in the
top fiber, the others per element, each group the list of its counts over
the ranks its closed forms run through.  The first group of each rank is
judged case by case; once it holds, its counts are that rank's row of
closed forms, and a later group with equal counts holds in one list
comparison.  Only a group that differs goes case by case, so the case
counts and the first counterexample are those of one case at a time.

The greatest lower bound check needs no pair loop.  below(i) is {z :
atoms(z) within atoms(i)}.  Once no two masks are equal and every pairwise
`&` is some element's mask (the two cases it checks first), below(i) &
below(j) is below(k), which holds k, for k the element whose atoms are
atoms(i) & atoms(j): all n(n+1)/2 pairs i <= j hold, and they are counted
in one yield.

The budget is charged once, before any fiber is built.  A case counts as n
comparisons (one bitmask over the n elements), so a passing audit costs n
for the fibers, n^2 for the pairwise scan (charged also where down-closure
spares it) and n per case, and the closed forms give its cases exactly.
With top the top rank and f_s the rank-s fiber size:

* n(n+1) for the greatest lower bounds and the joins (pairs i <= j), and n
  for theta;
* f_s (top + 2 + sum of nu(r, s) over r < s) for each rank s: nu and alpha
  take top + 2 cases per element, the rank function one per element
  strictly below it;
* f_top (sum of nu(r, top) (top - r + 1) over r <= top) for mu.

Each nu(r, s) is evaluated once, and the nu check reads the same values.
An audit whose total is above the budget is refused with that total as its
need and every fiber size in its context.

For set and map kinds `families.join_bounded` reads nothing but the union
of its arguments' atoms, so the join check calls it once per distinct
union, on the first pair (row order) that has it.  Once every meet is
canonical, a pair's upper bounds are the elements above its union too, and
once every rank is its mask's popcount, a pair's own rank(i) + rank(j) -
rank(meet) is its union's popcount.  Then the check judges each union once,
on its first pair, and every other pair costs one `|` and one set lookup.
The subspace kinds, whose pairs nearly all have a union of their own, call
it once per pair, one row i at a time through `map`; their join is the
sumset of the two atom sets, decoded once per distinct join.  Of a row,
only the pairs that share an upper bound (the OR of below(z) over z above
i) or get an answer are judged: every other pair has no upper bound and no
join, so it holds.  A set or map kind whose meets are not all canonical,
or whose ranks are not all popcounts, goes by rows too.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import compress, count, repeat
from operator import is_not

from . import families, parameters
from .errors import BudgetExceededError, NonIntegralError
from .families import DEFAULT_BUDGET, FamilySpec, _bits

CHECK_IDS = (
    "semilattice-glb",
    "rank-function",
    "mu-constant",
    "nu-constant",
    "theta-constant",
    "alpha-lemma",
    "join-rank",
)


class AuditCheck(namedtuple("AuditCheck", "check_id passed cases counterexample elapsed")):
    """One check's verdict: its id, whether it passed, the cases it judged,
    the first counterexample's dict or None, and its seconds."""

    __slots__ = ()


class AuditReport(namedtuple("AuditReport", "spec checks")):
    """The family spec and the list of its `AuditCheck`s."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _order(masks: list[int], at: dict[int, int]) -> tuple[list[int], list[int]]:
    """(below, above) of the elements with these atom masks: bit z of below[i],
    and bit i of above[z], when z is the meet of z and i.  That meet is the
    element `at` their common atoms (`at` maps each mask to the first element
    that has it), or element 0 when no element has them.  So z <= i when z's
    atoms lie within i's and z is the first element with its mask: above[z] is
    z's row of `families.supersets` over the masks, and an element without
    atoms lies below all."""
    held = families.supersets(masks, masks)
    above = [held[z] if at[mask] == z else 0 for z, mask in enumerate(masks)]
    above[0] |= sum(1 << i for i, mask in enumerate(masks) if masks[0] & mask not in at)  # no meet with element 0
    below = [0] * len(masks)
    for z, above_z in enumerate(above):
        for i in _bits(above_z):
            below[i] |= 1 << z
    return below, above


def _down_closed(masks: list[int], at: dict[int, int]) -> bool:
    """Whether dropping any one atom of an element's mask leaves another
    element's mask (`at` holds every mask).  Then every subset of a mask is a
    mask, and so is every `&` of two."""
    return all(mask ^ (1 << a) in at for mask in masks for a in _bits(mask))


def _first_pairs(masks: list[int]) -> dict[int, tuple[int, int]]:
    """Each distinct common-atom mask of two elements -> its first pair i < j,
    in row order."""
    first = {}
    for i, mask in enumerate(masks):
        row = list(map(mask.__and__, masks[i + 1 :]))
        for common in set(row).difference(first):
            first[common] = (i, i + 1 + row.index(common))
    return first


def audit(spec: FamilySpec, budget: int = DEFAULT_BUDGET) -> AuditReport:
    top = spec.top_rank
    fiber_sizes = [families.fiber_size(spec, i) for i in range(top + 1)]
    nus = {(r, s): parameters.nu(spec, r, s) for s in range(top + 1) for r in range(s + 1)}  # read by the nu check too
    n = sum(fiber_sizes)
    # the cases of a passing audit, by closed form (module docstring)
    cases = n * (n + 1) + n  # greatest lower bounds and joins, then theta
    for s, f in enumerate(fiber_sizes):  # nu and alpha, then the rank function
        cases += f * (top + 2 + sum(nus[r, s] for r in range(s)))
    cases += fiber_sizes[top] * sum(nus[r, top] * (top - r + 1) for r in range(top + 1))  # mu
    need = n + n * n + n * cases  # the fibers, the pairwise scan, n comparisons per case
    if need > budget:
        raise BudgetExceededError("the audit", need, "comparisons", budget, fiber_sizes=fiber_sizes)

    els = list(families.enumerate_all(spec))
    n = len(els)  # the alpha check compares it with the closed forms
    index = {e: i for i, e in enumerate(els)}
    ranks = [e.rank for e in els]
    fiber_masks = [0] * (top + 1)
    for i, e in enumerate(els):
        fiber_masks[e.rank] |= 1 << i

    masks = [e.atoms for e in els]
    at: dict[int, int] = {}  # atom mask -> the first element that has it
    shared = None  # the first two elements with one atom mask
    for i, mask in enumerate(masks):
        if at.setdefault(mask, i) != i and shared is None:
            shared = (at[mask], i)
    below, above = _order(masks, at)
    down_closed = shared is None and _down_closed(masks, at)
    if down_closed:  # the distinct meets are the elements strictly below another: one pair each
        pairs = {}
        for k, mask in enumerate(masks):
            strictly = above[k] ^ (1 << k)
            if strictly:
                pairs[mask] = (k, (strictly & -strictly).bit_length() - 1)
    else:
        pairs = _first_pairs(masks)
    # a meet depends only on the common atoms, so one decode checks each distinct meet
    bad = [c for c, (i, j) in pairs.items() if c not in at or families.meet(els[i], els[j]) != els[at[c]]]
    if bad and down_closed:
        pairs = _first_pairs(masks)  # to name the first bad pair in row order
    not_canonical = min((pairs[c] for c in bad), default=None)
    rank_of = {mask: ranks[k] for mask, k in at.items()}  # a meet's rank; a missing meet reads as element 0's
    rank_0 = ranks[0]

    def check_glb():
        if shared is not None:
            yield shared, "elements share one atom mask"
        if not_canonical is not None:
            yield not_canonical, "meet is not canonical"
        yield n * (n + 1) // 2  # then every pair i <= j holds (module docstring)

    def check_rank():
        zero_rank = [i for i in range(n) if ranks[i] == 0]
        if len(zero_rank) != 1:
            yield zero_rank, "rank-0 fiber is not a single least element"
        for j in range(n):
            under = below[j] & ~(1 << j)
            covers = 0
            for i in _bits(under):
                if above[i] & under & ~(1 << i):
                    continue  # something lies strictly between i and j
                covers += 1
                step = ranks[j] - ranks[i]
                if step != 1:
                    yield (under & ((1 << i) - 1)).bit_count()
                    yield (i, j), f"covering step changes rank by {step}"
            yield under.bit_count()
            if ranks[j] > 0 and covers == 0:
                yield (j,), "element covers nothing"

    def constant(name, args_of, groups, forms):
        """Each group (witnesses, r, counts) against `parameters.<name>(spec, *args)`
        for args in args_of[r], one case per count.  A closed form is evaluated
        once per distinct args unless `forms` (args -> the closed form's value,
        or its NonIntegralError) has them already.  The first group of each key
        r goes case by case; once it holds, its counts are r's row of closed
        forms, and a later group with the same counts holds in one comparison."""
        closed_form = getattr(parameters, name)
        closed_rows = {}  # r -> the closed forms of args_of[r], once a group of key r has held
        held = 0
        for witnesses, r, counts in groups:
            if counts == closed_rows.get(r):
                held += len(counts)
                continue
            for args, counted in zip(args_of[r], counts):
                want = forms.get(args)
                if want is None:
                    try:
                        want = closed_form(spec, *args)
                    except NonIntegralError as exc:
                        want = exc
                    forms[args] = want
                if isinstance(want, NonIntegralError):
                    note = str(want)
                else:
                    note = None if counted == want else (
                        f"{name}({','.join(map(str, args))}) counted {counted}, closed form {want}"
                    )
                if note is not None:
                    yield held
                    yield witnesses, note
                held += 1
            closed_rows[r] = counts
        yield held

    def mu_groups():
        for y in _bits(fiber_masks[top]):
            for z in _bits(below[y]):
                between = above[z] & below[y]  # the interval [z, y]
                yield (z, y), ranks[z], [(between & f).bit_count() for f in fiber_masks[ranks[z] :]]

    def verdict(i, j, jb):
        """The verdict on `jb`, join_bounded's answer for the pair (i, j): True
        when the pair holds, the note of its counterexample, or (li, the rank
        of li, or None when li is not the least upper bound)."""
        none, li = jb is None, index.get(jb)
        ub = above[i] & above[j]
        if ub and li is not None:
            return li, ranks[li] if (ub >> li) & 1 and not ub & ~above[li] else None
        if not ub:
            return none or "join_bounded returned an element but no upper bound exists"
        if none:
            return "upper bounds exist but join_bounded returned none"
        return "join_bounded returned an element outside the lattice"

    def failure(i, j, result):
        """The counterexample of the pair (i, j) under `result`, a verdict other
        than True, or None when li has the pair's own rank(i) + rank(j) - rank(meet)."""
        if type(result) is not tuple:
            return (i, j), result
        li, holds = result
        expected_rank = ranks[i] + ranks[j] - rank_of.get(masks[i] & masks[j], rank_0)
        if holds == expected_rank:
            return None
        return (i, j, li), f"least upper bound must have rank {expected_rank}"

    def check_join():
        """Row i calls `join_bounded` on each pair (i, j), j >= i, in order.
        For set and map kinds it reads only the atom union, and once every meet
        is canonical the upper bounds are the elements above the union too
        (`_order`).  Where every rank is its mask's popcount, so is each pair's
        rank(i) + rank(j) - rank(meet) its union's: then one verdict, from one
        call, serves every pair with that union.  Otherwise the row's answers
        come from one `map` over els[i:], and only two kinds of pair are
        judged: those sharing an upper bound with i, the bits of the OR of
        below[z] over z above i, and those with an answer.  Every other pair
        has no upper bound and no answer, so it holds."""
        canonical = spec.q is None and shared is None and not_canonical is None
        by_union = canonical and ranks == list(map(int.bit_count, masks))
        settled = set()  # the atom unions that hold for every pair with them
        for i in range(n):
            if by_union:
                mask_i = masks[i]
                for j in range(i, n):
                    union = mask_i | masks[j]
                    if union in settled:
                        continue
                    pair = verdict(i, j, families.join_bounded(els[i], els[j]))
                    if pair is True or type(pair) is tuple and pair[1] == union.bit_count():
                        settled.add(union)
                        continue
                    yield j - i
                    yield failure(i, j, pair)
            else:
                answers = list(map(families.join_bounded, repeat(els[i]), els[i:]))
                judged = 0  # bit j - i: the pair (i, j) is judged
                for z in _bits(above[i]):
                    judged |= below[z]
                judged >>= i
                for k in compress(count(), map(is_not, answers, repeat(None))):
                    judged |= 1 << k
                for k in _bits(judged):
                    j = i + k
                    pair = verdict(i, j, answers[k])
                    if pair is not True and (bad := failure(i, j, pair)) is not None:
                        yield k
                        yield bad
            yield n - i

    upward = {r: [(r, s) for s in range(r, top + 1)] for r in set(ranks)}  # mu and alpha at r
    generators = (
        check_glb(),
        check_rank(),
        constant("mu", upward, mu_groups(), {}),
        constant("nu", {s: [(r, s) for r in range(s + 1)] for s in set(ranks)}, (
            ((u,), ranks[u], [(below[u] & f).bit_count() for f in fiber_masks[: ranks[u] + 1]]) for u in range(n)
        ), nus),
        constant("theta", {r: [(r,)] for r in set(ranks)}, (
            ((a,), ranks[a], [(above[a] & fiber_masks[top]).bit_count()]) for a in range(n)
        ), {}),
        constant("alpha", upward, (
            ((u,), ranks[u], [(above[u] & f).bit_count() for f in fiber_masks[ranks[u] :]]) for u in range(n)
        ), {}),
        check_join(),
    )
    checks = []
    for check_id, outcomes in zip(CHECK_IDS, generators):
        start = time.perf_counter()
        cases = 0
        counterexample = None
        for outcome in outcomes:
            if type(outcome) is int:  # cases that held
                cases += outcome
                continue
            cases += 1
            witnesses, note = outcome
            counterexample = {"elements": [families.format_element(els[i]) for i in witnesses], "note": note}
            break
        checks.append(AuditCheck(check_id, counterexample is None, cases, counterexample, time.perf_counter() - start))
    return AuditReport(spec, checks)
