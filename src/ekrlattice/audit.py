"""Exhaustive regularity audit for one family instance.

Builds the whole truncated lattice and reads its order and meets off the
elements' atom masks; nothing is held per pair.  above(i) is i's row of
`families.supersets` over the masks (bit j: element j holds every atom of
i), and below is its transpose: z <= i when z's atoms lie within i's, the
relation `families.leq` tests.  The meet of a pair is the element
whose atoms are the pair's common atoms; where two elements share a mask or
a pair has no meet, which the first check reports, the order reads the meet
as the first element with the mask, or element 0 (`_order`).  The pairs are
scanned row by row for the first pair i < j of each distinct common-atom
mask; `families.meet` depends only on those common atoms, so it is called
once per distinct meet, on that first pair, and must decode to that
element.  Then it checks by brute force:

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

The greatest lower bound check needs no pair loop.  below(i) is {z :
atoms(z) within atoms(i)}.  Once no two masks are equal and every pairwise
`&` is some element's mask (the two cases it checks first), below(i) &
below(j) is below(k), which holds k, for k the element whose atoms are
atoms(i) & atoms(j): all n(n+1)/2 pairs i <= j hold, and they are counted
in one yield.

The budget is charged once, before any fiber is built.  A case counts as n
comparisons (one bitmask over the n elements), so a passing audit costs n
for the fibers, n^2 for the pairwise scan and n per case, and the closed
forms give its cases exactly.  With top the top rank and f_s the rank-s
fiber size:

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
union, on the first pair (row order) that has it.  A pair's upper bounds
are the elements above its union too, so once every meet is canonical the
check judges each union once.  The subspace kinds, whose pairs nearly all
have a union of their own, call it once per pair, one row i at a time
through `map`; their join is the sumset of the two atom sets, decoded once
per distinct join.  Of a row, only the pairs that share an upper bound (the
OR of below(z) over z above i) or get an answer are judged: every other
pair has no upper bound and no join, so it holds.  A set or map kind whose
meets are not all canonical goes by rows too.
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
    first = {}  # common-atom mask -> its first pair i < j, in row order
    for i, mask in enumerate(masks):
        row = list(map(mask.__and__, masks[i + 1 :]))
        for common in set(row).difference(first):
            first[common] = (i, i + 1 + row.index(common))
    # a meet depends only on the common atoms, so one decode checks each distinct meet
    not_canonical = min(
        (
            pair
            for common, pair in first.items()
            if common not in at or families.meet(els[pair[0]], els[pair[1]]) != els[at[common]]
        ),
        default=None,
    )
    below, above = _order(masks, at)
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

    def constant(name, cases, forms):
        """Each (witnesses, args, counted) case against `parameters.<name>(spec, *args)`,
        evaluated once per distinct args unless `forms` (args -> the closed form's
        value, or its NonIntegralError) has them already."""
        closed_form = getattr(parameters, name)
        held = 0
        for witnesses, args, counted in cases:
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
        yield held

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
        (`_order`): then one verdict, from one call, serves every pair with
        that union.  Otherwise the row's answers come from one `map` over
        els[i:], and only two kinds of pair are judged: those sharing an upper
        bound with i, the bits of the OR of below[z] over z above i, and those
        with an answer.  Every other pair has no upper bound and no answer, so
        it holds."""
        by_union = spec.q is None and shared is None and not_canonical is None
        verdicts = {}  # atom union -> its verdict
        for i in range(n):
            if by_union:
                mask_i, rank_i = masks[i], ranks[i]
                for j in range(i, n):
                    union = mask_i | masks[j]
                    pair = verdicts.get(union)
                    if pair is None:
                        pair = verdicts[union] = verdict(i, j, families.join_bounded(els[i], els[j]))
                    if pair is True:
                        continue
                    if type(pair) is tuple and pair[1] == rank_i + ranks[j] - rank_of.get(mask_i & masks[j], rank_0):
                        continue  # li has the pair's own rank, as `failure` checks
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

    generators = (
        check_glb(),
        check_rank(),
        constant("mu", (
            ((z, y), (ranks[z], s), (above[z] & below[y] & fiber_masks[s]).bit_count())
            for y in _bits(fiber_masks[top]) for z in _bits(below[y]) for s in range(ranks[z], top + 1)
        ), {}),
        constant("nu", (
            ((u,), (r, ranks[u]), (below[u] & fiber_masks[r]).bit_count())
            for u in range(n) for r in range(ranks[u] + 1)
        ), nus),
        constant("theta", (((a,), (ranks[a],), (above[a] & fiber_masks[top]).bit_count()) for a in range(n)), {}),
        constant("alpha", (
            ((u,), (ranks[u], s), (above[u] & fiber_masks[s]).bit_count())
            for u in range(n) for s in range(ranks[u], top + 1)
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
