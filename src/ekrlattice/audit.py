"""Exhaustive regularity audit for one family instance.

Builds the whole truncated lattice and reads the pairwise meet table off
the elements' atom masks: entry (i, j) is the element whose atoms are
`atoms(i) & atoms(j)`.  `families.meet` depends only on those common atoms,
so it is called once per distinct meet, on the first pair that has it, and
must decode to that element.  The below/above bitmasks fall out of the
table.  Then it checks by brute force:

* every pair has a unique greatest lower bound (the meet), and no two
  elements share an atom mask;
* covering steps raise rank by exactly one and every positive-rank element
  covers something;
* the four constants mu/nu/theta/alpha are constant over ALL witness
  tuples and equal the formulas in `parameters`;
* every bounded pair has a least upper bound of rank i + j - k.

Each check is a generator of cases: it yields None for a case that holds
and (element indices, note) for a counterexample.  One driver runs them in
`CHECK_IDS` order, counts and times the cases and stops a check at its
first counterexample.  A case costs n comparisons (one bitmask over the n
elements), so the driver charges n per case against the budget, after the
setup has charged the closed-form fiber sizes and the n^2 meet table.  The
GLB check costs n per pair i <= j whatever the lattice, so a budget too
small for it is refused before any fiber is built.
"""

from __future__ import annotations

import time
from typing import NamedTuple

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


class AuditCheck(NamedTuple):
    check_id: str
    passed: bool
    cases: int
    counterexample: dict | None
    elapsed: float


class AuditReport(NamedTuple):
    spec: FamilySpec
    checks: list[AuditCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def audit(spec: FamilySpec, budget: int = DEFAULT_BUDGET) -> AuditReport:
    top = spec.top_rank
    fiber_sizes = []
    used = 0

    def charge(amount: int, check_id: str):
        nonlocal used
        used += amount
        if used > budget:
            raise BudgetExceededError(
                f"case budget {budget} exceeded during check {check_id!r}",
                context={"check": check_id, "fiber_sizes": fiber_sizes},
            )

    for i in range(top + 1):
        fiber_sizes.append(families.fiber_size(spec, i))
        charge(fiber_sizes[-1], "setup")
    n = sum(fiber_sizes)
    charge(n * n, "setup")
    glb_cost = n * n * (n + 1) // 2
    if used + glb_cost > budget:
        charge(glb_cost, "semilattice-glb")  # refuses before anything is built

    els = list(families.enumerate_all(spec))
    n = len(els)  # the alpha check compares it with the closed forms
    index = {e: i for i, e in enumerate(els)}
    ranks = [e.rank for e in els]
    fiber_masks = [0] * (top + 1)
    for i, e in enumerate(els):
        fiber_masks[e.rank] |= 1 << i

    # pairwise meet table read off the atom masks; below/above masks fall out of it
    masks = [e.atoms for e in els]
    at: dict[int, int] = {}
    shared = None  # the first two elements with one atom mask
    for i, mask in enumerate(masks):
        if at.setdefault(mask, i) != i and shared is None:
            shared = (at[mask], i)
    meets = [[at.get(a & b) for b in masks] for a in masks]
    first = {}  # meet index (None: no element has those atoms) -> its first pair i < j
    for i, row in enumerate(meets):
        for k in set(row[i + 1 :]).difference(first):
            first[k] = (i, row.index(k, i + 1))
    # a meet depends only on the common atoms, so one decode checks each distinct meet
    not_canonical = min(
        (pair for k, pair in first.items() if k is None or families.meet(els[pair[0]], els[pair[1]]) != els[k]),
        default=None,
    )
    if None in first:  # the join check reads the meet's rank, so a missing meet reads as element 0
        meets = [[0 if k is None else k for k in row] for row in meets]
    below = [sum(1 << z for z, k in enumerate(row) if k == z) for row in meets]  # bit z: els[z] <= els[i]
    above = [0] * n
    for i in range(n):
        for z in _bits(below[i]):
            above[z] |= 1 << i

    def check_glb():
        if shared is not None:
            yield shared, "elements share one atom mask"
        if not_canonical is not None:
            yield not_canonical, "meet is not canonical"
        for i in range(n):
            for j in range(i, n):
                k = meets[i][j]
                common = below[i] & below[j]
                bad = not (common >> k) & 1 or common & ~below[k]
                yield ((i, j), "meet is not the greatest lower bound") if bad else None

    def check_rank():
        zero_rank = [i for i in range(n) if ranks[i] == 0]
        if len(zero_rank) != 1:
            yield zero_rank, "rank-0 fiber is not a single least element"
        for j in range(n):
            bj = 1 << j
            covers = 0
            for i in _bits(below[j] & ~bj):
                if above[i] & below[j] & ~(1 << i) & ~bj:
                    yield None
                    continue
                covers += 1
                step = ranks[j] - ranks[i]
                yield ((i, j), f"covering step changes rank by {step}") if step != 1 else None
            if ranks[j] > 0 and covers == 0:
                yield (j,), "element covers nothing"

    def constant(name, cases):
        """Each (witnesses, args, counted) case against `parameters.<name>(spec, *args)`."""
        closed_form = getattr(parameters, name)
        for witnesses, args, counted in cases:
            try:
                want = closed_form(spec, *args)
            except NonIntegralError as exc:
                note = str(exc)
            else:
                note = None if counted == want else (
                    f"{name}({','.join(map(str, args))}) counted {counted}, closed form {want}"
                )
            yield None if note is None else (witnesses, note)

    def check_join():
        for i in range(n):
            for j in range(i, n):
                ub = above[i] & above[j]
                jb = families.join_bounded(els[i], els[j])
                li = index.get(jb)
                if not ub:
                    yield None if jb is None else (
                        (i, j), "join_bounded returned an element but no upper bound exists"
                    )
                elif li is None:
                    yield (i, j), "upper bounds exist but join_bounded returned none"
                else:
                    expected_rank = ranks[i] + ranks[j] - ranks[meets[i][j]]
                    bad = not (ub >> li) & 1 or ub & ~above[li] or ranks[li] != expected_rank
                    yield ((i, j, li), f"least upper bound must have rank {expected_rank}") if bad else None

    generators = (
        check_glb(),
        check_rank(),
        constant("mu", (
            ((z, y), (ranks[z], s), (above[z] & below[y] & fiber_masks[s]).bit_count())
            for y in _bits(fiber_masks[top]) for z in _bits(below[y]) for s in range(ranks[z], top + 1)
        )),
        constant("nu", (
            ((u,), (r, ranks[u]), (below[u] & fiber_masks[r]).bit_count())
            for u in range(n) for r in range(ranks[u] + 1)
        )),
        constant("theta", (((a,), (ranks[a],), (above[a] & fiber_masks[top]).bit_count()) for a in range(n))),
        constant("alpha", (
            ((u,), (ranks[u], s), (above[u] & fiber_masks[s]).bit_count())
            for u in range(n) for s in range(ranks[u], top + 1)
        )),
        check_join(),
    )
    checks = []
    for check_id, outcomes in zip(CHECK_IDS, generators):
        start = time.perf_counter()
        cases = 0
        counterexample = None
        for outcome in outcomes:
            cases += 1
            charge(n, check_id)
            if outcome is not None:
                witnesses, note = outcome
                counterexample = {"elements": [families.format_element(els[i]) for i in witnesses], "note": note}
                break
        checks.append(AuditCheck(check_id, counterexample is None, cases, counterexample, time.perf_counter() - start))
    return AuditReport(spec, checks)
