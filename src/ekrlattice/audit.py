"""Exhaustive regularity audit for one family instance.

Builds the whole truncated lattice, precomputes pairwise meets plus
below/above bitmasks, and then checks by brute force:

* every pair has a unique greatest lower bound (the meet);
* covering steps raise rank by exactly one and every positive-rank element
  covers something;
* the four constants mu/nu/theta/alpha are constant over ALL witness
  tuples and agree with their closed forms;
* every bounded pair has a least upper bound of rank i + j - k.

Work is metered in elementary comparisons against a case budget so an
oversized spec fails fast instead of grinding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import families, parameters
from .errors import BudgetExceededError, NonIntegralError
from .families import FamilySpec, _bits

DEFAULT_BUDGET = 10**8

CHECK_IDS = (
    "semilattice-glb",
    "rank-function",
    "mu-constant",
    "nu-constant",
    "theta-constant",
    "alpha-lemma",
    "join-rank",
)


@dataclass
class AuditCheck:
    check_id: str
    passed: bool
    cases: int
    counterexample: dict | None
    elapsed: float


@dataclass
class AuditReport:
    spec: FamilySpec
    checks: list[AuditCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Meter:
    def __init__(self, budget: int, fiber_sizes):
        self.budget = budget
        self.used = 0
        self.fiber_sizes = list(fiber_sizes)
        self.check_id = "setup"

    def charge(self, n: int):
        self.used += n
        if self.used > self.budget:
            raise BudgetExceededError(
                f"case budget {self.budget} exceeded during check {self.check_id!r}",
                context={"check": self.check_id, "fiber_sizes": self.fiber_sizes},
            )


def audit(spec: FamilySpec, budget: int = DEFAULT_BUDGET) -> AuditReport:
    top = spec.top_rank
    meter = _Meter(budget, [])

    fibers = []
    for i in range(top + 1):
        fiber = families._fiber(spec, i)
        meter.fiber_sizes.append(len(fiber))
        meter.charge(len(fiber))
        fibers.append(fiber)
    els = [e for fiber in fibers for e in fiber]
    n = len(els)
    index = {e: i for i, e in enumerate(els)}
    ranks = [e.rank for e in els]

    fiber_masks = [0] * (top + 1)
    for i, e in enumerate(els):
        fiber_masks[e.rank] |= 1 << i

    # pairwise meet table; below/above masks fall out of it
    meter.check_id = "setup"
    meter.charge(n * n)
    meets = [[0] * n for _ in range(n)]
    missing = None
    for i in range(n):
        meets[i][i] = i
        for j in range(i + 1, n):
            m = families.meet(els[i], els[j])
            mi = index.get(m)
            if mi is None:
                missing = (i, j, m)
                mi = 0
            meets[i][j] = meets[j][i] = mi
    below = [0] * n  # bit z of below[i]: els[z] <= els[i]
    for z in range(n):
        bz = 1 << z
        for i in range(n):
            if meets[z][i] == z:
                below[i] |= bz
    above = [0] * n
    for i in range(n):
        for z in _bits(below[i]):
            above[z] |= 1 << i

    checks: list[AuditCheck] = []

    def run(check_id, fn):
        meter.check_id = check_id
        start = time.perf_counter()
        counterexample, cases = fn()
        checks.append(
            AuditCheck(check_id, counterexample is None, cases, counterexample, time.perf_counter() - start)
        )

    def fmt(i: int) -> str:
        return families.format_element(els[i])

    def check_glb():
        if missing is not None:
            i, j, m = missing
            return {"elements": [fmt(i), fmt(j)], "note": "meet is not canonical"}, 1
        cases = 0
        for i in range(n):
            for j in range(i, n):
                k = meets[i][j]
                common = below[i] & below[j]
                cases += 1
                meter.charge(n)
                if not (common >> k) & 1 or common & ~below[k]:
                    return {
                        "elements": [fmt(i), fmt(j)],
                        "note": "meet is not the greatest lower bound",
                    }, cases
        return None, cases

    def check_rank():
        cases = 0
        zero_rank = [i for i in range(n) if ranks[i] == 0]
        if len(zero_rank) != 1:
            return {"elements": [fmt(i) for i in zero_rank], "note": "rank-0 fiber is not a single least element"}, 1
        for j in range(n):
            bj = 1 << j
            covers = 0
            for i in _bits(below[j] & ~bj):
                cases += 1
                meter.charge(n)
                between = above[i] & below[j] & ~(1 << i) & ~bj
                if between:
                    continue
                covers += 1
                if ranks[j] != ranks[i] + 1:
                    return {
                        "elements": [fmt(i), fmt(j)],
                        "note": f"covering step changes rank by {ranks[j] - ranks[i]}",
                    }, cases
            if ranks[j] > 0 and covers == 0:
                return {"elements": [fmt(j)], "note": "element covers nothing"}, cases
        return None, cases

    def check_mu():
        cases = 0
        for y in _bits(fiber_masks[top]):
            for z in _bits(below[y]):
                r = ranks[z]
                for s in range(r, top + 1):
                    cases += 1
                    meter.charge(n)
                    got = (above[z] & below[y] & fiber_masks[s]).bit_count()
                    want = parameters.mu(spec, r, s)
                    if got != want:
                        return {
                            "elements": [fmt(z), fmt(y)],
                            "note": f"mu({r},{s}) counted {got}, closed form {want}",
                        }, cases
        return None, cases

    def check_nu():
        cases = 0
        for u in range(n):
            s = ranks[u]
            for r in range(s + 1):
                cases += 1
                meter.charge(n)
                got = (below[u] & fiber_masks[r]).bit_count()
                want = parameters.nu(spec, r, s)
                if got != want:
                    return {
                        "elements": [fmt(u)],
                        "note": f"nu({r},{s}) counted {got}, closed form {want}",
                    }, cases
        return None, cases

    def check_theta():
        cases = 0
        for a in range(n):
            cases += 1
            meter.charge(n)
            got = (above[a] & fiber_masks[top]).bit_count()
            want = parameters.theta(spec, ranks[a])
            if got != want:
                return {
                    "elements": [fmt(a)],
                    "note": f"theta({ranks[a]}) counted {got}, closed form {want}",
                }, cases
        return None, cases

    def check_alpha():
        cases = 0
        for u in range(n):
            r = ranks[u]
            for s in range(r, top + 1):
                cases += 1
                meter.charge(n)
                try:
                    want = parameters.alpha(spec, r, s)
                except NonIntegralError as exc:
                    return {"elements": [fmt(u)], "note": str(exc)}, cases
                got = (above[u] & fiber_masks[s]).bit_count()
                if got != want:
                    return {
                        "elements": [fmt(u)],
                        "note": f"alpha({r},{s}) counted {got}, closed form {want}",
                    }, cases
        return None, cases

    def check_join():
        cases = 0
        for i in range(n):
            for j in range(i, n):
                cases += 1
                meter.charge(n)
                ub = above[i] & above[j]
                jb = families.join_bounded(els[i], els[j])
                if not ub:
                    if jb is not None:
                        return {
                            "elements": [fmt(i), fmt(j)],
                            "note": "join_bounded returned an element but no upper bound exists",
                        }, cases
                    continue
                li = index.get(jb) if jb is not None else None
                if li is None:
                    return {
                        "elements": [fmt(i), fmt(j)],
                        "note": "upper bounds exist but join_bounded returned none",
                    }, cases
                expected_rank = ranks[i] + ranks[j] - ranks[meets[i][j]]
                if (
                    not (ub >> li) & 1
                    or ub & ~above[li]
                    or ranks[li] != expected_rank
                ):
                    return {
                        "elements": [fmt(i), fmt(j), fmt(li)],
                        "note": f"least upper bound must have rank {expected_rank}",
                    }, cases
        return None, cases

    run("semilattice-glb", check_glb)
    run("rank-function", check_rank)
    run("mu-constant", check_mu)
    run("nu-constant", check_nu)
    run("theta-constant", check_theta)
    run("alpha-lemma", check_alpha)
    run("join-rank", check_join)
    return AuditReport(spec, checks)
