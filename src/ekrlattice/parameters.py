"""Closed-form regularity constants and their brute-force counting oracle.

Each family carries four constants:

* mu(r, s)   -- rank-s elements between a fixed rank-r element and a fixed
                top element above it;
* nu(r, s)   -- rank-r elements below a fixed rank-s element;
* theta(r)   -- top-fiber elements above a fixed rank-r element;
* alpha(r,s) -- rank-s elements above a fixed rank-r element, always equal
                to theta(r) * mu(r, s) / theta(s) with exact division.

`oracle_count` computes the same quantities by literal enumeration for one
concrete witness tuple, and the tests compare it with the closed forms; the
audit counts every witness tuple from the order it reads off the atom masks
instead.

All arithmetic is exact unbounded-integer arithmetic.
"""

import math

from . import families
from .errors import NonIntegralError, ParseError
from .families import FamilySpec
from .gf import qbinom


def _check_ranks(spec: FamilySpec, r: int, s: int):
    if not 0 <= r <= s <= spec.top_rank:
        raise ParseError(f"ranks must satisfy 0 <= r <= s <= {spec.top_rank}, got r={r}, s={s}")


def _binomial(spec: FamilySpec, a: int, b: int) -> int:
    """[a b]_q for subspace kinds, C(a, b) for the others."""
    return qbinom(a, b, spec.q) if spec._record.shape == "subspace" else math.comb(a, b)


def mu(spec: FamilySpec, r: int, s: int) -> int:
    """Count of rank-s elements u with z <= u <= y, for z of rank r below a top y."""
    _check_ranks(spec, r, s)
    return _binomial(spec, spec.top_rank - r, s - r)


def nu(spec: FamilySpec, r: int, s: int) -> int:
    """Count of rank-r elements below a fixed rank-s element."""
    _check_ranks(spec, r, s)
    return _binomial(spec, s, r)


def theta(spec: FamilySpec, r: int) -> int:
    """Count of top-fiber elements above a fixed rank-r element, by the kind's record."""
    if not 0 <= r <= spec.top_rank:
        raise ParseError(f"rank must satisfy 0 <= r <= {spec.top_rank}, got {r}")
    return spec._record.theta(spec, r)


def alpha(spec: FamilySpec, r: int, s: int) -> int:
    """Count of rank-s elements above a fixed rank-r element."""
    _check_ranks(spec, r, s)
    num = theta(spec, r) * mu(spec, r, s)
    den = theta(spec, s)
    if num % den:
        raise NonIntegralError(
            f"theta(s) does not divide theta(r)*mu(r,s) for {spec} with r={r}, s={s}"
        )
    return num // den


def oracle_count(spec: FamilySpec, which: str, witnesses, *, r: int | None = None, s: int | None = None) -> int:
    """Literal enumeration count for one witness tuple.

    * theta: witnesses=(z,) counts top elements above z;
    * mu:    witnesses=(z, y) with y a top element above z, counts rank-s
             elements between them;
    * nu:    witnesses=(u,) counts rank-r elements below u;
    * alpha: witnesses=(u,) counts rank-s elements above u.
    """
    top = spec.top_rank
    if which == "theta":
        (z,) = witnesses
        return sum(1 for y in families.enumerate_fiber(spec, top) if families.leq(z, y))
    if which == "mu":
        z, y = witnesses
        if y.rank != top:
            raise ParseError("mu oracle requires a top-fiber witness y")
        if not families.leq(z, y):
            raise ParseError("mu oracle requires z below y")
        if s is None or not z.rank <= s <= top:
            raise ParseError("mu oracle requires z.rank <= s <= top rank")
        return sum(
            1
            for u in families.enumerate_fiber(spec, s)
            if families.leq(z, u) and families.leq(u, y)
        )
    if which == "nu":
        (u,) = witnesses
        if r is None or not 0 <= r <= u.rank:
            raise ParseError("nu oracle requires 0 <= r <= u.rank")
        return sum(1 for z in families.enumerate_fiber(spec, r) if families.leq(z, u))
    if which == "alpha":
        (u,) = witnesses
        if s is None or not u.rank <= s <= top:
            raise ParseError("alpha oracle requires u.rank <= s <= top rank")
        return sum(1 for z in families.enumerate_fiber(spec, s) if families.leq(u, z))
    raise ParseError(f"unknown parameter name {which!r}")
