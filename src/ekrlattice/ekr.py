"""Intersection families and the main bound: hypothesis evaluation in three
forms, the exact d_r statistic, and extremal-family verification.

For a design of strength t and a target rank s the bound |Z| <= lambda_s on
an s-intersecting subfamily Z holds whenever, for every r in 0..s-1,

    mu(r,s) * nu(s,M) * lambda_t      < lambda_s   (rows with r <= 2s-t)
    mu(r,s) * nu(s,M) * lambda_{2s-r} < lambda_s   (rows with 2s-t <= r <= s-1)

Each row is also evaluated with theta in place of lambda (both sides scale
by the same positive factor, so the verdicts must agree and the code
asserts they do).  Two additional printed forms are reported alongside and
never silently reconciled with the raw rows:

* remark_form swaps the roles of mu and nu exactly as printed
  (nu(r,s) * mu(s,M) * theta(.) < theta(s)); on some families it disagrees
  with the raw rows and the report surfaces that;
* table1_form is a per-family closed-form threshold with two regimes
  (s < t-1 and s = t-1), evaluated in exact integer arithmetic.
"""

from . import families, parameters
from .designs import DesignCertificate
from .errors import BudgetExceededError, ParseError
from .families import FamilySpec, Record, min_meet_rank  # min_meet_rank is exported from here too


def is_intersecting(spec: FamilySpec, family, s: int) -> bool:
    """True iff every pairwise meet has rank at least s."""
    _check_s_below_top(spec, s)
    return min_meet_rank(spec, family) >= s


def _check_s_below_top(spec: FamilySpec, s: int) -> None:
    if not 0 < s < spec.top_rank:
        raise ParseError(f"s must satisfy 0 < s < {spec.top_rank}, got {s}")


def _check_s_to_strength(s: int, t: int) -> None:
    if not 0 <= s <= t:
        raise ParseError(f"s must satisfy 0 <= s <= {t}, got {s}")


def _check_s_below_strength(spec: FamilySpec, s: int, t: int) -> None:
    if not 0 < s < t <= spec.top_rank:
        raise ParseError(f"need 0 < s < t <= {spec.top_rank}, got s={s}, t={t}")


def check_condition_range(s: int, t: int) -> None:
    """Refuse the s of `check_conditions` at strength t, before any coverage pass."""
    if not 0 < s < t:
        raise ParseError(f"need 0 < s < t (certificate strength t={t}), got s={s}")


def check_dr_range(spec: FamilySpec, r: int, s: int, t: int) -> None:
    """Refuse the r and s of `compute_dr` at strength t, before any coverage pass."""
    if not 0 <= r < s <= t:
        raise ParseError(f"need 0 <= r <= s-1 < t <= {spec.top_rank}, got r={r}, s={s}, t={t}")


def check_extremal_range(spec: FamilySpec, s: int, t: int) -> None:
    """Refuse the s of `verify_extremal` at strength t, before any coverage pass,
    with the message that function gives."""
    _check_s_below_top(spec, s)
    _check_s_to_strength(s, t)


class ConditionRow(Record, fields="r conditions lhs rhs theta_lhs theta_rhs holds"):
    """One r-row of the hypothesis, in design-index and theta form: the
    tuple of condition names that apply, both sides of each form, and
    whether lhs < rhs."""

    __slots__ = ()


class RemarkRow(Record, fields="r conditions lhs rhs holds"):
    """One r-row of the printed remark form."""

    __slots__ = ()


class ConditionReport(
    Record,
    fields="spec s t indices bound rows cond1_vacuous theorem_form remark_rows remark_form remark_agrees"
    " table1_form table1_agrees",
):
    """The hypotheses at (s, t): `bound` is lambda_s, `rows` the
    `ConditionRow`s and `remark_rows` the `RemarkRow`s; each `*_form` says
    whether that form holds and each `*_agrees` whether it agrees with
    `theorem_form`."""

    __slots__ = ()


def _row_ranges(s: int, t: int):
    """Per-r applicable conditions and the lambda index used on the left."""
    hi1 = 2 * s - t
    lo2 = max(0, hi1)
    for r in range(s):
        conditions = []
        if hi1 >= 0 and r <= hi1:
            conditions.append("cond1")
        if r >= lo2:
            conditions.append("cond2")
        j = t if r <= hi1 else 2 * s - r
        yield r, tuple(conditions), j


def check_conditions(cert: DesignCertificate, s: int) -> ConditionReport:
    """Evaluate the bound's hypotheses for the certificate at rank s."""
    spec = cert.spec
    t = cert.strength
    top = spec.top_rank
    check_condition_range(s, t)
    lam = cert.indices
    nu_sm = parameters.nu(spec, s, top)
    theta_s = parameters.theta(spec, s)
    rows = []
    for r, conditions, j in _row_ranges(s, t):
        base = parameters.mu(spec, r, s) * nu_sm
        lhs, rhs = base * lam[j], lam[s]
        theta_lhs, theta_rhs = base * parameters.theta(spec, j), theta_s
        holds = lhs < rhs
        if holds != (theta_lhs < theta_rhs):
            raise AssertionError(f"lambda-form and theta-form verdicts disagree at r={r}")
        rows.append(ConditionRow(r, conditions, lhs, rhs, theta_lhs, theta_rhs, holds))
    theorem_form = all(row.holds for row in rows)
    remark_form, remark_rows = remark_conditions(spec, s, t)
    table1_form = table1_condition(spec, s, t)
    return ConditionReport(
        spec=spec,
        s=s,
        t=t,
        indices=lam,
        bound=lam[s],
        rows=tuple(rows),
        cond1_vacuous=2 * s - t < 0,
        theorem_form=theorem_form,
        remark_rows=remark_rows,
        remark_form=remark_form,
        remark_agrees=remark_form == theorem_form,
        table1_form=table1_form,
        table1_agrees=table1_form == theorem_form,
    )


def remark_conditions(spec: FamilySpec, s: int, t: int) -> tuple[bool, tuple[RemarkRow, ...]]:
    """The printed index-free form: nu(r,s) * mu(s,M) * theta(.) < theta(s)."""
    _check_s_below_strength(spec, s, t)
    top = spec.top_rank
    mu_sm = parameters.mu(spec, s, top)
    theta_s = parameters.theta(spec, s)
    rows = []
    for r, conditions, j in _row_ranges(s, t):
        lhs = parameters.nu(spec, r, s) * mu_sm * parameters.theta(spec, j)
        rows.append(RemarkRow(r, conditions, lhs, theta_s, lhs < theta_s))
    return all(row.holds for row in rows), tuple(rows)


def table1_condition(spec: FamilySpec, s: int, t: int) -> bool:
    """Closed-form parameter threshold, per family (its record's `loose` and `tight`) and regime."""
    _check_s_below_strength(spec, s, t)
    record = spec._record
    return (record.tight if s == t - 1 else record.loose)(spec, s)  # otherwise s < t-1


def ekr_bound(cert: DesignCertificate, s: int) -> int:
    """lambda_s; whether the bound is theorem-backed is check_conditions' job."""
    _check_s_to_strength(s, cert.strength)
    return cert.indices[s]


class DrReport(Record, fields="r s d_r bound witness"):
    """Exact d_r with its witness pair (x, y) and the applicable bound;
    `d_r` and `witness` are None when no pair has meet rank r."""

    __slots__ = ()


def compute_dr(cert: DesignCertificate, s: int, r: int) -> DrReport:
    """Exhaustive maximum of |{z in Y : x <= z, rank(z /\\ y) >= s}|.

    Quantifies over every x in the rank-s fiber and every y in Y with
    rank(x /\\ y) == r, and compares against mu(r,s) * lambda_j where
    j = t when r <= 2s-t and j = 2s-r otherwise.  The scan is refused before
    it starts when its comparisons, or the word operations that fill its
    `near` table, exceed `families.DEFAULT_BUDGET`.
    """
    spec = cert.spec
    t = cert.strength
    check_dr_range(spec, r, s, t)
    j = t if r <= 2 * s - t else 2 * s - r
    bound = parameters.mu(spec, r, s) * cert.indices[j]
    members = cert.elements
    size = families.fiber_size(spec, s)
    # fiber x Y meet popcounts, and at most as many `leq` tests in `above`; or
    # the `near` table's |Y| nu(s, M) ORs, each over |Y| bits (|Y| // 64 + 1
    # words), which also bounds the table's |Y|^2 bits
    n = len(members)
    need = max(size * n * 2, n * parameters.nu(spec, s, spec.top_rank) * (n // 64 + 1))
    if need > families.DEFAULT_BUDGET:
        raise BudgetExceededError(
            "the d_r scan", need, "comparisons", families.DEFAULT_BUDGET, fiber_size=size, design_size=n
        )
    stars = families.above(spec, s, members)
    near = families.star_neighbourhoods(stars, n)
    count_r = families.atom_count(spec, r)  # x /\ y has rank r iff x and y share this many atoms
    member_atoms = [y.atoms for y in members]
    best = None
    witness = None
    for x, star_x in zip(families.enumerate_fiber(spec, s), stars):
        atoms_x = x.atoms
        for y, atoms_y, near_y in zip(members, member_atoms, near):
            if (atoms_x & atoms_y).bit_count() != count_r:
                continue
            count = (star_x & near_y).bit_count()
            if best is None or count > best:
                best, witness = count, (x, y)
    return DrReport(r=r, s=s, d_r=best, bound=bound, witness=witness)


class ExtremalVerdict(Record, fields="size bound status center"):
    """How an intersecting family compares with the bound lambda_s: `status`
    is below-bound, extremal-star, extremal-but-not-star or exceeds-bound,
    and `center` the star's rank-s center, or None."""

    __slots__ = ()


def verify_extremal(cert: DesignCertificate, family, s: int) -> ExtremalVerdict:
    """Classify an s-intersecting subfamily of the design against lambda_s."""
    spec = cert.spec
    members = tuple(family)
    if len(set(members)) != len(members):
        raise ParseError("family contains a duplicate element")
    if not set(members) <= set(cert.elements):
        raise ParseError("family is not a subset of the design")
    if not is_intersecting(spec, members, s):
        raise ParseError(f"family is not {s}-intersecting")
    bound = ekr_bound(cert, s)
    size = len(members)
    if size < bound:
        return ExtremalVerdict(size, bound, "below-bound", None)
    if size > bound:
        return ExtremalVerdict(size, bound, "exceeds-bound", None)
    # |family| == bound: extremal iff the family is a full star of some
    # rank-s center, and any center lies below the iterated meet.  Every
    # rank-s z below it has the whole family in its star, and the design, of
    # strength t >= s (`ekr_bound`), covers z exactly lambda_s = |family|
    # times: so its star is the family, and the first z is the center.
    common = families.meet_all(members)
    if common.rank < s:
        return ExtremalVerdict(size, bound, "extremal-but-not-star", None)
    return ExtremalVerdict(size, bound, "extremal-star", families.below(common, s)[0])
